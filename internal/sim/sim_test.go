package sim

import (
	"math"
	"sort"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/rng"
	"heterosched/internal/stats"
)

func TestEngineOrdersEvents(t *testing.T) {
	var en Engine
	var order []int
	en.Schedule(3, func() { order = append(order, 3) })
	en.Schedule(1, func() { order = append(order, 1) })
	en.Schedule(2, func() { order = append(order, 2) })
	en.RunUntil(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if en.Now() != 3 {
		t.Errorf("clock = %v, want 3", en.Now())
	}
}

func TestEngineFIFOAmongTies(t *testing.T) {
	var en Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		en.Schedule(5, func() { order = append(order, i) })
	}
	en.RunUntil(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v not FIFO", order)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	var en Engine
	fired := false
	ev := en.Schedule(1, func() { fired = true })
	if !ev.Active() {
		t.Error("Active() = false before cancel")
	}
	ev.Cancel()
	if ev.Active() {
		t.Error("Active() = true after cancel")
	}
	ev.Cancel() // double-cancel is a no-op
	en.RunUntil(10)
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineRunUntilHorizon(t *testing.T) {
	var en Engine
	fired := 0
	en.Schedule(1, func() { fired++ })
	en.Schedule(5, func() { fired++ })
	en.Schedule(9, func() { fired++ })
	en.RunUntil(5) // events at exactly the horizon fire
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	en.RunUntil(100)
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	var en Engine
	en.Schedule(5, func() {})
	en.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	en.Schedule(1, func() {})
}

func TestEngineAdvanceTo(t *testing.T) {
	var en Engine
	en.AdvanceTo(7)
	if en.Now() != 7 {
		t.Errorf("clock = %v", en.Now())
	}
	ev := en.Schedule(9, func() {})
	ev.Cancel()
	en.AdvanceTo(12) // cancelled events don't block
	if en.Now() != 12 {
		t.Errorf("clock = %v", en.Now())
	}
}

func TestEngineAdvanceToBlockedPanics(t *testing.T) {
	var en Engine
	en.Schedule(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	en.AdvanceTo(10)
}

func TestEngineCascade(t *testing.T) {
	// Events scheduled from within events run in order.
	var en Engine
	var order []string
	en.Schedule(1, func() {
		order = append(order, "a")
		en.ScheduleAfter(1, func() { order = append(order, "c") })
	})
	en.Schedule(1.5, func() { order = append(order, "b") })
	en.RunUntil(10)
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestPSServerSingleJob(t *testing.T) {
	var en Engine
	var done []*Job
	s := NewPSServer(&en, 2.0, func(j *Job) { done = append(done, j) })
	s.Arrive(&Job{ID: 1, Size: 10, Arrival: 0})
	en.RunUntil(100)
	if len(done) != 1 {
		t.Fatalf("completed %d jobs", len(done))
	}
	// Size 10 at speed 2 alone: completes at t=5.
	if math.Abs(done[0].Completion-5) > 1e-9 {
		t.Errorf("completion = %v, want 5", done[0].Completion)
	}
}

// TestPSServersSlabMatchesSingles drives the servers of one slab and
// separately built servers through the same arrivals, with every server
// holding more jobs at once than its slots in the slab's shared backing
// array while its neighbours hold jobs, and requires the same
// departures: a server that wrote into another's slots would lose or
// duplicate a job.
func TestPSServersSlabMatchesSingles(t *testing.T) {
	speeds := []float64{0.5, 0.4, 0.6, 0.5}
	type departure struct {
		server int
		id     int64
		at     float64
	}
	run := func(servers []*PSServer, en *Engine, log *[]departure) {
		st := rng.New(17)
		peak := make([]int, len(servers))
		for k := 0; k < 40; k++ {
			i := st.Intn(len(servers))
			at := float64(k) * 0.25
			j := &Job{ID: int64(k), Size: 0.5 + 2*st.Float64(), Arrival: at}
			en.Schedule(at, func() {
				servers[i].Arrive(j)
				peak[i] = max(peak[i], servers[i].InService())
			})
		}
		en.RunUntil(1e6)
		if len(*log) != 40 {
			t.Fatalf("%d of 40 jobs departed", len(*log))
		}
		for i, p := range peak {
			if p <= psFirstSlots {
				t.Fatalf("server %d held at most %d jobs, not more than its %d slots", i, p, psFirstSlots)
			}
		}
	}
	var slabEn, singleEn Engine
	var fromSlab, fromSingles []departure
	slab := NewPSServers(&slabEn, speeds, func(i int) func(*Job) {
		return func(j *Job) { fromSlab = append(fromSlab, departure{i, j.ID, j.Completion}) }
	})
	servers := make([]*PSServer, len(slab))
	for i := range slab {
		servers[i] = &slab[i]
	}
	run(servers, &slabEn, &fromSlab)
	for i, s := range speeds {
		servers[i] = NewPSServer(&singleEn, s, func(j *Job) {
			fromSingles = append(fromSingles, departure{i, j.ID, j.Completion})
		})
	}
	run(servers, &singleEn, &fromSingles)
	for k := range fromSlab {
		if fromSlab[k] != fromSingles[k] {
			t.Fatalf("departure %d: slab %+v, single servers %+v", k, fromSlab[k], fromSingles[k])
		}
	}
}

func TestPSServerSharingHandComputed(t *testing.T) {
	// Speed 1. Job A (size 3) at t=0; job B (size 1) at t=1.
	// t∈[0,1): A alone, attains 1. t∈[1,3): sharing at rate 1/2 each;
	// B attains 1 and departs at t=3. t∈[3,4): A alone, departs at t=4.
	var en Engine
	byID := map[int64]float64{}
	s := NewPSServer(&en, 1.0, func(j *Job) { byID[j.ID] = j.Completion })
	a := &Job{ID: 1, Size: 3}
	b := &Job{ID: 2, Size: 1}
	s.Arrive(a)
	en.Schedule(1, func() { s.Arrive(b) })
	en.RunUntil(100)
	if math.Abs(byID[2]-3) > 1e-9 {
		t.Errorf("B completion = %v, want 3", byID[2])
	}
	if math.Abs(byID[1]-4) > 1e-9 {
		t.Errorf("A completion = %v, want 4", byID[1])
	}
}

func TestPSServerEqualJobsFinishTogether(t *testing.T) {
	// k identical jobs arriving together under PS finish simultaneously at
	// k·size/speed.
	var en Engine
	var completions []float64
	s := NewPSServer(&en, 4.0, func(j *Job) { completions = append(completions, j.Completion) })
	for i := 0; i < 5; i++ {
		s.Arrive(&Job{ID: int64(i), Size: 8})
	}
	en.RunUntil(1000)
	if len(completions) != 5 {
		t.Fatalf("completed %d jobs", len(completions))
	}
	want := 5 * 8.0 / 4.0
	for _, c := range completions {
		if math.Abs(c-want) > 1e-9 {
			t.Errorf("completion = %v, want %v", c, want)
		}
	}
}

func TestPSServerBusyTime(t *testing.T) {
	var en Engine
	departed := 0
	s := NewPSServer(&en, 1.0, func(*Job) { departed++ })
	s.Arrive(&Job{ID: 1, Size: 2})
	en.RunUntil(100) // busy [0,2]
	en.AdvanceTo(10)
	s.Arrive(&Job{ID: 2, Size: 3})
	en.RunUntil(100) // busy [10,13]
	if math.Abs(s.BusyTime()-5) > 1e-9 {
		t.Errorf("busy time = %v, want 5", s.BusyTime())
	}
	if departed != 2 {
		t.Errorf("departed = %d", departed)
	}
}

func TestPSServerRejectsBadJob(t *testing.T) {
	var en Engine
	s := NewPSServer(&en, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Arrive(&Job{ID: 1, Size: 0})
}

// driveMM1 runs an M/G/1-PS simulation and returns the mean response time
// and the measured utilization.
func driveMM1(t *testing.T, sizeDist dist.Distribution, lambda, speed, horizon float64, seed uint64) (meanResp, util float64) {
	t.Helper()
	var en Engine
	var resp stats.Accumulator
	s := NewPSServer(&en, speed, func(j *Job) { resp.Add(j.ResponseTime()) })
	arrivals := rng.New(seed).Derive("arrivals")
	sizes := rng.New(seed).Derive("sizes")
	var id int64
	var schedule func()
	schedule = func() {
		en.ScheduleAfter(arrivals.Exp(1/lambda), func() {
			if en.Now() > horizon {
				return
			}
			id++
			s.Arrive(&Job{ID: id, Size: sizeDist.Sample(sizes), Arrival: en.Now()})
			schedule()
		})
	}
	schedule()
	en.RunUntil(horizon)
	return resp.Mean(), s.BusyTime() / en.Now()
}

func TestPSServerMM1MeanResponse(t *testing.T) {
	// M/M/1-PS with λ=0.5, μ=1: mean response = 1/(μ−λ) = 2.
	mean, util := driveMM1(t, dist.NewExponential(1.0), 0.5, 1.0, 400000, 11)
	if math.Abs(mean-2) > 0.1 {
		t.Errorf("mean response = %v, want ~2", mean)
	}
	if math.Abs(util-0.5) > 0.02 {
		t.Errorf("utilization = %v, want ~0.5", util)
	}
}

func TestPSServerInsensitivity(t *testing.T) {
	// The M/G/1-PS mean response time depends on the service distribution
	// only through its mean: E[T] = E[S]/(1−ρ). Verify with the paper's
	// heavy-tailed Bounded Pareto at ρ = 0.6.
	jobDist := dist.PaperJobSize() // mean 76.8
	lambda := 0.6 / 76.8
	mean, _ := driveMM1(t, jobDist, lambda, 1.0, 3.0e7, 23)
	want := 76.8 / (1 - 0.6)
	if math.Abs(mean-want)/want > 0.08 {
		t.Errorf("mean response = %v, want ~%v (PS insensitivity)", mean, want)
	}
}

func TestPSServerSpeedScaling(t *testing.T) {
	// Doubling the speed at fixed λ halves ρ and the response times scale
	// accordingly: E[T] = E[S]/s / (1−ρ/s)... verified numerically:
	// λ=0.5, μ_base=1, speed 2 ⇒ service rate 2, ρ=0.25, E[T]=1/(2−0.5).
	mean, _ := driveMM1(t, dist.NewExponential(1.0), 0.5, 2.0, 400000, 31)
	want := 1 / (2.0 - 0.5)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean response = %v, want ~%v", mean, want)
	}
}

func TestRRServerSingleJob(t *testing.T) {
	var en Engine
	var done *Job
	s := NewRRServer(&en, 2.0, 0.1, func(j *Job) { done = j })
	s.Arrive(&Job{ID: 1, Size: 1})
	en.RunUntil(100)
	if done == nil || math.Abs(done.Completion-0.5) > 1e-9 {
		t.Fatalf("completion = %+v, want 0.5", done)
	}
}

func TestRRServerInterleavesJobs(t *testing.T) {
	// Two equal jobs under RR finish nearly together (like PS), not one
	// after the other (like FCFS).
	var en Engine
	var completions []float64
	s := NewRRServer(&en, 1.0, 0.01, func(j *Job) { completions = append(completions, j.Completion) })
	s.Arrive(&Job{ID: 1, Size: 5})
	s.Arrive(&Job{ID: 2, Size: 5})
	en.RunUntil(1000)
	if len(completions) != 2 {
		t.Fatalf("completed %d", len(completions))
	}
	sort.Float64s(completions)
	if completions[1]-completions[0] > 0.05 {
		t.Errorf("RR completions %v not interleaved", completions)
	}
	if math.Abs(completions[1]-10) > 0.05 {
		t.Errorf("last completion %v, want ~10", completions[1])
	}
}

func TestRRServerConvergesToPS(t *testing.T) {
	// With a small quantum, RR response times approach PS on the same
	// arrival pattern.
	run := func(mk func(en *Engine, cb func(*Job)) interface{ Arrive(*Job) }) []float64 {
		var en Engine
		var out []float64
		s := mk(&en, func(j *Job) { out = append(out, j.ResponseTime()) })
		arr := rng.New(77).Derive("a")
		sz := rng.New(77).Derive("s")
		t0 := 0.0
		for i := 0; i < 500; i++ {
			t0 += arr.Exp(2.0)
			j := &Job{ID: int64(i), Size: sz.Exp(1.5), Arrival: t0}
			en.Schedule(t0, func() { s.Arrive(j) })
		}
		en.RunUntil(1e9)
		return out
	}
	ps := run(func(en *Engine, cb func(*Job)) interface{ Arrive(*Job) } { return NewPSServer(en, 1, cb) })
	rr := run(func(en *Engine, cb func(*Job)) interface{ Arrive(*Job) } { return NewRRServer(en, 1, 0.005, cb) })
	if len(ps) != 500 || len(rr) != 500 {
		t.Fatalf("completions: ps=%d rr=%d", len(ps), len(rr))
	}
	meanPS, meanRR := 0.0, 0.0
	for i := range ps {
		meanPS += ps[i]
		meanRR += rr[i]
	}
	meanPS /= 500
	meanRR /= 500
	if math.Abs(meanPS-meanRR)/meanPS > 0.02 {
		t.Errorf("PS mean %v vs small-quantum RR mean %v", meanPS, meanRR)
	}
}

func TestFCFSServerSequential(t *testing.T) {
	var en Engine
	byID := map[int64]float64{}
	s := NewFCFSServer(&en, 1.0, func(j *Job) { byID[j.ID] = j.Completion })
	s.Arrive(&Job{ID: 1, Size: 3})
	s.Arrive(&Job{ID: 2, Size: 2})
	en.RunUntil(100)
	if math.Abs(byID[1]-3) > 1e-9 || math.Abs(byID[2]-5) > 1e-9 {
		t.Errorf("completions = %v, want 1→3, 2→5", byID)
	}
}

func TestFCFSMatchesMM1(t *testing.T) {
	// M/M/1 FCFS mean response = 1/(μ−λ), same as PS for exponential
	// sizes.
	var en Engine
	var resp stats.Accumulator
	s := NewFCFSServer(&en, 1.0, func(j *Job) { resp.Add(j.ResponseTime()) })
	arr := rng.New(3).Derive("a")
	sz := rng.New(3).Derive("s")
	var id int64
	var schedule func()
	schedule = func() {
		en.ScheduleAfter(arr.Exp(2.0), func() {
			if en.Now() > 300000 {
				return
			}
			id++
			s.Arrive(&Job{ID: id, Size: sz.Exp(1.0), Arrival: en.Now()})
			schedule()
		})
	}
	schedule()
	en.RunUntil(300000)
	want := 1 / (1.0 - 0.5)
	if math.Abs(resp.Mean()-want)/want > 0.05 {
		t.Errorf("FCFS mean response = %v, want ~%v", resp.Mean(), want)
	}
}

func TestServerInterfaceCompliance(t *testing.T) {
	var en Engine
	var _ Server = NewPSServer(&en, 1, nil)
	var _ Server = NewRRServer(&en, 1, 0.1, nil)
	var _ Server = NewFCFSServer(&en, 1, nil)
}

func TestJobMetrics(t *testing.T) {
	j := &Job{Arrival: 10, Completion: 25, Size: 5}
	if j.ResponseTime() != 15 {
		t.Errorf("response time = %v", j.ResponseTime())
	}
	if j.ResponseRatio() != 3 {
		t.Errorf("response ratio = %v", j.ResponseRatio())
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	var en Engine
	for i := 0; i < b.N; i++ {
		en.ScheduleAfter(float64(i%16), func() {})
		en.Step()
	}
}

func BenchmarkPSServerThroughput(b *testing.B) {
	// Measures events/sec through a busy PS server at ρ≈0.7.
	var en Engine
	s := NewPSServer(&en, 1.0, nil)
	arr := rng.New(1).Derive("a")
	sz := rng.New(1).Derive("s")
	var id int64
	var schedule func()
	schedule = func() {
		en.ScheduleAfter(arr.Exp(1.43), func() {
			id++
			s.Arrive(&Job{ID: id, Size: sz.Exp(1.0), Arrival: en.Now()})
			schedule()
		})
	}
	schedule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Step()
	}
}
