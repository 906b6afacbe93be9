package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"heterosched/internal/rng"
)

// stressN scales a stress-test iteration count down under -short so the
// suite stays quick under the race detector (`make check` runs
// `go test -race -short ./...`; `make stress` runs the full counts).
func stressN(full int) int {
	if testing.Short() {
		return full / 10
	}
	return full
}

// TestEngineHeapOrderingRandomized schedules events at random times with
// random cancellations and verifies the firing order is exactly the
// time-sorted order of surviving events.
func TestEngineHeapOrderingRandomized(t *testing.T) {
	st := rng.New(99)
	trials := stressN(50)
	for trial := 0; trial < trials; trial++ {
		var en Engine
		type ev struct {
			time      float64
			seq       int
			cancelled bool
		}
		n := 200 + st.Intn(200)
		events := make([]ev, n)
		var fired []int
		handles := make([]Event, n)
		for i := 0; i < n; i++ {
			tm := st.Float64() * 1000
			events[i] = ev{time: tm, seq: i}
			i := i
			handles[i] = en.Schedule(tm, func() { fired = append(fired, i) })
		}
		// Cancel ~25%.
		for i := range events {
			if st.Float64() < 0.25 {
				events[i].cancelled = true
				handles[i].Cancel()
			}
		}
		en.RunUntil(math.Inf(1))

		var want []int
		for i, e := range events {
			if !e.cancelled {
				want = append(want, i)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			ea, eb := events[want[a]], events[want[b]]
			if ea.time != eb.time {
				return ea.time < eb.time
			}
			return ea.seq < eb.seq
		})
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for k := range want {
			if fired[k] != want[k] {
				t.Fatalf("trial %d: firing order diverged at %d: got %d, want %d",
					trial, k, fired[k], want[k])
			}
		}
	}
}

// TestEngineFullNodeTiesAndSigns drives the heap's full-node child
// selection through its exact cases. At least 341 events stay pending,
// enough for four full levels below the root. Their times come from
// {−0, +0, 5e-324, 1, 1, 2, +Inf}, so siblings often tie for the least
// time or differ only in the sign of zero. Schedules, steps, Reschedules
// (later and earlier) and Cancels interleave, and every step must fire
// the least pending event by (time, seq), with −0 equal to +0.
func TestEngineFullNodeTiesAndSigns(t *testing.T) {
	times := []float64{math.Copysign(0, -1), 0, 5e-324, 1, 1, 2, math.Inf(1)}
	const keep = 341
	st := rng.New(61)
	trials := stressN(20)
	for trial := 0; trial < trials; trial++ {
		var en Engine
		type item struct {
			time    float64
			seq     int
			pending bool
		}
		var items []*item
		var handles []Event
		var fired []int
		seq := 0
		draw := func() float64 {
			for {
				if tt := times[st.Intn(len(times))]; tt >= en.Now() {
					return tt
				}
			}
		}
		schedule := func() {
			tt, id := draw(), len(items)
			items = append(items, &item{time: tt, seq: seq, pending: true})
			seq++
			handles = append(handles, en.Schedule(tt, func() { fired = append(fired, id) }))
		}
		// step fires one event and checks it against the least pending
		// item; it reports false once both are empty.
		step := func(op int) bool {
			want, w := -1, (*item)(nil)
			for k, it := range items {
				if it.pending && (w == nil || it.time < w.time || it.time == w.time && it.seq < w.seq) {
					want, w = k, it
				}
			}
			if !en.Step() {
				if want >= 0 {
					t.Fatalf("trial %d op %d: engine empty, reference still has event %d", trial, op, want)
				}
				return false
			}
			if want < 0 || fired[len(fired)-1] != want {
				t.Fatalf("trial %d op %d: fired event %d, want %d", trial, op, fired[len(fired)-1], want)
			}
			if en.Now() != items[want].time {
				t.Fatalf("trial %d op %d: clock %v, want %v", trial, op, en.Now(), items[want].time)
			}
			items[want].pending = false
			return true
		}
		for i := 0; i < keep+64; i++ {
			schedule()
		}
		for op := 0; op < 4000; op++ {
			k := st.Intn(len(handles))
			switch r := st.Float64(); {
			case r < 0.3:
				schedule()
			case r < 0.45:
				handles[k].Cancel()
				items[k].pending = false
			case r < 0.7:
				if items[k].pending {
					tt := draw()
					handles[k] = en.Reschedule(handles[k], tt)
					items[k].time, items[k].seq = tt, seq
					seq++
				}
			default:
				if en.Pending() > keep {
					step(op)
				}
			}
		}
		if en.Pending() < keep {
			t.Fatalf("trial %d: %d events pending before the drain, want at least %d", trial, en.Pending(), keep)
		}
		for step(-1) {
		}
	}
}

// TestEngineClockMonotone verifies the clock never goes backwards across a
// randomized schedule, including events scheduled from within events.
func TestEngineClockMonotone(t *testing.T) {
	var en Engine
	st := rng.New(7)
	last := -1.0
	var spawn func()
	count := 0
	target := stressN(5000)
	spawn = func() {
		now := en.Now()
		if now < last {
			t.Fatalf("clock went backwards: %v after %v", now, last)
		}
		last = now
		if count < target {
			count++
			en.ScheduleAfter(st.Float64()*3, spawn)
		}
	}
	en.Schedule(0, spawn)
	en.Schedule(0, spawn)
	en.Schedule(0, spawn)
	en.RunUntil(math.Inf(1))
	if count < target {
		t.Fatalf("only %d events fired", count)
	}
}

// Property: for any set of scheduled times, Fired() equals the number of
// non-cancelled events after draining.
func TestQuickEngineFiredCount(t *testing.T) {
	f := func(times []float64, cancelMask []bool) bool {
		var en Engine
		valid := 0
		var handles []Event
		for _, tm := range times {
			if math.IsNaN(tm) || math.IsInf(tm, 0) || tm < 0 || tm > 1e12 {
				continue
			}
			handles = append(handles, en.Schedule(tm, func() {}))
			valid++
		}
		cancelled := 0
		for i, h := range handles {
			if i < len(cancelMask) && cancelMask[i] {
				h.Cancel()
				cancelled++
			}
		}
		en.RunUntil(math.Inf(1))
		return en.Fired() == uint64(valid-cancelled)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPSServerConservation: over a randomized arrival pattern, every job
// departs exactly once, departures are time-ordered, and each job's
// completion is consistent with PS bounds: no earlier than arrival +
// size/speed (service at full speed) and no earlier than any co-resident
// lower bound.
func TestPSServerConservation(t *testing.T) {
	var en Engine
	st := rng.New(13)
	type done struct {
		id   int64
		at   float64
		size float64
		arr  float64
	}
	var completions []done
	s := NewPSServer(&en, 2.0, func(j *Job) {
		completions = append(completions, done{j.ID, j.Completion, j.Size, j.Arrival})
	})
	jobs := int64(stressN(5000))
	tm := 0.0
	for i := int64(1); i <= jobs; i++ {
		tm += st.Exp(1.0)
		size := st.Exp(1.5)
		j := &Job{ID: i, Size: size, Arrival: tm}
		en.Schedule(tm, func() { s.Arrive(j) })
	}
	en.RunUntil(math.Inf(1))

	if int64(len(completions)) != jobs {
		t.Fatalf("completed %d jobs, want %d", len(completions), jobs)
	}
	seen := map[int64]bool{}
	lastT := 0.0
	for _, d := range completions {
		if seen[d.id] {
			t.Fatalf("job %d departed twice", d.id)
		}
		seen[d.id] = true
		if d.at < lastT-1e-9 {
			t.Fatalf("departures out of order: %v after %v", d.at, lastT)
		}
		lastT = d.at
		// Lower bound: service at the full speed the whole time.
		if d.at < d.arr+d.size/2.0-1e-9 {
			t.Fatalf("job %d finished impossibly fast: response %v < size/speed %v",
				d.id, d.at-d.arr, d.size/2.0)
		}
	}
	if s.InService() != 0 {
		t.Fatalf("%d jobs stuck in server", s.InService())
	}
	if s.Departed() != jobs {
		t.Fatalf("Departed() = %d", s.Departed())
	}
}

// TestPSServerWorkConservation: total busy time equals total work/speed
// when the server never idles (all jobs arrive at time 0).
func TestPSServerWorkConservation(t *testing.T) {
	var en Engine
	s := NewPSServer(&en, 4.0, nil)
	totalWork := 0.0
	st := rng.New(17)
	for i := int64(1); i <= 100; i++ {
		size := st.Exp(3.0)
		totalWork += size
		s.Arrive(&Job{ID: i, Size: size})
	}
	en.RunUntil(math.Inf(1))
	wantBusy := totalWork / 4.0
	if math.Abs(s.BusyTime()-wantBusy) > 1e-6*wantBusy {
		t.Errorf("busy time %v, want %v", s.BusyTime(), wantBusy)
	}
	if math.Abs(en.Now()-wantBusy) > 1e-6*wantBusy {
		t.Errorf("makespan %v, want %v", en.Now(), wantBusy)
	}
}

// TestPSServerSRPTOrderingOfEqualArrivals: with simultaneous arrivals,
// PS completes jobs in size order.
func TestPSServerSizeOrderedDepartures(t *testing.T) {
	var en Engine
	var order []int64
	s := NewPSServer(&en, 1.0, func(j *Job) { order = append(order, j.ID) })
	sizes := []float64{5, 1, 3, 2, 4}
	for i, size := range sizes {
		s.Arrive(&Job{ID: int64(i + 1), Size: size})
	}
	en.RunUntil(math.Inf(1))
	want := []int64{2, 4, 3, 5, 1} // ascending size
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("departure order %v, want %v", order, want)
		}
	}
}

// TestRRServerConservation mirrors the PS conservation check for the
// quantum server.
func TestRRServerConservation(t *testing.T) {
	var en Engine
	st := rng.New(19)
	var count int
	s := NewRRServer(&en, 1.0, 0.25, func(*Job) { count++ })
	tm := 0.0
	jobs := int64(stressN(1000))
	for i := int64(1); i <= jobs; i++ {
		tm += st.Exp(2.0)
		j := &Job{ID: i, Size: st.Exp(1.0), Arrival: tm}
		en.Schedule(tm, func() { s.Arrive(j) })
	}
	en.RunUntil(math.Inf(1))
	if int64(count) != jobs {
		t.Fatalf("completed %d, want %d", count, jobs)
	}
	if s.InService() != 0 {
		t.Fatalf("%d jobs stuck", s.InService())
	}
}

// TestEngineManyCancellations exercises slot reuse under heavy
// cancellation pressure (the PS server replaces its tentative departure on
// every arrival, so this is the hot path).
func TestEngineManyCancellations(t *testing.T) {
	var en Engine
	st := rng.New(23)
	fired := 0
	rounds := stressN(1000)
	for round := 0; round < rounds; round++ {
		var keep Event
		for k := 0; k < 10; k++ {
			ev := en.ScheduleAfter(st.Float64()*10, func() { fired++ })
			keep.Cancel() // no-op on the zero handle in the first iteration
			keep = ev
		}
		// Only the last of each batch survives.
	}
	en.RunUntil(math.Inf(1))
	if fired != rounds {
		t.Fatalf("fired %d, want %d", fired, rounds)
	}
	if en.Pending() != 0 {
		t.Fatalf("pending %d after drain", en.Pending())
	}
}
