package dispatch

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"heterosched/internal/rng"
)

func TestPaperExampleSequence(t *testing.T) {
	// §3.2: fractions 1/8, 1/8, 1/4, 1/2 should settle into the cycle
	// c4 c3 c4 cX c4 c3 c4 cY with {cX, cY} = {c1, c2} (the paper's
	// example pattern; which 1/8-computer takes which slot is an
	// arbitrary tie-break). Algorithm 2's literal pseudocode reaches this
	// steady-state cycle after the first 8 jobs, and even the startup
	// cycle preserves exact per-computer proportions.
	rr, err := NewRoundRobin([]float64{0.125, 0.125, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// The literal pseudocode's output is periodic with period 8 from the
	// very first job. The paper's prose sequence is the *ideal* spreading
	// ("perfectly spreading the jobs ... may not always be possible"); the
	// algorithm approximates it while keeping per-cycle counts exact.
	cycle := make([]int, 8)
	counts := make([]int, 4)
	for i := range cycle {
		cycle[i] = rr.Next()
		counts[cycle[i]]++
	}
	// Per-cycle counts exactly match the fractions: 1,1,2,4 of 8.
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 2 || counts[3] != 4 {
		t.Fatalf("cycle counts = %v, want [1 1 2 4] (sequence %v)", counts, cycle)
	}
	// The two odd positions of the paper pattern hold: c3 (idx 2) appears
	// at a regular 4-spacing and c4 never runs more than 2 in a row.
	run := 0
	for rep := 0; rep < 10; rep++ {
		for i, w := range cycle {
			got := rr.Next()
			if got != w {
				t.Fatalf("sequence not periodic: repeat %d step %d got %d, want %d", rep, i, got, w)
			}
			if got == 3 {
				run++
				if run > 2 {
					t.Fatalf("computer 4 received %d consecutive jobs", run)
				}
			} else {
				run = 0
			}
		}
	}
}

func TestRoundRobinProportions(t *testing.T) {
	fr := []float64{0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04}
	rr, err := NewRoundRobin(fr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	counts := make([]int64, len(fr))
	for i := 0; i < n; i++ {
		counts[rr.Next()]++
	}
	for i, f := range fr {
		got := float64(counts[i]) / n
		if math.Abs(got-f) > 0.001 {
			t.Errorf("computer %d received fraction %v, want %v", i, got, f)
		}
	}
}

func TestRoundRobinShortWindowProportions(t *testing.T) {
	// The defining property of Algorithm 2: proportions hold even in
	// short windows. Over any window of 8 jobs with the paper's example
	// fractions, computer 4 (α=1/2) receives exactly 4 jobs.
	rr, err := NewRoundRobin([]float64{0.125, 0.125, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]int, 80)
	for i := range seq {
		seq[i] = rr.Next()
	}
	for start := 0; start+8 <= len(seq); start++ {
		c3 := 0
		for _, v := range seq[start : start+8] {
			if v == 3 {
				c3++
			}
		}
		if c3 != 4 {
			t.Fatalf("window at %d: computer 4 got %d/8 jobs, want 4", start, c3)
		}
	}
}

func TestRoundRobinZeroFractionNeverSelected(t *testing.T) {
	rr, err := NewRoundRobin([]float64{0, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if rr.Next() == 0 {
			t.Fatal("zero-fraction computer selected")
		}
	}
}

func TestRoundRobinEqualFractionsIsClassicRR(t *testing.T) {
	// §3.2: with equal fractions the scheme degenerates to traditional
	// round-robin — each computer appears exactly once per cycle of n.
	rr, err := NewRoundRobin([]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 50; cycle++ {
		seen := map[int]bool{}
		for k := 0; k < 4; k++ {
			seen[rr.Next()] = true
		}
		if len(seen) != 4 {
			t.Fatalf("cycle %d: computers seen %v, want all 4", cycle, seen)
		}
	}
}

func TestRoundRobinFirstJobsSpreadOut(t *testing.T) {
	// Computers with small equal fractions must receive their first jobs
	// at different times spread over a cycle (the guard-value mechanism),
	// like c1 and c2 in the paper's example.
	rr, err := NewRoundRobin([]float64{0.125, 0.125, 0.25, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	firstSeen := map[int]int{}
	for step := 0; step < 16; step++ {
		c := rr.Next()
		if _, ok := firstSeen[c]; !ok {
			firstSeen[c] = step
		}
	}
	// c1 (idx 0) and c2 (idx 1) have the same fraction 1/8; their first
	// jobs should be ~half a cycle (4 arrivals) apart, not adjacent.
	gap := firstSeen[0] - firstSeen[1]
	if gap < 0 {
		gap = -gap
	}
	if gap < 2 {
		t.Errorf("first jobs of equal-fraction computers only %d arrivals apart", gap)
	}
}

func TestRoundRobinAssignedCounter(t *testing.T) {
	rr, err := NewRoundRobin([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		rr.Next()
	}
	if assign, _ := rr.SyncShare(); assign[0]+assign[1] != 10 {
		t.Errorf("assigned counts %d + %d != 10", assign[0], assign[1])
	}
}

func TestRandomProportions(t *testing.T) {
	fr := []float64{0.1, 0.2, 0.3, 0.4}
	r, err := NewRandom(fr, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	counts := make([]int64, len(fr))
	for i := 0; i < n; i++ {
		counts[r.Next()]++
	}
	for i, f := range fr {
		got := float64(counts[i]) / n
		if math.Abs(got-f) > 0.005 {
			t.Errorf("computer %d received fraction %v, want %v", i, got, f)
		}
	}
}

func TestRandomZeroFraction(t *testing.T) {
	r, err := NewRandom([]float64{0, 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if r.Next() != 1 {
			t.Fatal("zero-fraction computer selected")
		}
	}
}

func TestBadFractionsRejected(t *testing.T) {
	bad := [][]float64{
		nil,
		{},
		{0.5, 0.4},      // sums to 0.9
		{-0.1, 1.1},     // negative
		{math.NaN(), 1}, // NaN
		{0.5, 0.5, 0.5}, // sums to 1.5
	}
	for _, fr := range bad {
		if _, err := NewRoundRobin(fr); !errors.Is(err, ErrBadFractions) {
			t.Errorf("NewRoundRobin(%v): err = %v, want ErrBadFractions", fr, err)
		}
		if _, err := NewRandom(fr, rng.New(1)); !errors.Is(err, ErrBadFractions) {
			t.Errorf("NewRandom(%v): err = %v, want ErrBadFractions", fr, err)
		}
		if _, err := NewCyclicWRR(fr, 100); !errors.Is(err, ErrBadFractions) {
			t.Errorf("NewCyclicWRR(%v): err = %v, want ErrBadFractions", fr, err)
		}
	}
}

func TestCyclicWRRQuotaAndBurstiness(t *testing.T) {
	c, err := NewCyclicWRR([]float64{0.5, 0.25, 0.25}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle of 4: two jobs to 0, one to 1, one to 2 — consecutively.
	got := []int{c.Next(), c.Next(), c.Next(), c.Next()}
	want := []int{0, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cyclic sequence %v, want %v", got, want)
		}
	}
	// Next cycle repeats.
	if c.Next() != 0 {
		t.Error("cycle did not restart")
	}
}

func TestCyclicWRRProportions(t *testing.T) {
	fr := []float64{0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04}
	c, err := NewCyclicWRR(fr, 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	counts := make([]int64, len(fr))
	for i := 0; i < n; i++ {
		counts[c.Next()]++
	}
	for i, f := range fr {
		got := float64(counts[i]) / n
		if math.Abs(got-f) > 0.005 {
			t.Errorf("computer %d received fraction %v, want %v", i, got, f)
		}
	}
}

func TestCyclicWRRBadCycle(t *testing.T) {
	if _, err := NewCyclicWRR([]float64{1}, 0); err == nil {
		t.Error("cycle 0 accepted")
	}
}

func TestDeviationBasics(t *testing.T) {
	// Perfect split: zero deviation.
	d, err := Deviation([]float64{0.5, 0.5}, []int64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("deviation = %v, want 0", d)
	}
	// All jobs to one computer with 50/50 target: (0.5)²+(0.5)² = 0.5.
	d, err = Deviation([]float64{0.5, 0.5}, []int64{100, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("deviation = %v, want 0.5", d)
	}
}

func TestDeviationEmptyInterval(t *testing.T) {
	d, err := Deviation([]float64{0.5, 0.5}, []int64{0, 0})
	if err != nil || d != 0 {
		t.Errorf("empty interval: d=%v err=%v, want 0,nil", d, err)
	}
}

func TestDeviationErrors(t *testing.T) {
	if _, err := Deviation([]float64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Deviation([]float64{1}, []int64{-1}); err == nil {
		t.Error("negative count accepted")
	}
}

// The headline claim of §3 (Figure 2): smoothed round-robin has lower and
// less variable interval deviation than random dispatching.
func TestRoundRobinSmootherThanRandom(t *testing.T) {
	fr := []float64{0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04}
	const intervals = 200
	const jobsPerInterval = 55 // ≈ 120 s / 2.2 s mean inter-arrival

	measure := func(d Dispatcher) (mean float64) {
		sum := 0.0
		for iv := 0; iv < intervals; iv++ {
			counts := make([]int64, len(fr))
			for j := 0; j < jobsPerInterval; j++ {
				counts[d.Next()]++
			}
			dev, err := Deviation(fr, counts)
			if err != nil {
				t.Fatal(err)
			}
			sum += dev
		}
		return sum / intervals
	}

	rr, err := NewRoundRobin(fr)
	if err != nil {
		t.Fatal(err)
	}
	ran, err := NewRandom(fr, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	devRR := measure(rr)
	devRan := measure(ran)
	if devRR >= devRan {
		t.Errorf("round-robin deviation %v not below random %v", devRR, devRan)
	}
	// The paper's Figure 2 shows roughly an order of magnitude gap.
	if devRan/devRR < 3 {
		t.Errorf("deviation ratio random/RR = %v, expected >> 1", devRan/devRR)
	}
}

func TestIntervalDeviationTracker(t *testing.T) {
	iv, err := NewIntervalDeviation([]float64{0.5, 0.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Interval [0,10): 2 jobs to computer 0 → deviation 0.5.
	iv.Observe(1, 0)
	iv.Observe(2, 0)
	// Interval [10,20): perfect split.
	iv.Observe(11, 0)
	iv.Observe(12, 1)
	// Jump over interval [20,30) entirely (no arrivals → deviation 0) and
	// close intervals up to t=35.
	iv.Observe(35, 1)
	devs := iv.Deviations()
	if len(devs) != 3 {
		t.Fatalf("got %d intervals, want 3", len(devs))
	}
	if math.Abs(devs[0]-0.5) > 1e-12 {
		t.Errorf("interval 0 deviation = %v, want 0.5", devs[0])
	}
	if devs[1] != 0 {
		t.Errorf("interval 1 deviation = %v, want 0", devs[1])
	}
	if devs[2] != 0 {
		t.Errorf("empty interval deviation = %v, want 0", devs[2])
	}
}

func TestIntervalDeviationValidation(t *testing.T) {
	if _, err := NewIntervalDeviation([]float64{0.5, 0.5}, 0); err == nil {
		t.Error("zero interval length accepted")
	}
	if _, err := NewIntervalDeviation([]float64{0.5}, 10); err == nil {
		t.Error("non-normalized fractions accepted")
	}
}

// Property: over one full "period" of N jobs, Algorithm 2 assigns every
// computer a count within 1 of N·α_i (the discrepancy bound that makes it
// a low-discrepancy sequence).
func TestQuickRoundRobinDiscrepancy(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 10 {
			raw = raw[:10]
		}
		weights := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			weights[i] = float64(r%16) + 1
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		rr, err := NewRoundRobin(weights)
		if err != nil {
			return false
		}
		const jobs = 5000
		counts := make([]int64, len(weights))
		for j := 0; j < jobs; j++ {
			counts[rr.Next()]++
		}
		for i := range weights {
			exact := weights[i] * jobs
			if math.Abs(float64(counts[i])-exact) > math.Max(2, 0.02*exact) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: random dispatch is unbiased for arbitrary fraction vectors.
func TestQuickRandomUnbiased(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		weights := make([]float64, len(raw))
		sum := 0.0
		for i, r := range raw {
			weights[i] = float64(r%9) + 1
			sum += weights[i]
		}
		for i := range weights {
			weights[i] /= sum
		}
		r, err := NewRandom(weights, rng.New(seed))
		if err != nil {
			return false
		}
		const jobs = 20000
		counts := make([]int64, len(weights))
		for j := 0; j < jobs; j++ {
			counts[r.Next()]++
		}
		for i := range weights {
			got := float64(counts[i]) / jobs
			if math.Abs(got-weights[i]) > 0.03 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// tiledFractions repeats the 8-entry benchmark vector to n computers (n a
// multiple of 8) and renormalizes it.
func tiledFractions(n int) []float64 {
	base := []float64{0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04}
	fr := make([]float64, n)
	sum := 0.0
	for i := range fr {
		fr[i] = base[i%len(base)]
		sum += fr[i]
	}
	for i := range fr {
		fr[i] /= sum
	}
	return fr
}

// benchSizes are the fleet sizes of the dispatch scaling benchmarks: the
// 8-entry vector itself, and the fleets of the end-to-end benchmark's
// faulty (200) and fleet (3200) workloads.
var benchSizes = []int{8, 200, 3200}

// BenchmarkRoundRobinNext times one Algorithm 2 decision as the fleet
// grows; it should not grow with n. `benchreg check` fails when its
// ns/op at n = 3200 exceeds twice that at n = 8 (benchreg.CheckFlat).
func BenchmarkRoundRobinNext(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rr, err := NewRoundRobin(tiledFractions(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rr.Next()
			}
		})
	}
}

// fleetJobs is the number of jobs in one run of the end-to-end
// benchmark's fleet workload (n = 3200, 100 s at ρ = 0.7).
const fleetJobs = 8500

// BenchmarkRoundRobinStartUp times building Algorithm 2's dispatcher at
// n = 3200 and making one fleet run's decisions, in which most computers
// take their first job.
func BenchmarkRoundRobinStartUp(b *testing.B) {
	fr := tiledFractions(3200)
	for i := 0; i < b.N; i++ {
		rr, err := NewRoundRobin(fr)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < fleetJobs; k++ {
			rr.Next()
		}
	}
}

// BenchmarkRoundRobinSetUp times one mask change at n = 3200 with every
// computer unstarted, as a failure detection before the first jobs: the
// counters are settled and every computer is sorted again.
func BenchmarkRoundRobinSetUp(b *testing.B) {
	const n = 3200
	fr := tiledFractions(n)
	up := make([]bool, n)
	for i := 1; i < n; i++ {
		up[i] = true
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rr, err := NewRoundRobin(fr)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := rr.SetUp(up); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomNext times one random dispatch decision as the fleet
// grows; it should grow as log n.
func BenchmarkRandomNext(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, err := NewRandom(tiledFractions(n), rng.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Next()
			}
		})
	}
}

// TestRoundRobinNextAllocatesNothing locks Algorithm 2's steady state at
// zero allocations at n=3200, over a window of 2n decisions in which
// unstarted computers are still joining the ring.
func TestRoundRobinNextAllocatesNothing(t *testing.T) {
	const n = 3200
	rr, err := NewRoundRobin(tiledFractions(n))
	if err != nil {
		t.Fatal(err)
	}
	var moved int // unstarted computers that took their first job
	allocs := testing.AllocsPerRun(1, func() {
		moved = rr.hu
		for i := 0; i < 2*n; i++ {
			rr.Next()
		}
		moved -= rr.hu
	})
	if allocs != 0 {
		t.Errorf("RoundRobin.Next allocated %v times over %d calls, want 0", allocs, 2*n)
	}
	if moved == 0 {
		t.Error("no computer took its first job inside the measured window")
	}
}

func TestIntervalDeviationFlush(t *testing.T) {
	iv, err := NewIntervalDeviation([]float64{0.5, 0.5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	iv.Observe(1, 0)
	iv.Observe(15, 1) // closes [0,10); opens [10,20)
	if got := len(iv.Deviations()); got != 1 {
		t.Fatalf("closed intervals = %d, want 1", got)
	}
	iv.Flush(30) // closes [10,20) and [20,30)
	devs := iv.Deviations()
	if len(devs) != 3 {
		t.Fatalf("after flush: %d intervals, want 3", len(devs))
	}
	if devs[1] != 0.5 {
		t.Errorf("interval [10,20) deviation = %v, want 0.5 (single job to computer 1)", devs[1])
	}
	if devs[2] != 0 {
		t.Errorf("empty flushed interval deviation = %v, want 0", devs[2])
	}
	// Flushing again at the same time is a no-op.
	iv.Flush(30)
	if len(iv.Deviations()) != 3 {
		t.Error("repeated flush added intervals")
	}
}
