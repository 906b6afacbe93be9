package sched

import (
	"math"
	"strings"
	"testing"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

func initStatic(t *testing.T, s *Static, speeds []float64, rho float64) *cluster.Context {
	t.Helper()
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: rho,
		Lambda:      1,
		Mu:          1,
		RNG:         rng.New(1),
	}
	if err := s.Init(ctx); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func TestTable2Names(t *testing.T) {
	for _, c := range []struct {
		p    cluster.Policy
		want string
	}{
		{WRAN(), "WRAN"},
		{ORAN(), "ORAN"},
		{WRR(), "WRR"},
		{ORR(), "ORR"},
		{NewLeastLoad(), "LL"},
		{&LeastLoad{Instant: true}, "LL*"},
		{ORRWithLoadError(-0.10), "ORR(-10%)"},
		{ORRWithLoadError(+0.05), "ORR(+5%)"},
	} {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func TestStaticFractionsMatchAllocator(t *testing.T) {
	speeds := []float64{1, 2, 5}
	s := ORR()
	initStatic(t, s, speeds, 0.7)
	want, err := alloc.Optimized{}.Allocate(speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Fractions()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("fraction[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStaticSelectRespectsFractions(t *testing.T) {
	speeds := []float64{1, 1, 2}
	for _, kind := range []DispatchKind{RandomDispatch, RoundRobinDispatch, CyclicDispatch} {
		s := &Static{Allocator: alloc.Proportional{}, Kind: kind}
		initStatic(t, s, speeds, 0.5)
		counts := make([]int64, 3)
		const n = 40000
		for i := 0; i < n; i++ {
			counts[s.Select(&sim.Job{ID: int64(i)})]++
		}
		for i, want := range []float64{0.25, 0.25, 0.5} {
			got := float64(counts[i]) / n
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%v: computer %d fraction %v, want %v", kind, i, got, want)
			}
		}
	}
}

func TestStaticInitFailsOnSaturation(t *testing.T) {
	s := &Static{Allocator: alloc.Equal{}, Kind: RoundRobinDispatch}
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      []float64{1, 9},
		Utilization: 0.9, // equal split saturates the slow machine
		RNG:         rng.New(1),
	}
	if err := s.Init(ctx); err == nil {
		t.Error("Init accepted a saturating allocation")
	}
}

func TestDispatchKindString(t *testing.T) {
	if RandomDispatch.String() != "RAN" || RoundRobinDispatch.String() != "RR" ||
		CyclicDispatch.String() != "CYC" {
		t.Error("dispatch kind names wrong")
	}
	if !strings.Contains(DispatchKind(9).String(), "9") {
		t.Error("unknown kind should include its value")
	}
}

func TestLeastLoadPrefersIdleFastMachine(t *testing.T) {
	ll := NewLeastLoad()
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      []float64{1, 10},
		Utilization: 0.5,
		RNG:         rng.New(2),
	}
	if err := ll.Init(ctx); err != nil {
		t.Fatal(err)
	}
	// With empty queues, normalized load (0+1)/s is minimized by the fast
	// machine; the first several jobs all go there until its queue builds.
	for i := 0; i < 9; i++ {
		if got := ll.Select(nil); got != 1 {
			t.Fatalf("job %d sent to %d, want fast machine 1 (load %v)", i, got, ll.load)
		}
	}
	// After 9 queued jobs on the fast machine, (9+1)/10 = 1.0 equals
	// (0+1)/1 on the slow machine; strict < keeps the first minimum, the
	// slow machine at index 0... (1+0)/1 = 1 is not < 1.0 so machine 1
	// scanned later stays? Order: index 0 checked first with 1.0, then
	// index 1 with 1.0 is not strictly smaller, so the slow machine wins.
	if got := ll.Select(nil); got != 0 {
		t.Fatalf("10th job sent to %d, want slow machine 0", got)
	}
}

func TestLeastLoadDelayedUpdate(t *testing.T) {
	en := &sim.Engine{}
	ll := NewLeastLoad()
	ctx := &cluster.Context{
		Engine:      en,
		Speeds:      []float64{1},
		Utilization: 0.5,
		RNG:         rng.New(3),
	}
	if err := ll.Init(ctx); err != nil {
		t.Fatal(err)
	}
	ll.Select(nil)
	if ll.load[0] != 1 {
		t.Fatalf("load = %d after dispatch, want 1", ll.load[0])
	}
	ll.Departed(&sim.Job{Target: 0})
	if ll.load[0] != 1 {
		t.Error("load decremented immediately; should wait for the update message")
	}
	// The update arrives within U(0,1) + Exp(0.05) seconds — run past it.
	en.RunUntil(1000)
	if ll.load[0] != 0 {
		t.Errorf("load = %d after update message, want 0", ll.load[0])
	}
}

func TestLeastLoadInstant(t *testing.T) {
	ll := &LeastLoad{Instant: true}
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      []float64{1},
		Utilization: 0.5,
		RNG:         rng.New(3),
	}
	if err := ll.Init(ctx); err != nil {
		t.Fatal(err)
	}
	ll.Select(nil)
	ll.Departed(&sim.Job{Target: 0})
	if ll.load[0] != 0 {
		t.Errorf("instant variant load = %d, want 0", ll.load[0])
	}
}

// shortCfg is a fast simulation configuration shared by the end-to-end
// policy comparisons below. Exponential sizes converge much faster than
// the Bounded Pareto, so ordering checks are statistically stable in
// seconds of wall time; the full paper workload is exercised by the
// experiments package and benchmarks.
func shortCfg(speeds []float64, rho float64, seed uint64) cluster.Config {
	return cluster.Config{
		Speeds:      speeds,
		Utilization: rho,
		JobSize:     dist.NewExponential(10.0),
		ArrivalCV:   3.0,
		Duration:    100000,
		Seed:        seed,
	}
}

func ratioOf(t *testing.T, cfg cluster.Config, factory cluster.PolicyFactory, reps int) float64 {
	t.Helper()
	res, err := cluster.RunReplications(cfg, factory, reps)
	if err != nil {
		t.Fatal(err)
	}
	return res.MeanResponseRatio.Mean
}

func TestORRBeatsWRANOnSkewedSystem(t *testing.T) {
	// 2 fast (speed 10) + 4 slow (speed 1) at ρ=0.7: the paper's headline
	// ordering ORR < WRAN must hold clearly.
	speeds := []float64{1, 1, 1, 1, 10, 10}
	cfg := shortCfg(speeds, 0.7, 42)
	orr := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 4)
	wran := ratioOf(t, cfg, func() cluster.Policy { return WRAN() }, 4)
	if orr >= wran {
		t.Errorf("ORR ratio %v not below WRAN %v", orr, wran)
	}
	// §5.2 reports 35–40% gains; allow a broad band for the short run.
	if gain := (wran - orr) / wran; gain < 0.15 {
		t.Errorf("ORR gain over WRAN only %.0f%%, expected substantial", 100*gain)
	}
}

func TestOptimizedAllocationBeatsWeighted(t *testing.T) {
	// Same dispatcher (RR), allocation optimized vs weighted on the
	// paper's Figure 3 system (16 slow, 2 fast at 10×) with the paper's
	// Bounded Pareto workload: ORR < WRR.
	//
	// Note the configuration matters: on small clusters with only a thin
	// majority of slow machines, CV=3 burstiness can genuinely erase the
	// M/M/1-derived gain (the optimizer runs the fast machines much
	// hotter); the paper's own configurations keep the ordering.
	speeds := make([]float64, 18)
	for i := 0; i < 16; i++ {
		speeds[i] = 1
	}
	speeds[16], speeds[17] = 10, 10
	cfg := cluster.Config{
		Speeds:      speeds,
		Utilization: 0.7,
		Duration:    400000, // paper workload defaults (BP sizes, CV=3)
		Seed:        77,
	}
	orr := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 3)
	wrr := ratioOf(t, cfg, func() cluster.Policy { return WRR() }, 3)
	if orr >= wrr {
		t.Errorf("ORR ratio %v not below WRR %v", orr, wrr)
	}
	if gain := (wrr - orr) / wrr; gain < 0.10 {
		t.Errorf("ORR gain over WRR only %.0f%%, expected substantial", 100*gain)
	}
}

func TestRoundRobinDispatchBeatsRandom(t *testing.T) {
	// Same allocation (optimized), RR vs random dispatch: ORR < ORAN.
	speeds := []float64{1, 1, 1, 1, 10, 10}
	cfg := shortCfg(speeds, 0.7, 11)
	orr := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 4)
	oran := ratioOf(t, cfg, func() cluster.Policy { return ORAN() }, 4)
	if orr >= oran {
		t.Errorf("ORR ratio %v not below ORAN %v", orr, oran)
	}
}

func TestLeastLoadIsYardstick(t *testing.T) {
	// Dynamic Least-Load should beat every static policy (it is the upper
	// bound in all the paper's figures).
	speeds := []float64{1, 1, 1, 1, 10, 10}
	cfg := shortCfg(speeds, 0.7, 23)
	ll := ratioOf(t, cfg, func() cluster.Policy { return NewLeastLoad() }, 4)
	orr := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 4)
	if ll >= orr {
		t.Errorf("LL ratio %v not below ORR %v", ll, orr)
	}
}

func TestHomogeneousORRMatchesWRR(t *testing.T) {
	// On a homogeneous system optimized allocation equals weighted, so
	// ORR and WRR must coincide exactly (same fractions, same dispatch).
	speeds := []float64{1, 1, 1, 1}
	cfg := shortCfg(speeds, 0.7, 31)
	orr, err := cluster.Run(cfg, ORR())
	if err != nil {
		t.Fatal(err)
	}
	wrr, err := cluster.Run(cfg, WRR())
	if err != nil {
		t.Fatal(err)
	}
	if orr.MeanResponseRatio != wrr.MeanResponseRatio {
		t.Errorf("homogeneous ORR %v != WRR %v", orr.MeanResponseRatio, wrr.MeanResponseRatio)
	}
}

func TestORRWithLoadErrorRuns(t *testing.T) {
	speeds := []float64{1, 1, 10}
	cfg := shortCfg(speeds, 0.5, 13)
	exact := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 2)
	over := ratioOf(t, cfg, func() cluster.Policy { return ORRWithLoadError(+0.10) }, 2)
	// §5.4: overestimation is nearly free at moderate load.
	if over > exact*1.15 {
		t.Errorf("ORR(+10%%) ratio %v much worse than exact %v", over, exact)
	}
}

func TestPowerOfDName(t *testing.T) {
	if got := NewPowerOfTwo().Name(); got != "JSQ(2)" {
		t.Errorf("name = %q", got)
	}
	if got := (&LeastLoad{D: 4}).Name(); got != "JSQ(4)" {
		t.Errorf("name = %q", got)
	}
	if got := (&LeastLoad{Instant: true}).Name(); got != "LL*" {
		t.Errorf("name = %q", got)
	}
}

func TestPowerOfDInitValidation(t *testing.T) {
	p := &LeastLoad{D: 5}
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      []float64{1, 1},
		Utilization: 0.5,
		RNG:         rng.New(1),
	}
	if err := p.Init(ctx); err == nil {
		t.Error("JSQ(5) on 2 computers accepted")
	}
}

func TestPowerOfDSelectsWithinRange(t *testing.T) {
	p := NewPowerOfTwo()
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      []float64{1, 2, 4, 8},
		Utilization: 0.5,
		RNG:         rng.New(2),
	}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		target := p.Select(nil)
		if target < 0 || target > 3 {
			t.Fatalf("target %d out of range", target)
		}
		counts[target]++
		// Return the job instantly so load stays near zero and selection
		// reflects speed preference among sampled pairs.
		p.load[target]--
	}
	// With empty queues the faster computer of each sampled pair wins, so
	// shares must be monotone in speed.
	for i := 1; i < 4; i++ {
		if counts[i] < counts[i-1] {
			t.Errorf("share not monotone in speed: %v", counts)
		}
	}
}

func TestPowerOfDDelayedUpdate(t *testing.T) {
	en := &sim.Engine{}
	p := NewPowerOfTwo()
	ctx := &cluster.Context{
		Engine:      en,
		Speeds:      []float64{1, 1},
		Utilization: 0.5,
		RNG:         rng.New(3),
	}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	target := p.Select(nil)
	if p.load[target] != 1 {
		t.Fatal("load not charged on dispatch")
	}
	p.Departed(&sim.Job{Target: target})
	if p.load[target] != 1 {
		t.Error("load decremented before the update message arrived")
	}
	en.RunUntil(1000)
	if p.load[target] != 0 {
		t.Error("load not decremented after the update message")
	}
}

// TestPowerOfDDrawsDistinctAtLargeN: JSQ(2) queries two distinct
// computers at any n. With the loads 0, 1, …, n−1 on equal speeds the
// most loaded computer loses every sample of two distinct computers; it
// wins only a sample that drew it twice.
func TestPowerOfDDrawsDistinctAtLargeN(t *testing.T) {
	const n = 100
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
	}
	p := NewPowerOfTwo()
	ctx := &cluster.Context{Engine: &sim.Engine{}, Speeds: speeds, Utilization: 0.5, RNG: rng.New(4)}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	for i := range p.load {
		p.load[i] = i
	}
	// A sampler drawing with replacement repeats computer n−1 with
	// probability 1/n² per job: about 10 times in 10⁵ jobs.
	for k := 0; k < 100000; k++ {
		target := p.Select(nil)
		p.load[target]--
		if target == n-1 {
			t.Fatalf("job %d went to the most loaded computer: its sample drew it twice", k)
		}
	}
}

// maskWatch counts dispatch events and fails the test on one whose
// target the event's availability mask shows down after the run
// announced the failure (an EvFail event with no EvRepair since). The
// jobs a failure evicts are requeued before it is announced, so the
// policy cannot mask their target yet.
type maskWatch struct {
	t                  *testing.T
	announced          map[int]bool
	dispatches, masked int
}

func (w *maskWatch) Write(e *probe.Event) error {
	switch e.Kind {
	case probe.EvFail:
		w.announced[e.Target] = true
	case probe.EvRepair:
		w.announced[e.Target] = false
	case probe.EvDispatch:
		w.dispatches++
		if strings.Contains(e.Mask, "0") {
			w.masked++
		}
		if e.Mask[e.Target] != '1' && w.announced[e.Target] {
			w.t.Errorf("t=%v: job %d dispatched to down computer %d (mask %s)", e.T, e.Job, e.Target, e.Mask)
		}
	}
	return nil
}

func (w *maskWatch) Flush() error { return nil }

// TestPowerOfDMasksDownComputers: with failures detected at once, JSQ(2)
// never dispatches to a computer that is down.
func TestPowerOfDMasksDownComputers(t *testing.T) {
	cfg := goldenBase()
	cfg.Faults = goldenFaults()
	cfg.Faults.DetectionLag = 0
	w := &maskWatch{t: t, announced: map[int]bool{}}
	pb, err := probe.New(probe.Options{Events: w})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = pb
	if _, err := cluster.Run(cfg, NewPowerOfTwo()); err != nil {
		t.Fatal(err)
	}
	if w.masked == 0 {
		t.Fatalf("none of %d dispatches saw a computer down; the run exercises no mask", w.dispatches)
	}
}

func TestPowerOfDOnMildHeterogeneity(t *testing.T) {
	// On a mildly heterogeneous system JSQ(2) sits between the best
	// static scheme and full Least-Load.
	speeds := []float64{1, 1, 1.5, 1.5, 2, 2}
	cfg := shortCfg(speeds, 0.7, 51)
	orr := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 3)
	jsq := ratioOf(t, cfg, func() cluster.Policy { return NewPowerOfTwo() }, 3)
	ll := ratioOf(t, cfg, func() cluster.Policy { return NewLeastLoad() }, 3)
	if !(ll <= jsq*1.1) {
		t.Errorf("LL %v not at or below JSQ(2) %v", ll, jsq)
	}
	if jsq >= orr {
		t.Errorf("JSQ(2) %v not below static ORR %v on mild heterogeneity", jsq, orr)
	}
}

func TestPowerOfTwoUnstableUnderExtremeSkew(t *testing.T) {
	// A known failure mode of JSQ(d) with uniform sampling: on
	// {1,1,1,1,10,10} at ρ=0.7, both sampled computers are slow with
	// probability (4/6)(3/5) = 0.4, forcing ≥40% of arrivals onto slow
	// machines that hold only 17% of the capacity — they saturate, and
	// the *static* ORR (which understands speeds) wins by orders of
	// magnitude. This is why speed-aware allocation matters even against
	// dynamic schemes with partial information.
	speeds := []float64{1, 1, 1, 1, 10, 10}
	cfg := shortCfg(speeds, 0.7, 51)
	orr := ratioOf(t, cfg, func() cluster.Policy { return ORR() }, 2)
	jsq := ratioOf(t, cfg, func() cluster.Policy { return NewPowerOfTwo() }, 2)
	if jsq < 10*orr {
		t.Errorf("JSQ(2) %v did not exhibit the expected instability vs ORR %v", jsq, orr)
	}
}
