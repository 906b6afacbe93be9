package sched

import (
	"slices"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/sim"
)

// goldenBase is the run TestGoldenDefaults and TestGoldenLayersOff lock:
// speeds {1,1,2,10} at ρ=0.6, 5·10⁴ s, seed 7.
func goldenBase() cluster.Config {
	return cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    5e4,
		Seed:        7,
	}
}

// golden is one locked run outcome.
type golden struct {
	time, ratio, fair   float64
	jobs, generatedJobs int64
}

// The golden outcomes of goldenBase under ORR and WRAN.
var (
	goldenORR  = golden{80.32010488757426, 0.85354843255027757, 0.76359187852407262, 3741, 5160}
	goldenWRAN = golden{90.335689256411428, 1.009917972863575, 1.0072099109339594, 3741, 5160}
)

func (g golden) check(t *testing.T, label string, res *cluster.Result) {
	t.Helper()
	if res.MeanResponseTime != g.time || res.MeanResponseRatio != g.ratio ||
		res.Fairness != g.fair || res.Jobs != g.jobs || res.GeneratedJobs != g.generatedJobs {
		t.Errorf("%s drifted from golden values:\n got  time=%.17g ratio=%.17g fair=%.17g jobs=%d gen=%d\n want time=%.17g ratio=%.17g fair=%.17g jobs=%d gen=%d",
			label, res.MeanResponseTime, res.MeanResponseRatio, res.Fairness, res.Jobs, res.GeneratedJobs,
			g.time, g.ratio, g.fair, g.jobs, g.generatedJobs)
	}
}

// TestGoldenDefaults locks the simulator's output bit-for-bit for runs
// with every optional subsystem (faults, overload protection, sampling)
// at its defaults. The overload layer is required to be inert when
// disabled — no extra random streams, no extra events — so these exact
// values must survive any refactor that keeps that promise. If a change
// legitimately alters the core simulation, recapture the constants and
// say why in the commit.
func TestGoldenDefaults(t *testing.T) {
	cases := []struct {
		label  string
		policy cluster.Policy
		want   golden
	}{
		{"ORR", ORR(), goldenORR},
		{"WRAN", WRAN(), goldenWRAN},
		{"LL", NewLeastLoad(), golden{66.696128653667557, 0.63576168097964592, 0.46118949545857496, 3741, 5160}},
	}
	for _, c := range cases {
		res, err := cluster.Run(goldenBase(), c.policy)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		c.want.check(t, c.label, res)
		if res.Overload != nil || res.InSystemSeries != nil {
			t.Errorf("%s: overload fields populated on a default run", c.label)
		}
	}
}

// TestGoldenLayersOff locks every optional layer's inertness promise to
// the TestGoldenDefaults constants: each row attaches one layer in an
// inert configuration, and the run must stay bit-identical to the
// default one and report no layer statistics. If a row drifts while
// TestGoldenDefaults still passes, that layer's wiring leaked into its
// off path (an extra derived stream or scheduled event).
func TestGoldenLayersOff(t *testing.T) {
	inertProbe, err := probe.New(probe.Options{}) // valid, nothing enabled
	if err != nil {
		t.Fatal(err)
	}
	// A K=1 policy takes the original unsharded path — no wrapper, no
	// sync events, no extra RNG derivations — whatever its sync period.
	oneDispatcher := func(_ *cluster.Config, p *Static) {
		p.Dispatchers = 1
		p.SyncEvery = 25
	}
	rows := []struct {
		name   string
		policy func() *Static
		want   golden
		// finals counts OnFinal calls, which must equal Result.Jobs:
		// the hook observes exactly the post-warm-up jobs T̄ averages.
		finals bool
		layer  func(cfg *cluster.Config, p *Static)
	}{
		{"probes", ORR, goldenORR, true, func(cfg *cluster.Config, _ *Static) {
			cfg.Probe = inertProbe
		}},
		{"drift", ORR, goldenORR, false, func(cfg *cluster.Config, _ *Static) {
			cfg.Drift = &drift.Config{}        // no perturbations scheduled
			cfg.Adapt = &cluster.AdaptConfig{} // zero CheckInterval = disabled
		}},
		{"netfault", ORR, goldenORR, false, func(cfg *cluster.Config, _ *Static) {
			cfg.Netfault = &netfault.Config{} // zero value = layer disabled
		}},
		{"sharding_ORR", ORR, goldenORR, false, oneDispatcher},
		{"sharding_WRAN", WRAN, goldenWRAN, false, oneDispatcher},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg, p := goldenBase(), r.policy()
			r.layer(&cfg, p)
			finals := 0
			if r.finals {
				cfg.OnFinal = func(*sim.Job, cluster.Outcome) { finals++ }
			}
			res, err := cluster.Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			r.want.check(t, r.name, res)
			if r.finals && int64(finals) != res.Jobs {
				t.Errorf("OnFinal fired %d times, want %d (post-warm-up completions)", finals, res.Jobs)
			}
			if res.Adaptive != nil || res.Netfault != nil || res.Overload != nil {
				t.Errorf("layer stats populated on an inert run: adaptive %v, netfault %v, overload %v",
					res.Adaptive != nil, res.Netfault != nil, res.Overload != nil)
			}
			if p.Shards() != 1 || p.sharded != nil {
				t.Errorf("%d shards (wrapper %v), want 1 and no wrapper to sync", p.Shards(), p.sharded != nil)
			}
		})
	}
}

// goldenFaults is the failure model of TestGoldenFaultResolve: MTBF
// 2·10⁴ s, MTTR 2·10³ s, requeue to the dispatcher, 10 s detection lag.
func goldenFaults() *faults.Config {
	return &faults.Config{
		Uptime:       dist.NewExponential(2e4),
		Downtime:     dist.NewExponential(2e3),
		Fate:         faults.RequeueToDispatcher,
		DetectionLag: 10,
	}
}

// TestGoldenDynamicFamily locks the dynamic policies bit for bit: LL,
// LL*, JSQ2 and the scalable family on goldenBase, sharded over four
// hash-routed replicas, with a lossy control plane, under
// goldenFaults, and at n = 100 ({1,1,2,10} tiled, 5·10³ s). Without a
// control plane the scalable policies read the oracle view — no plane,
// no extra RNG derivations, no message events — and report no ctrl
// statistics; a drift in those rows means the ctrl-off path moved. The two
// JSQ2 rows under faults and at n = 100 were recaptured when JSQ2
// became LeastLoad{D: 2}: it now masks detected-down computers (it used
// to keep dispatching into them) and draws distinct computers at any n
// (it used to draw with replacement above 64).
func TestGoldenDynamicFamily(t *testing.T) {
	with := func(edit func(*cluster.Config)) func() cluster.Config {
		return func() cluster.Config {
			cfg := goldenBase()
			edit(&cfg)
			return cfg
		}
	}
	base := with(func(*cluster.Config) {})
	faulty := with(func(cfg *cluster.Config) { cfg.Faults = goldenFaults() })
	ctrl := with(func(cfg *cluster.Config) {
		cfg.Ctrl = &ctrlplane.Config{
			Links:   netfault.Links{Link: netfault.Link{Latency: dist.NewExponential(5), Loss: 0.2}},
			Lease:   200,
			QueryTO: 50,
		}
	})
	wide := with(func(cfg *cluster.Config) {
		cfg.Duration = 5e3
		cfg.Speeds = make([]float64, 100)
		for i := range cfg.Speeds {
			cfg.Speeds[i] = []float64{1, 1, 2, 10}[i%4]
		}
	})
	sharded := func(p *Scalable) cluster.Policy {
		p.Dispatchers = 4
		p.ShardBy = dispatch.ShardHash
		return p
	}
	rows := []struct {
		name   string
		cfg    func() cluster.Config
		policy func() cluster.Policy
		want   golden
	}{
		{"LL*", base, func() cluster.Policy { return &LeastLoad{Instant: true} }, golden{61.563418872271825, 0.64031635982958324, 0.46221444726805089, 3741, 5160}},
		{"JSQ2", base, func() cluster.Policy { return NewPowerOfTwo() }, golden{212.85887150965294, 2.5753224819587897, 3.1995542132371102, 3741, 5160}},
		{"jsq(2)", base, func() cluster.Policy { return JSQd(2) }, golden{201.12460609046394, 2.8068014939382713, 3.5533524939724872, 3741, 5160}},
		{"pod(2):speed", base, func() cluster.Policy { return PodSpeed(2) }, golden{92.867593148925963, 0.97938741215073366, 1.3571006438427438, 3741, 5160}},
		{"pod(2):alpha", base, func() cluster.Policy { return PodAlpha(2) }, golden{84.734524932321136, 0.91165230911449613, 1.2074858720580046, 3741, 5160}},
		{"jiq", base, func() cluster.Policy { return JIQ() }, golden{112.72647817013664, 0.93236816103933939, 1.2692942539101288, 3741, 5160}},
		{"jsq(2)xK4", base, func() cluster.Policy { return sharded(JSQd(2)) }, golden{329.47005854774045, 4.3782760053310747, 5.0587316708608503, 3741, 5160}},
		{"pod(2):speedxK4", base, func() cluster.Policy { return sharded(PodSpeed(2)) }, golden{80.630471169092061, 0.82638298615545858, 1.1049304997425735, 3741, 5160}},
		{"jiqxK4", base, func() cluster.Policy { return sharded(JIQ()) }, golden{102.61349191805493, 1.2627536446654126, 1.9370415350176293, 3741, 5160}},
		{"jiq/ctrl", ctrl, func() cluster.Policy { return JIQ() }, golden{128.9330188424623, 2.5278822260762244, 2.4204636726045399, 3741, 5160}},
		{"pod(2):speed/ctrl", ctrl, func() cluster.Policy { return PodSpeed(2) }, golden{154.18963322572475, 3.0694761854964048, 2.6124446084696791, 3741, 5160}},
		{"LL/faults", faulty, func() cluster.Policy { return NewLeastLoad() }, golden{80.224107693911648, 0.95333221428059811, 1.1818451650356177, 3739, 5160}},
		{"JSQ2/faults", faulty, func() cluster.Policy { return NewPowerOfTwo() }, golden{234.68571870616623, 3.0986201599697889, 3.5061232195585372, 3741, 5160}},
		{"LL/n100", wide, func() cluster.Policy { return NewLeastLoad() }, golden{15.945196915375295, 0.19996071856515307, 0.066321123365823728, 10336, 13561}},
		{"JSQ2/n100", wide, func() cluster.Policy { return NewPowerOfTwo() }, golden{87.6660266923667, 1.272880032182099, 1.2382166678686681, 10336, 13561}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			cfg := r.cfg()
			res, err := cluster.Run(cfg, r.policy())
			if err != nil {
				t.Fatal(err)
			}
			r.want.check(t, r.name, res)
			if cfg.Ctrl == nil && res.Ctrl != nil {
				t.Error("Result.Ctrl non-nil with Config.Ctrl nil")
			}
		})
	}
}

// TestGoldenFaultResolve locks a fault-injected ReallocResolve run.
// These values were recaptured when resolveFractions switched its
// saturated-degraded-system fallback from an optimized allocation at
// ρ = 1−1e−9 to renormalized stale fractions (the documented
// fallback); they must be stable from then on.
func TestGoldenFaultResolve(t *testing.T) {
	cfg := goldenBase()
	cfg.Faults = goldenFaults()
	p := ORR()
	p.Realloc = ReallocResolve
	res, err := cluster.Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantTime  = 109.29479844721433
		wantRatio = 1.4331510949263637
		wantFair  = 2.4534217611974678
	)
	if res.MeanResponseTime != wantTime || res.MeanResponseRatio != wantRatio ||
		res.Fairness != wantFair || res.Jobs != 3738 || res.GeneratedJobs != 5160 {
		t.Errorf("fault-resolve run drifted from golden values:\n got  time=%.17g ratio=%.17g fair=%.17g jobs=%d gen=%d\n want time=%.17g ratio=%.17g fair=%.17g jobs=3738 gen=5160",
			res.MeanResponseTime, res.MeanResponseRatio, res.Fairness, res.Jobs, res.GeneratedJobs,
			wantTime, wantRatio, wantFair)
	}
	// The {1,1,2,10} system at ρ=0.6 saturates whenever the speed-10
	// computer is down (effective ρ = 2.1), so resolve mode falls back to
	// the stale fractions renormalized over the survivors.
	down := []bool{true, true, true, false}
	if got, want := p.resolveFractions(down), p.staleRenormalized(down); !slices.Equal(got, want) {
		t.Errorf("resolve without the speed-10 computer = %v, want the renormalized stale split %v", got, want)
	}
}

// dispatchLog records the dispatch, fail and repair events of a run.
type dispatchLog struct{ events []probe.Event }

func (l *dispatchLog) Write(e *probe.Event) error {
	switch e.Kind {
	case probe.EvDispatch, probe.EvFail, probe.EvRepair:
		l.events = append(l.events, *e)
	}
	return nil
}

func (l *dispatchLog) Flush() error { return nil }

// intoDown counts the dispatches into a computer while it is down,
// from the instant it fails up to its repair. A dispatch at the
// failure's own instant counts whether the stream carries it before or
// after the fail event.
func (l *dispatchLog) intoDown() int {
	type edge struct {
		computer int
		t        float64
	}
	failed := map[edge]bool{}
	for _, e := range l.events {
		if e.Kind == probe.EvFail {
			failed[edge{e.Target, e.T}] = true
		}
	}
	n := 0
	down := map[int]bool{}
	for _, e := range l.events {
		switch e.Kind {
		case probe.EvFail, probe.EvRepair:
			down[e.Target] = e.Kind == probe.EvFail
		case probe.EvDispatch:
			if down[e.Target] || failed[edge{e.Target, e.T}] {
				n++
			}
		}
	}
	return n
}

// TestFailureReachesPolicyBeforeRequeue runs goldenBase under
// goldenFaults with no detection lag: each fault-aware policy learns of
// a failure at its instant, so no job evicted by it, nor any other, may
// be dispatched into the failed computer before its repair.
func TestFailureReachesPolicyBeforeRequeue(t *testing.T) {
	rows := []struct {
		name   string
		policy func() cluster.Policy
	}{
		{"LL", func() cluster.Policy { return NewLeastLoad() }},
		{"JSQ2", func() cluster.Policy { return NewPowerOfTwo() }},
		{"ORR resolve", func() cluster.Policy {
			p := ORR()
			p.Realloc = ReallocResolve
			return p
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			log := &dispatchLog{}
			pb, err := probe.New(probe.Options{Events: log})
			if err != nil {
				t.Fatal(err)
			}
			cfg := goldenBase()
			cfg.Faults = goldenFaults()
			cfg.Faults.DetectionLag = 0
			cfg.Probe = pb
			res, err := cluster.Run(cfg, r.policy())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures == 0 {
				t.Fatal("no failures injected")
			}
			if n := log.intoDown(); n != 0 {
				t.Errorf("%d dispatches into a down computer at zero detection lag", n)
			}
		})
	}
}

// TestGoldenCrossParallelism runs the same replicated experiment with the
// replication scheduler pinned to several parallelism levels and requires
// bit-identical aggregates. Each replication derives all randomness from
// its own seed, so the interleaving of replications across goroutines must
// not matter; a drift here means shared mutable state leaked between
// concurrent runs.
func TestGoldenCrossParallelism(t *testing.T) {
	cfg := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    2e4,
		Seed:        11,
	}
	run := func(parallel int) *cluster.ReplicatedResult {
		t.Helper()
		old := cluster.MaxParallel
		cluster.MaxParallel = parallel
		defer func() { cluster.MaxParallel = old }()
		res, err := cluster.RunReplications(cfg, func() cluster.Policy { return ORR() }, 6)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return res
	}

	serial := run(1)
	for _, parallel := range []int{4, 0} { // 0 = GOMAXPROCS
		got := run(parallel)
		if got.MeanResponseTime != serial.MeanResponseTime ||
			got.MeanResponseRatio != serial.MeanResponseRatio ||
			got.Fairness != serial.Fairness {
			t.Errorf("parallel=%d aggregates differ from serial:\n got  %+v\n want %+v",
				parallel, got.MeanResponseTime, serial.MeanResponseTime)
		}
		for r := range serial.Runs {
			if got.Runs[r].MeanResponseTime != serial.Runs[r].MeanResponseTime ||
				got.Runs[r].Jobs != serial.Runs[r].Jobs {
				t.Errorf("parallel=%d rep %d: time=%.17g jobs=%d, serial time=%.17g jobs=%d",
					parallel, r,
					got.Runs[r].MeanResponseTime, got.Runs[r].Jobs,
					serial.Runs[r].MeanResponseTime, serial.Runs[r].Jobs)
			}
		}
	}
}
