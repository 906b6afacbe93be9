package sched

import (
	"testing"

	"heterosched/internal/cluster"
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
			if p.Syncs() != 0 || p.Shards() != 1 {
				t.Errorf("%d sync rounds over %d shards, want 0 over 1", p.Syncs(), p.Shards())
			}
		})
	}
}

// TestGoldenFaultResolve locks a fault-injected ReallocResolve run.
// These values were recaptured when resolveFractions switched its
// saturated-degraded-system fallback from an optimized allocation at
// ρ = 1−1e−9 to renormalized stale fractions (the documented
// StaleFallbacks behavior); they must be stable from then on.
func TestGoldenFaultResolve(t *testing.T) {
	cfg := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    5e4,
		Seed:        7,
		Faults: &faults.Config{
			Uptime:       dist.NewExponential(2e4),
			Downtime:     dist.NewExponential(2e3),
			Fate:         faults.RequeueToDispatcher,
			DetectionLag: 10,
		},
	}
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
	// computer is down (effective ρ = 2.1), so resolve mode must have
	// fallen back to renormalized stale fractions at least once.
	if p.StaleFallbacks() == 0 {
		t.Error("StaleFallbacks = 0, want > 0 (speed-10 outages saturate the survivors)")
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
