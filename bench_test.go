// Package heterosched's root benchmark suite: one benchmark per table and
// figure of the paper (each iteration regenerates a scaled-down version of
// that experiment's data), plus ablation benchmarks for the design choices
// called out in DESIGN.md §5.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// These benches measure regeneration cost at a small scale; the
// full-fidelity numbers are produced by cmd/experiments (see
// EXPERIMENTS.md). BenchmarkWorkload runs the end-to-end benchmark's
// workloads (perfbench/) one simulation at a time, so a CPU profile of
// one is reproducible from the tree:
//
//	go test -run '^$' -bench 'Workload/fleet' -cpuprofile cpu.out .
package heterosched

import (
	"testing"

	"heterosched/internal/alloc"
	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/experiments"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sched"
)

// benchOpts is the per-iteration experiment scale used by the table/figure
// benchmarks: 0.005 × the paper's 4×10⁶ s run with one replication.
func benchOpts(seed uint64) experiments.Options {
	return experiments.Options{Scale: 0.005, Reps: 1, Seed: seed}
}

// BenchmarkTable1DynamicSplit regenerates Table 1: the workload split
// produced by Dynamic Least-Load on the 7-speed system at 70% load.
func BenchmarkTable1DynamicSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Percent[6] < res.Percent[0] {
			b.Fatal("fastest computer received a smaller share than the slowest")
		}
	}
}

// BenchmarkFigure2DispatchDeviation regenerates Figure 2: interval
// deviations of round-robin vs random dispatching on bursty arrivals.
func BenchmarkFigure2DispatchDeviation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(experiments.Options{Reps: 1, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		// Guard against regressions only: with a single replication,
		// bursty arrivals occasionally leave intervals nearly empty,
		// where discretization noise can put RR slightly above random
		// (~0.5% of seeds). The strict ordering is asserted by the
		// experiments tests over averaged replications.
		if res.MeanRR > 2*res.MeanRandom {
			b.Fatalf("round-robin deviation %v far above random %v", res.MeanRR, res.MeanRandom)
		}
	}
}

// BenchmarkFigure3SpeedSkewness regenerates one high-skew point of
// Figure 3 (fast speed 10) across all five policies.
func BenchmarkFigure3SpeedSkewness(b *testing.B) {
	saved := experiments.Figure3FastSpeeds
	experiments.Figure3FastSpeeds = []float64{10}
	defer func() { experiments.Figure3FastSpeeds = saved }()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(benchOpts(uint64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		if res.RespRatio["ORR"][0].Mean >= res.RespRatio["WRAN"][0].Mean {
			b.Fatal("ORR not below WRAN at 10:1 skew")
		}
	}
}

// BenchmarkFigure4SystemSize regenerates one point of Figure 4 (10
// computers, half fast half slow).
func BenchmarkFigure4SystemSize(b *testing.B) {
	saved := experiments.Figure4Sizes
	experiments.Figure4Sizes = []float64{10}
	defer func() { experiments.Figure4Sizes = saved }()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(benchOpts(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5SystemLoad regenerates one point of Figure 5 (the
// Table 3 base configuration at 70% utilization).
func BenchmarkFigure5SystemLoad(b *testing.B) {
	saved := experiments.Figure5Loads
	experiments.Figure5Loads = []float64{0.7}
	defer func() { experiments.Figure5Loads = saved }()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(benchOpts(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6LoadEstimation regenerates one point of Figure 6
// (moderate load, the full error grid).
func BenchmarkFigure6LoadEstimation(b *testing.B) {
	savedL := experiments.Figure6Loads
	experiments.Figure6Loads = []float64{0.7}
	defer func() { experiments.Figure6Loads = savedL }()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(benchOpts(uint64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// baseBenchCfg is a mid-size simulation configuration shared by the
// ablation benchmarks.
func baseBenchCfg(seed uint64) cluster.Config {
	return cluster.Config{
		Speeds:      []float64{1, 1, 1, 1, 10, 10},
		Utilization: 0.7,
		Duration:    20000,
		Seed:        seed,
	}
}

// BenchmarkAblationDispatchKind compares the full simulation cost and
// behavior of the three dispatch strategies under identical workloads.
func BenchmarkAblationDispatchKind(b *testing.B) {
	for _, kind := range []sched.DispatchKind{
		sched.RandomDispatch, sched.RoundRobinDispatch, sched.CyclicDispatch,
	} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := &sched.Static{Allocator: alloc.Optimized{}, Kind: kind}
				if _, err := cluster.Run(baseBenchCfg(uint64(i+1)), p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationServerDiscipline compares exact PS against quantum
// round-robin at two quantum sizes: the PS implementation is O(log n) per
// job; quantum RR costs one event per slice.
func BenchmarkAblationServerDiscipline(b *testing.B) {
	run := func(b *testing.B, mutate func(*cluster.Config)) {
		for i := 0; i < b.N; i++ {
			cfg := baseBenchCfg(uint64(i + 1))
			mutate(&cfg)
			if _, err := cluster.Run(cfg, sched.ORR()); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("PS", func(b *testing.B) {
		run(b, func(*cluster.Config) {})
	})
	b.Run("RR-quantum-1s", func(b *testing.B) {
		run(b, func(c *cluster.Config) { c.Discipline = cluster.RR; c.Quantum = 1.0 })
	})
	b.Run("RR-quantum-0.1s", func(b *testing.B) {
		run(b, func(c *cluster.Config) { c.Discipline = cluster.RR; c.Quantum = 0.1 })
	})
}

// BenchmarkAblationAllocatorCost compares the closed-form Algorithm 1
// against the projected-gradient solver on the base configuration — the
// ~10⁴× cost gap that justifies deriving the closed form.
func BenchmarkAblationAllocatorCost(b *testing.B) {
	speeds := experiments.BaseSpeeds()
	b.Run("closed-form", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (alloc.Optimized{}).Allocate(speeds, 0.7); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("projected-gradient", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (alloc.NumericOptimized{Tol: 1e-10}).Allocate(speeds, 0.7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPolicySimulationThroughput measures end-to-end simulated jobs
// per wall second for each policy on the base configuration.
func BenchmarkPolicySimulationThroughput(b *testing.B) {
	policies := map[string]cluster.PolicyFactory{
		"ORR":  func() cluster.Policy { return sched.ORR() },
		"WRAN": func() cluster.Policy { return sched.WRAN() },
		"LL":   func() cluster.Policy { return sched.NewLeastLoad() },
	}
	for name, factory := range policies {
		factory := factory
		b.Run(name, func(b *testing.B) {
			jobs := int64(0)
			for i := 0; i < b.N; i++ {
				res, err := cluster.Run(baseBenchCfg(uint64(i+1)), factory())
				if err != nil {
					b.Fatal(err)
				}
				jobs += res.GeneratedJobs
			}
			b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkExtensionPolicies measures end-to-end simulation cost of the
// extension policies (capped ORR, JSQ(2), SITA-E) on the base ablation
// configuration.
func BenchmarkExtensionPolicies(b *testing.B) {
	policies := map[string]cluster.PolicyFactory{
		"ORRcap0.8": func() cluster.Policy { return sched.ORRCapped(0.8) },
		"JSQ2":      func() cluster.Policy { return sched.NewPowerOfTwo() },
		"SITA-E":    func() cluster.Policy { return sched.NewSITA(dist.PaperJobSize()) },
	}
	for name, factory := range policies {
		factory := factory
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := baseBenchCfg(uint64(i + 1))
				if _, err := cluster.Run(cfg, factory()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCappedAllocator measures the clipped water-filling solver
// against the unconstrained closed form.
func BenchmarkCappedAllocator(b *testing.B) {
	speeds := experiments.BaseSpeeds()
	for i := 0; i < b.N; i++ {
		if _, err := (alloc.CappedOptimized{MaxUtilization: 0.8}).Allocate(speeds, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiurnalArrivals measures the thinning sampler of the
// sinusoidal Poisson process.
func BenchmarkDiurnalArrivals(b *testing.B) {
	p := cluster.SinusoidalPoisson{Rate: 0.4, Amplitude: 0.35, Period: 86400}
	st := rngNew(1)
	now := 0.0
	for i := 0; i < b.N; i++ {
		now = p.Next(now, st)
	}
}

// rngNew keeps the benchmark imports tidy.
func rngNew(seed uint64) *rng.Stream { return rng.New(seed) }

// benchWorkload is one of the end-to-end benchmark's workloads
// (perfbench/workload.go) as its heterosim flags. perfbench is a main
// package in a module of its own, so its table is restated here.
type benchWorkload struct {
	name, policy, dispatchers, netfault, ackto, ctrl string
	scale                                            int
	spans                                            bool
	duration                                         float64
}

var benchWorkloads = []benchWorkload{
	{name: "paper", policy: "ORR", duration: 4e5},
	{name: "fleet", policy: "ORR", scale: 3200, duration: 100},
	{name: "faulty", policy: "jiq", scale: 200, dispatchers: "4:hash",
		netfault: "loss:0.05,dup:0.05,lat:2", ackto: "30",
		ctrl: "loss:0.2,dup:0.05,lat:5,lease:200,qto:50", spans: true, duration: 1e4},
}

// build constructs the workload's run configuration and policy factory
// through the parsers heterosim uses, at ρ = 0.7 with CV = 3 arrivals.
func (w benchWorkload) build() (cluster.Config, cluster.PolicyFactory, error) {
	var cfg cluster.Config
	speeds, err := cli.ScaleSpeeds(experiments.BaseSpeeds(), w.scale)
	if err != nil {
		return cfg, nil, err
	}
	disp := w.dispatchers
	if disp == "" {
		disp = "1"
	}
	sharding, err := cli.ParseShardingSpecs(disp, "never")
	if err != nil {
		return cfg, nil, err
	}
	nf, err := cli.NetfaultParams{Netfault: w.netfault, AckTO: w.ackto}.Build(len(speeds))
	if err != nil {
		return cfg, nil, err
	}
	ctrl, err := cli.CtrlParams{Ctrl: w.ctrl}.Build(len(speeds), sharding.Dispatchers)
	if err != nil {
		return cfg, nil, err
	}
	factory, err := cli.ParsePolicy(w.policy, cli.PolicyOptions{Computers: len(speeds), Sharding: sharding})
	if err != nil {
		return cfg, nil, err
	}
	cfg = cluster.Config{
		Speeds:      speeds,
		Utilization: 0.7,
		Duration:    w.duration,
		ArrivalCV:   3,
		Seed:        3,
		Netfault:    nf,
		Ctrl:        ctrl,
	}
	return cfg, factory, nil
}

// BenchmarkWorkload times one simulation of each end-to-end workload at
// a fixed seed: paper (the 15-computer Table 3 system under ORR), fleet
// (Table 3 tiled to 3200 computers) and faulty (200 computers, jiq over
// 4 hash-sharded dispatchers, lossy dispatch and control links, spans
// on). perfbench/ measures the same runs end to end; this is their
// profiling harness.
func BenchmarkWorkload(b *testing.B) {
	for _, w := range benchWorkloads {
		b.Run(w.name, func(b *testing.B) {
			cfg, factory, err := w.build()
			if err != nil {
				b.Fatal(err)
			}
			jobs := int64(0)
			for i := 0; i < b.N; i++ {
				if w.spans {
					if cfg.Probe, err = probe.New(probe.Options{Spans: true}); err != nil {
						b.Fatal(err)
					}
				}
				res, err := cluster.Run(cfg, factory())
				if err != nil {
					b.Fatal(err)
				}
				jobs += res.GeneratedJobs
			}
			b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
