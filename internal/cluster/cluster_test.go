package cluster

import (
	"math"
	"sort"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/queueing"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// fixedPolicy sends every job to one computer.
type fixedPolicy struct{ target int }

func (p *fixedPolicy) Name() string               { return "fixed" }
func (p *fixedPolicy) Init(*Context) error        { return nil }
func (p *fixedPolicy) Select(*sim.Job) int        { return p.target }
func (p *fixedPolicy) Departed(*sim.Job)          {}
func (p *fixedPolicy) Fractions() []float64       { return []float64{1} }
func (p *fixedPolicy) targetFractions() []float64 { return []float64{1} }

// splitPolicy alternates between computers 0 and 1.
type splitPolicy struct{ next int }

func (p *splitPolicy) Name() string        { return "split" }
func (p *splitPolicy) Init(*Context) error { return nil }
func (p *splitPolicy) Select(*sim.Job) int {
	p.next = 1 - p.next
	return p.next
}
func (p *splitPolicy) Departed(*sim.Job)    {}
func (p *splitPolicy) Fractions() []float64 { return []float64{0.5, 0.5} }

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Speeds: nil, Utilization: 0.5},
		{Speeds: []float64{0}, Utilization: 0.5},
		{Speeds: []float64{1}, Utilization: math.Inf(1)},
		{Speeds: []float64{1}, Utilization: -0.1},
		{Speeds: []float64{1}, Utilization: 0.5, SampleInterval: -1},
		{Speeds: []float64{1}, Utilization: 0.5,
			Overload: &OverloadConfig{QueueCap: -1}},
		{Speeds: []float64{1}, Utilization: 0.5,
			Overload: &OverloadConfig{Admission: RejectWhenFull}},
		{Speeds: []float64{1}, Utilization: 0.5,
			Overload: &OverloadConfig{Admission: TokenBucketAdmission}},
		{Speeds: []float64{1}, Utilization: 0.5, ArrivalCV: 0.5},
		{Speeds: []float64{1}, Utilization: 0.5, Duration: -1},
		{Speeds: []float64{1}, Utilization: 0.5, WarmupFraction: 1.5},
		{Speeds: []float64{1}, Utilization: 0.5, Discipline: RR},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, &fixedPolicy{}); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLambdaMu(t *testing.T) {
	cfg := Config{Speeds: []float64{1, 3}, Utilization: 0.5}
	// Defaults: the exact Bounded Pareto mean is 76.814... (the paper
	// rounds it to 76.8); μ = 1/mean, λ = 0.5·4/mean.
	mean := dist.PaperJobSize().Mean()
	if math.Abs(mean-76.8) > 0.05 {
		t.Fatalf("paper job size mean = %v, want ~76.8", mean)
	}
	if got, want := cfg.Lambda(), 0.5*4/mean; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Lambda = %v, want %v", got, want)
	}
}

func TestSingleServerMatchesTheory(t *testing.T) {
	// One speed-1 computer at ρ=0.5 with exponential sizes and Poisson
	// arrivals: E[T] = E[S]/(1−ρ), E[R] = 1/(1−ρ) = 2.
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            400000,
		Seed:                42,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanResponseTime-2)/2 > 0.05 {
		t.Errorf("mean response time = %v, want ~2", res.MeanResponseTime)
	}
	if math.Abs(res.MeanResponseRatio-2)/2 > 0.05 {
		t.Errorf("mean response ratio = %v, want ~2", res.MeanResponseRatio)
	}
	if math.Abs(res.Utilizations[0]-0.5) > 0.02 {
		t.Errorf("utilization = %v, want ~0.5", res.Utilizations[0])
	}
	if res.JobFractions[0] != 1 {
		t.Errorf("job fraction = %v, want 1", res.JobFractions[0])
	}
}

func TestPaperDefaultWorkload(t *testing.T) {
	// With defaults (Bounded Pareto mean 76.8, H2 CV=3), a single PS
	// server's mean response ratio still matches 1/(1−ρ) only for Poisson
	// arrivals; with CV=3 it is larger. Check the Poisson case against
	// theory and the bursty case for ordering.
	// Heavy-tailed sizes make the ratio estimator converge slowly: rare
	// 21600-second jobs congest the server for hours, inflating thousands
	// of small jobs' ratios. Use a long run and a loose tolerance.
	poisson := Config{
		Speeds:              []float64{1},
		Utilization:         0.6,
		ExponentialArrivals: true,
		Duration:            2e7,
		Seed:                7,
	}
	resP, err := Run(poisson, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 - 0.6)
	if math.Abs(resP.MeanResponseRatio-want)/want > 0.12 {
		t.Errorf("Poisson mean response ratio = %v, want ~%v (M/G/1-PS insensitivity)",
			resP.MeanResponseRatio, want)
	}

	bursty := poisson
	bursty.ExponentialArrivals = false
	bursty.ArrivalCV = 3.0
	resB, err := Run(bursty, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if resB.MeanResponseRatio <= resP.MeanResponseRatio {
		t.Errorf("bursty arrivals (CV=3) ratio %v not above Poisson %v",
			resB.MeanResponseRatio, resP.MeanResponseRatio)
	}
}

func TestWarmupExcludesEarlyJobs(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            10000,
		WarmupFraction:      0.25,
		Seed:                1,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs >= res.GeneratedJobs {
		t.Errorf("observed %d jobs of %d generated; warm-up not excluded", res.Jobs, res.GeneratedJobs)
	}
	// Roughly a quarter of arrivals land in the warm-up window.
	frac := float64(res.GeneratedJobs-res.Jobs) / float64(res.GeneratedJobs)
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("warm-up fraction of jobs = %v, want ~0.25", frac)
	}
}

func TestSplitFractions(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1, 1},
		Utilization:         0.4,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            50000,
		Seed:                5,
	}
	res, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(res.JobFractions[i]-0.5) > 0.01 {
			t.Errorf("fraction[%d] = %v, want ~0.5", i, res.JobFractions[i])
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	cfg := Config{
		Speeds:      []float64{1, 2},
		Utilization: 0.5,
		Duration:    20000,
		Seed:        99,
	}
	a, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponseTime != b.MeanResponseTime || a.Jobs != b.Jobs {
		t.Error("identical seeds produced different results")
	}
	cfg.Seed = 100
	c, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanResponseTime == c.MeanResponseTime {
		t.Error("different seeds produced identical mean response time")
	}
}

func TestDrainCompletesAllJobs(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            5000,
		WarmupFraction:      -1, // no warm-up: count everything
		Seed:                3,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != res.GeneratedJobs {
		t.Errorf("drained run observed %d of %d jobs", res.Jobs, res.GeneratedJobs)
	}
	if res.SimulatedTime < cfg.Duration {
		t.Errorf("simulated time %v below duration", res.SimulatedTime)
	}
}

func TestNoDrainDiscardsInFlight(t *testing.T) {
	noDrain := false
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.9,
		JobSize:             dist.NewExponential(10.0),
		ExponentialArrivals: true,
		Duration:            5000,
		WarmupFraction:      -1,
		Seed:                3,
		Drain:               &noDrain,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs >= res.GeneratedJobs {
		t.Errorf("non-drained run at high load observed %d of %d jobs; expected in-flight jobs dropped",
			res.Jobs, res.GeneratedJobs)
	}
}

func TestRunReplications(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1, 1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            20000,
		Seed:                1000,
	}
	rr, err := RunReplications(cfg, func() Policy { return &splitPolicy{} }, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rr.MeanResponseRatio.N != 5 {
		t.Errorf("aggregated %d reps, want 5", rr.MeanResponseRatio.N)
	}
	if rr.MeanResponseRatio.CI95 <= 0 {
		t.Error("CI95 should be positive with 5 independent runs")
	}
	if len(rr.Runs) != 5 {
		t.Errorf("stored %d runs", len(rr.Runs))
	}
	// Replication seeds must differ: run results should not be identical.
	same := true
	for _, run := range rr.Runs[1:] {
		if run.MeanResponseTime != rr.Runs[0].MeanResponseTime {
			same = false
		}
	}
	if same {
		t.Error("replications produced identical results — seeds not varied")
	}
}

func TestRunReplicationsValidation(t *testing.T) {
	if _, err := RunReplications(Config{Speeds: []float64{1}, Utilization: 0.5},
		func() Policy { return &fixedPolicy{} }, 0); err == nil {
		t.Error("0 reps accepted")
	}
}

func TestAggregateChecksShape(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Error("empty aggregate accepted")
	}
	a := &Result{JobFractions: []float64{1}, Utilizations: []float64{0.5}}
	b := &Result{JobFractions: []float64{0.5, 0.5}, Utilizations: []float64{0.5, 0.5}}
	if _, err := Aggregate([]*Result{a, b}); err == nil {
		t.Error("mismatched shapes accepted")
	}
}

func TestDisciplineString(t *testing.T) {
	if PS.String() != "PS" || RR.String() != "RR" || FCFS.String() != "FCFS" {
		t.Error("discipline names wrong")
	}
}

func TestRRDisciplineRuns(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            20000,
		Discipline:          RR,
		Quantum:             0.02,
		Seed:                17,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Small-quantum RR ≈ PS: E[R] = 1/(1−ρ) = 2.
	if math.Abs(res.MeanResponseRatio-2)/2 > 0.1 {
		t.Errorf("RR mean response ratio = %v, want ~2", res.MeanResponseRatio)
	}
}

func TestFCFSDisciplineRuns(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            50000,
		Discipline:          FCFS,
		Seed:                19,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// M/M/1 FCFS: E[T] = 1/(μ−λ) = 2 with μ=1, λ=0.5.
	if math.Abs(res.MeanResponseTime-2)/2 > 0.1 {
		t.Errorf("FCFS mean response time = %v, want ~2", res.MeanResponseTime)
	}
}

func TestRatioPercentiles(t *testing.T) {
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            100000,
		Seed:                12,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// Percentiles must be ordered and bracket the mean sensibly.
	if !(res.RatioP50 > 0 && res.RatioP50 <= res.RatioP95 && res.RatioP95 <= res.RatioP99) {
		t.Errorf("percentiles not ordered: p50=%v p95=%v p99=%v",
			res.RatioP50, res.RatioP95, res.RatioP99)
	}
	// For M/M/1-PS at rho=0.5 the ratio distribution has mean 2 and a
	// long right tail: median below mean, p99 well above.
	if res.RatioP50 >= res.MeanResponseRatio {
		t.Errorf("p50 %v not below mean %v (right-skewed dist expected)",
			res.RatioP50, res.MeanResponseRatio)
	}
	if res.RatioP99 < 2*res.MeanResponseRatio {
		t.Errorf("p99 %v suspiciously close to mean %v", res.RatioP99, res.MeanResponseRatio)
	}
}

func TestMSERAgreesWithPaperWarmup(t *testing.T) {
	// Data-driven check of the paper's quarter-run warm-up: collect
	// per-job response ratios in completion order from a cold start and
	// let MSER-5 pick the truncation. For this system the transient is
	// short, so MSER should truncate well under a quarter of the jobs —
	// i.e. the paper's choice is (conservatively) safe.
	var ratios []float64
	cfg := Config{
		Speeds:              []float64{1, 1},
		Utilization:         0.7,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            50000,
		WarmupFraction:      -1,
		Seed:                77,
		OnFinal: func(j *sim.Job, o Outcome) {
			if o.Completed() {
				ratios = append(ratios, j.ResponseRatio())
			}
		},
	}
	if _, err := Run(cfg, &splitPolicy{}); err != nil {
		t.Fatal(err)
	}
	d, err := stats.MSERBatch(ratios, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d > len(ratios)/4 {
		t.Errorf("MSER-5 truncates %d of %d jobs — more than the paper's quarter", d, len(ratios))
	}
}

func TestResponseTimeDistributionMatchesMM1(t *testing.T) {
	// Distribution-level validation: the response time of an M/M/1 FCFS
	// queue is exponential with rate μ−λ, so the simulated quantiles must
	// match −ln(1−q)/(μ−λ). This checks the whole chain (arrivals, FCFS
	// server, clock) beyond the mean.
	var times []float64
	cfg := Config{
		Speeds:              []float64{1},
		Utilization:         0.5,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            400000,
		Discipline:          FCFS,
		Seed:                31,
		OnFinal: func(j *sim.Job, o Outcome) {
			if o.Completed() {
				times = append(times, j.ResponseTime())
			}
		},
	}
	if _, err := Run(cfg, &fixedPolicy{}); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(times)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		want := queueing.MM1ResponseTimeQuantile(0.5, 1.0, q)
		got := times[int(q*float64(len(times)-1))]
		if math.Abs(got-want)/want > 0.06 {
			t.Errorf("q%.0f: simulated %v, theory %v", 100*q, got, want)
		}
	}
	// And a KS test against the full exponential CDF.
	d, crit, ok, err := stats.KSTest(times, dist.NewExponential(2.0).CDF, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("response times failed KS vs Exp(mean 2): D=%v crit=%v", d, crit)
	}
}
