package cluster

import (
	"math"
	"reflect"
	"testing"

	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/sim"
)

// greedyPolicy always picks computer 0 unless it is masked, then the
// lowest-index up computer — a deliberately bad router that exercises
// rejection, shedding and breaker masking.
type greedyPolicy struct{ up []bool }

func (p *greedyPolicy) Name() string        { return "greedy" }
func (p *greedyPolicy) Init(*Context) error { return nil }
func (p *greedyPolicy) Select(*sim.Job) int {
	if p.up != nil {
		for i, u := range p.up {
			if u {
				return i
			}
		}
	}
	return 0
}
func (p *greedyPolicy) Departed(*sim.Job)      {}
func (p *greedyPolicy) UpSetChanged(up []bool) { p.up = append(p.up[:0], up...) }

// overloadBase is a small overloaded configuration: one unit-speed
// computer offered ρ = 1.5.
func overloadBase() Config {
	return Config{
		Speeds:      []float64{1},
		Utilization: 1.5,
		JobSize:     dist.Deterministic{Value: 1},
		Duration:    2000,
		Seed:        11,
	}
}

// TestOverloadAccounting checks the conservation law of the overload
// counters: after a drained run every admitted job either completed or
// was dropped for an accounted reason.
func TestOverloadAccounting(t *testing.T) {
	cfg := overloadBase()
	// A 4 s deadline under a cap-5 PS queue: a unit job sharing with four
	// others needs 5 s, so queued jobs can and do expire.
	cfg.Overload = &OverloadConfig{
		QueueCap:  5,
		Admission: RejectWhenFull,
		Deadline:  dist.Deterministic{Value: 4},
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Overload
	if s == nil {
		t.Fatal("Overload stats missing")
	}
	if s.Admitted != res.GeneratedJobs {
		t.Errorf("Admitted = %d, want all %d arrivals (no token bucket)", s.Admitted, res.GeneratedJobs)
	}
	if got := s.Throughput + s.Dropped(); got != s.Admitted {
		t.Errorf("Throughput %d + Dropped %d = %d, want Admitted %d",
			s.Throughput, s.Dropped(), got, s.Admitted)
	}
	if s.Goodput+s.LateCompletions != s.Throughput {
		t.Errorf("Goodput %d + Late %d != Throughput %d", s.Goodput, s.LateCompletions, s.Throughput)
	}
	// ρ=1.5 into a capped queue must reject and kill; goodput is bounded
	// by the computer's capacity (2000 s of unit-size work).
	if s.RejectedFull == 0 {
		t.Error("RejectedFull = 0, want rejections at ρ=1.5 with cap 5")
	}
	if s.KilledByDeadline == 0 {
		t.Error("KilledByDeadline = 0, want kills with a 30 s deadline at ρ=1.5")
	}
	if s.Goodput > 2100 {
		t.Errorf("Goodput %d exceeds the computer's capacity", s.Goodput)
	}
	if s.TimeP99 < s.TimeP50 || s.TimeP50 <= 0 {
		t.Errorf("percentiles inconsistent: p50=%v p99=%v", s.TimeP50, s.TimeP99)
	}
}

// TestOverloadDeadlineMark: marked (not killed) expiries complete late
// and stay out of goodput.
func TestOverloadDeadlineMark(t *testing.T) {
	cfg := overloadBase()
	cfg.Overload = &OverloadConfig{
		Deadline:       dist.Deterministic{Value: 10},
		DeadlineAction: DeadlineMark,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Overload
	if s.KilledByDeadline != 0 {
		t.Errorf("KilledByDeadline = %d under mark action", s.KilledByDeadline)
	}
	if s.LateCompletions == 0 {
		t.Error("LateCompletions = 0, want late jobs at ρ=1.5 with a 10 s deadline")
	}
	if s.Throughput != s.Admitted {
		t.Errorf("Throughput %d != Admitted %d: mark action must not drop jobs (drained run)",
			s.Throughput, s.Admitted)
	}
	if s.DeadlineMisses != s.LateCompletions {
		t.Errorf("DeadlineMisses %d != LateCompletions %d", s.DeadlineMisses, s.LateCompletions)
	}
}

// TestOverloadTokenBucket: an admission rate of half the offered load
// sheds roughly half the arrivals before dispatch.
func TestOverloadTokenBucket(t *testing.T) {
	cfg := overloadBase()
	cfg.Overload = &OverloadConfig{
		Admission:  TokenBucketAdmission,
		TokenRate:  0.75, // offered rate is 1.5 jobs/s
		TokenBurst: 1,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Overload
	if s.RejectedAdmission == 0 {
		t.Fatal("token bucket rejected nothing at twice its rate")
	}
	if s.Admitted+s.RejectedAdmission != res.GeneratedJobs {
		t.Errorf("Admitted %d + RejectedAdmission %d != Generated %d",
			s.Admitted, s.RejectedAdmission, res.GeneratedJobs)
	}
	// Long-run admitted rate is capped at TokenRate (plus the burst).
	if maxAdmit := int64(0.75*cfg.Duration) + 2; s.Admitted > maxAdmit {
		t.Errorf("Admitted %d exceeds token capacity %d", s.Admitted, maxAdmit)
	}
}

// TestOverloadTimeoutRetry: a timeout far below the attainable response
// time forces retries and, with the budget exhausted, drops.
func TestOverloadTimeoutRetry(t *testing.T) {
	cfg := overloadBase()
	cfg.Overload = &OverloadConfig{
		Timeout:     5,
		RetryBudget: 2,
		BackoffBase: 1,
		BackoffMax:  4,
	}
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Overload
	if s.Timeouts == 0 || s.Retries == 0 || s.DroppedRetryBudget == 0 {
		t.Errorf("timeouts=%d retries=%d dropped=%d, want all positive",
			s.Timeouts, s.Retries, s.DroppedRetryBudget)
	}
	if s.Throughput+s.Dropped() != s.Admitted {
		t.Errorf("conservation violated: %d + %d != %d", s.Throughput, s.Dropped(), s.Admitted)
	}
}

// TestOverloadBreakerMasks: a breaker on a hammered computer trips,
// the fault-aware policy routes to the healthy one, and a half-open
// probe eventually closes the breaker again.
func TestOverloadBreakerMasks(t *testing.T) {
	// Poisson arrivals and a generous cap keep the fast computer's queue
	// from ever rejecting 5 times in a row, so only computer 0's breaker
	// cycles: hammer → trip → 200 s masked (jobs flow to computer 1) →
	// probe into the drained queue → close → hammer again.
	cfg := Config{
		Speeds:      []float64{1, 10},
		Utilization: 0.5,
		JobSize:     dist.Deterministic{Value: 1},
		ArrivalCV:   1,
		Duration:    4000,
		Seed:        3,
		Overload: &OverloadConfig{
			QueueCap:    10,
			Admission:   RejectWhenFull,
			RetryBudget: 1,
			BackoffBase: 0.5,
			BackoffMax:  2,
			Breaker:     &dispatch.BreakerConfig{Consecutive: 5, Cooldown: 200},
		},
	}
	p := &greedyPolicy{}
	res, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Overload
	if s.BreakerTrips == 0 {
		t.Fatal("breaker never tripped although computer 0 is hammered")
	}
	if s.BreakerProbes == 0 {
		t.Error("no half-open probe despite a 200 s cooldown in a 4000 s run")
	}
	// Once masked, the greedy policy must route to computer 1: it gets
	// the strict majority of the work.
	if res.JobFractions[1] < 0.5 {
		t.Errorf("fraction on healthy computer = %v, want majority after masking", res.JobFractions[1])
	}
	if s.Throughput+s.Dropped() != s.Admitted {
		t.Errorf("conservation violated: %d + %d != %d", s.Throughput, s.Dropped(), s.Admitted)
	}
}

// TestOverloadDeterminism: identical configs produce identical results,
// including every overload counter.
func TestOverloadDeterminism(t *testing.T) {
	mk := func() (*Result, error) {
		cfg := overloadBase()
		cfg.Overload = &OverloadConfig{
			QueueCap:      4,
			Admission:     RejectWhenFull,
			Deadline:      dist.NewExponential(40),
			Timeout:       25,
			RetryBudget:   2,
			BackoffBase:   1,
			BackoffMax:    8,
			BackoffJitter: 0.5,
		}
		cfg.SampleInterval = 250
		return Run(cfg, &fixedPolicy{})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical configs diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Overload.Retries == 0 {
		t.Error("scenario exercised no retries; weaken it deliberately, not accidentally")
	}
}

// TestInSystemSeriesGrowsUnprotected: without protection the number of
// jobs in the system at ρ = 1.5 grows without bound — later samples
// dominate earlier ones.
func TestInSystemSeriesGrowsUnprotected(t *testing.T) {
	cfg := overloadBase()
	cfg.Duration = 4000
	cfg.SampleInterval = 500
	drain := false
	cfg.Drain = &drain
	res, err := Run(cfg, &fixedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InSystemSeries) != 8 {
		t.Fatalf("samples = %d, want 8", len(res.InSystemSeries))
	}
	first, last := res.InSystemSeries[0], res.InSystemSeries[len(res.InSystemSeries)-1]
	// Expected backlog growth is (ρ−1)·t = 0.5 jobs/s; require clear
	// growth with slack for stochastic wiggle.
	if last < first+1000 {
		t.Errorf("in-system count barely grew: first=%d last=%d series=%v", first, last, res.InSystemSeries)
	}
	for i := 1; i < len(res.InSystemSeries); i++ {
		if res.InSystemSeries[i] < res.InSystemSeries[i-1]-50 {
			t.Errorf("sample %d dropped sharply: %v", i, res.InSystemSeries)
		}
	}
	if res.Overload != nil {
		t.Error("Overload stats populated without an overload config")
	}
}

// TestOverloadBitIdenticalWhenDisabled: an all-defaults OverloadConfig
// pointer must not perturb the run at all.
func TestOverloadBitIdenticalWhenDisabled(t *testing.T) {
	cfg := Config{
		Speeds:      []float64{1, 2},
		Utilization: 0.7,
		Duration:    10000,
		Seed:        5,
	}
	plain, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overload = &OverloadConfig{} // present but disabled
	withCfg, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withCfg) {
		t.Errorf("disabled overload config changed the run:\n%+v\nvs\n%+v", plain, withCfg)
	}
	if math.IsNaN(plain.MeanResponseTime) || plain.Jobs == 0 {
		t.Fatalf("degenerate baseline run: %+v", plain)
	}
}
