package cluster_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/probe"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// stressConfig combines every optional subsystem at once: an overloaded
// cluster with bounded queues, deadlines, timeout/retry, breakers, and
// failure injection — the worst case for event-stream consistency.
func stressConfig(seed uint64) cluster.Config {
	return cluster.Config{
		Speeds:              []float64{1, 1, 2},
		Utilization:         1.2,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            3000,
		WarmupFraction:      -1,
		Seed:                seed,
		Faults: &faults.Config{
			Uptime:   dist.NewExponential(400),
			Downtime: dist.NewExponential(50),
			Fate:     faults.RequeueToDispatcher,
		},
		Overload: &cluster.OverloadConfig{
			QueueCap:    6,
			Admission:   cluster.RejectWhenFull,
			Deadline:    dist.Deterministic{Value: 30},
			Timeout:     15,
			RetryBudget: 2,
		},
	}
}

// TestProbeEventInvariants runs the full stress configuration with the
// event stream on and verifies the lifecycle invariants end to end:
// every arriving job reaches exactly one terminal event, times are
// monotone per job, service starts follow dispatches, and nothing
// happens to a job after its terminal event.
func TestProbeEventInvariants(t *testing.T) {
	var buf bytes.Buffer
	p, err := probe.New(probe.Options{SampleDT: 100, Events: probe.NewJSONLWriter(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stressConfig(3)
	cfg.Probe = p
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := probe.VerifyJSONL(&buf, true)
	if err != nil {
		t.Fatalf("event stream violates lifecycle invariants: %v", err)
	}
	if st.Jobs != res.GeneratedJobs {
		t.Errorf("stream has %d jobs, run generated %d", st.Jobs, res.GeneratedJobs)
	}
	if st.Terminated != st.Jobs {
		t.Errorf("%d of %d jobs terminated", st.Terminated, st.Jobs)
	}
	counts := p.EventCountMap()
	if counts["departure"] != res.Jobs {
		t.Errorf("departure events %d, run counted %d completions", counts["departure"], res.Jobs)
	}
	if counts["fail"] != res.Failures || counts["repair"] != res.Repairs {
		t.Errorf("fail/repair events %d/%d, run counted %d/%d",
			counts["fail"], counts["repair"], res.Failures, res.Repairs)
	}
	if counts["timeout"] != res.Overload.Timeouts || counts["retry"] != res.Overload.Retries {
		t.Errorf("timeout/retry events %d/%d, counters %d/%d",
			counts["timeout"], counts["retry"], res.Overload.Timeouts, res.Overload.Retries)
	}
	// Terminal conservation: departures + kills + drops = all jobs.
	if got := counts["departure"] + counts["kill"] + counts["drop"]; got != res.GeneratedJobs {
		t.Errorf("terminal events %d, want %d", got, res.GeneratedJobs)
	}
}

// TestOnFinalCoversEveryFate runs the stress configuration and checks
// that the terminal-outcome hook fires exactly once per generated job and
// that its per-outcome totals reconcile with the run's counters.
func TestOnFinalCoversEveryFate(t *testing.T) {
	byOutcome := map[cluster.Outcome]int64{}
	seen := map[int64]bool{}
	cfg := stressConfig(5)
	cfg.OnFinal = func(j *sim.Job, o cluster.Outcome) {
		if seen[j.ID] {
			t.Fatalf("job %d finalized twice", j.ID)
		}
		seen[j.ID] = true
		byOutcome[o]++
	}
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range byOutcome {
		total += c
	}
	if total != res.GeneratedJobs {
		t.Errorf("OnFinal fired %d times for %d generated jobs (%v)", total, res.GeneratedJobs, byOutcome)
	}
	completed := byOutcome[cluster.OutcomeCompleted] + byOutcome[cluster.OutcomeLate]
	if completed != res.Jobs {
		t.Errorf("OnFinal saw %d completions, run counted %d", completed, res.Jobs)
	}
	if byOutcome[cluster.OutcomeKilledDeadline] != res.Overload.KilledByDeadline {
		t.Errorf("OnFinal saw %d deadline kills, counter says %d",
			byOutcome[cluster.OutcomeKilledDeadline], res.Overload.KilledByDeadline)
	}
	if byOutcome[cluster.OutcomeLate] != res.Overload.LateCompletions {
		t.Errorf("OnFinal saw %d late completions, counter says %d",
			byOutcome[cluster.OutcomeLate], res.Overload.LateCompletions)
	}
	if byOutcome[cluster.OutcomeShedOverflow] != res.Overload.ShedOverflow {
		t.Errorf("OnFinal saw %d sheds, counter says %d",
			byOutcome[cluster.OutcomeShedOverflow], res.Overload.ShedOverflow)
	}
	if byOutcome[cluster.OutcomeDroppedRetryBudget] != res.Overload.DroppedRetryBudget {
		t.Errorf("OnFinal saw %d retry drops, counter says %d",
			byOutcome[cluster.OutcomeDroppedRetryBudget], res.Overload.DroppedRetryBudget)
	}
	if byOutcome[cluster.OutcomeLostFailure] != res.JobsLost {
		t.Errorf("OnFinal saw %d failure losses, counter says %d",
			byOutcome[cluster.OutcomeLostFailure], res.JobsLost)
	}
}

// TestProbeOffBitIdentical verifies the inertness promise: a run with a
// disabled probe attached (and an OnFinal hook) is bit-identical to a run
// with no probe at all.
func TestProbeOffBitIdentical(t *testing.T) {
	cfg := stressConfig(7)
	plain, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	p, err := probe.New(probe.Options{}) // nothing enabled
	if err != nil {
		t.Fatal(err)
	}
	instrumented := stressConfig(7)
	instrumented.Probe = p
	instrumented.OnFinal = func(*sim.Job, cluster.Outcome) {}
	withProbe, err := cluster.Run(instrumented, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withProbe) {
		t.Errorf("disabled probe changed the run:\n%+v\nvs\n%+v", plain, withProbe)
	}
}

// TestProbeMetricsSeries checks the metric side: time-weighted series
// close to sane values and the cadence sampler emits samples.
func TestProbeMetricsSeries(t *testing.T) {
	samples := queueSamples{}
	p, err := probe.New(probe.Options{SampleDT: 50, Events: samples})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{
		Speeds:              []float64{1, 2},
		Utilization:         0.7,
		JobSize:             dist.NewExponential(1.0),
		ExponentialArrivals: true,
		Duration:            5000,
		WarmupFraction:      -1,
		Seed:                2,
		Probe:               p,
	}
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Registry()
	for i := 0; i < 2; i++ {
		is := string(rune('0' + i))
		q := reg.Series("queue_len." + is)
		if q.Mean() < 0 || math.IsNaN(q.Mean()) {
			t.Errorf("queue_len.%d mean = %v", i, q.Mean())
		}
		if samples[i] == 0 {
			t.Errorf("queue_len.%d has no cadence samples", i)
		}
		if up := reg.Series("up." + is).Mean(); up != 1 {
			t.Errorf("up.%d mean = %v, want 1 (no faults)", i, up)
		}
	}
	// The in-system series time-average should roughly match Little's law
	// sanity (positive, finite) and end at zero after the drain.
	is := reg.Series("in_system")
	if is.Mean() <= 0 || math.IsInf(is.Mean(), 0) {
		t.Errorf("in_system mean = %v", is.Mean())
	}
	if is.Value() != 0 {
		t.Errorf("in_system ends at %v, want 0 after drain", is.Value())
	}
	// Substream gap counts sum to the number of first dispatches.
	var gaps int64
	for i := 0; i < 2; i++ {
		_, g := p.InterarrivalCV(i)
		gaps += g
	}
	// Each computer's first dispatch contributes no gap.
	if gaps != res.GeneratedJobs-2 {
		t.Errorf("interarrival gaps %d, want %d", gaps, res.GeneratedJobs-2)
	}
}

// queueSamples counts each computer's queue-length cadence samples.
type queueSamples map[int]int

func (s queueSamples) Write(e *probe.Event) error {
	if e.Kind == probe.EvSample && e.Cause == "queue_len" {
		s[e.Target]++
	}
	return nil
}

func (queueSamples) Flush() error { return nil }

// TestInterarrivalCVOrdering reproduces the §3 burstiness argument with
// the probe's substream statistics: round-robin splitting (ORR) smooths
// each computer's arrival substream, while probabilistic splitting (ORAN)
// preserves the burstiness — so per-computer interarrival CV must be
// lower under ORR than under ORAN.
func TestInterarrivalCVOrdering(t *testing.T) {
	cv := func(mk func() cluster.Policy) float64 {
		p, err := probe.New(probe.Options{Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.Config{
			Speeds:      []float64{1, 1, 2, 10},
			Utilization: 0.6,
			Duration:    1e5,
			Seed:        7,
			Probe:       p,
		}
		if _, err := cluster.Run(cfg, mk()); err != nil {
			t.Fatal(err)
		}
		// Weight each computer's CV by its gap count.
		var sum, n float64
		for i := 0; i < len(cfg.Speeds); i++ {
			c, g := p.InterarrivalCV(i)
			if g > 1 {
				sum += c * float64(g)
				n += float64(g)
			}
		}
		return sum / n
	}
	orr := cv(func() cluster.Policy { return sched.ORR() })
	oran := cv(func() cluster.Policy { return sched.ORAN() })
	if !(orr < oran) {
		t.Errorf("interarrival CV: ORR %v not below ORAN %v", orr, oran)
	}
}
