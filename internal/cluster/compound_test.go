package cluster_test

import (
	"reflect"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// compoundConfig enables all four robustness layers at once: compute
// faults, overload protection, parameter drift and network faults. Each
// layer has its own regression suite; this configuration exercises their
// *composition* — requeues racing resubmissions, deadline kills landing
// on jobs in transit, breaker probes crossing dispatcher crashes — where
// the ownership hand-offs between the layers live.
func compoundConfig() cluster.Config {
	return cluster.Config{
		Speeds:         []float64{1, 1, 2, 10},
		Utilization:    0.6,
		Duration:       3e4,
		WarmupFraction: -1,
		Seed:           23,
		Faults: &faults.Config{
			Uptime:       dist.NewExponential(4000),
			Downtime:     dist.NewExponential(300),
			Fate:         faults.RequeueToDispatcher,
			MaxRetries:   3,
			DetectionLag: 30,
		},
		Overload: &cluster.OverloadConfig{
			QueueCap:       40,
			Admission:      cluster.RejectWhenFull,
			Deadline:       dist.NewExponential(1800),
			DeadlineAction: cluster.DeadlineKill,
			Timeout:        300,
			RetryBudget:    2,
			Breaker:        &dispatch.BreakerConfig{Consecutive: 5, Cooldown: 400},
		},
		Drift: &drift.Config{Arrival: drift.Step{At: 1.5e4, Factor: 1.3}},
		Netfault: &netfault.Config{
			Links: netfault.Links{
				Link: netfault.Link{
					Latency: dist.NewExponential(5),
					Loss:    0.05,
					Dup:     0.02,
				},
			},
			Dispatcher: &netfault.Dispatcher{
				Uptime:   dist.NewExponential(8000),
				Downtime: dist.NewExponential(150),
				Down:     netfault.DownBuffer,
				Recovery: netfault.RecoverAcks,
			},
			Ack: netfault.Ack{Timeout: 60, Budget: 4},
		},
	}
}

// lossyDropConfig is a lossy dispatch network whose dispatcher crashes
// and drops the arrivals of its downtime, recovers from acks and gives
// a job up after one resubmission.
func lossyDropConfig() cluster.Config {
	return cluster.Config{
		Speeds:         []float64{1, 1, 2, 10},
		Utilization:    0.6,
		Duration:       2e4,
		WarmupFraction: -1,
		Seed:           5,
		Netfault: &netfault.Config{
			Links: netfault.Links{
				Link: netfault.Link{Latency: dist.NewExponential(5), Loss: 0.2},
			},
			Dispatcher: &netfault.Dispatcher{
				Uptime:   dist.NewExponential(4000),
				Downtime: dist.NewExponential(200),
				Down:     netfault.DownDrop,
				Recovery: netfault.RecoverAcks,
			},
			Ack: netfault.Ack{Timeout: 30, Budget: 1},
		},
	}
}

// layersOnGolden is the exact result of a run with layers on: the
// layer-off goldens pin nothing the layers compute. Overload and netfault
// hold only the counters (what AddCounters copies); ctrl is nil when the
// run has no control plane.
type layersOnGolden struct {
	meanT, meanR, fairness float64
	jobs, generated        int64
	outcomes               map[cluster.Outcome]int64
	overload               cluster.OverloadStats
	netfault               cluster.NetfaultStats
	ctrl                   *ctrlplane.Stats
}

// TestCompoundAllLayersExactLedger pins three composed runs exactly:
// the four-layer compound run under ORR, jiq over four hash-sharded
// dispatchers with netfault, ctrl, spans and overload, and ORR on a
// lossy network whose crashing dispatcher drops arrivals. Every generated
// job must reach exactly one terminal event (the ledger errors on a
// double OnFinal), the drained run must leave nothing in the system, and
// the metrics, outcome counts and layer counters are golden-locked: any
// change to how the layers hand jobs to each other shows up here as a
// diff, not as a silent leak.
func TestCompoundAllLayersExactLedger(t *testing.T) {
	jiq := sched.JIQ()
	jiq.Dispatchers = 4
	jiq.ShardBy = dispatch.ShardHash
	cases := []struct {
		name   string
		cfg    cluster.Config
		policy cluster.Policy
		want   layersOnGolden
	}{
		// Seed 23. Several layers must fire for the composition to be
		// exercised at all, so the golden records a mix with
		// completions, deadline kills, retry drops and failure losses
		// all present.
		{"compound", compoundConfig(), sched.ORR(), layersOnGolden{
			meanT: 38.65777981658728, meanR: 1.2346028987199054, fairness: 1.966930342398414,
			jobs: 3503, generated: 3651,
			outcomes: map[cluster.Outcome]int64{
				cluster.OutcomeCompleted:          3503,
				cluster.OutcomeKilledDeadline:     100,
				cluster.OutcomeDroppedRetryBudget: 14,
				cluster.OutcomeLostFailure:        34,
			},
			overload: cluster.OverloadStats{Admitted: 3651, RejectedFull: 5, Timeouts: 115, Retries: 106,
				DroppedRetryBudget: 14, DeadlineMisses: 100, KilledByDeadline: 100, Throughput: 3503, Goodput: 3503,
				BreakerTrips: 2, BreakerProbes: 2},
			netfault: cluster.NetfaultStats{Sent: 4142, LostCopies: 224, DupCopies: 96, DupDeliveries: 87,
				StaleDeliveries: 37, Acked: 2825, AckLost: 297, AckTimeouts: 235, Resubmits: 235, Crashes: 2,
				Restarts: 2, DownTime: 280.02341058328057, DownBuffered: 12, MaxBufferLen: 8},
		}},
		{"composed", composedLayersConfig(2000, true), jiq, layersOnGolden{
			meanT: 27.818916510960694, meanR: 0.8932345137283677, fairness: 0.7645726832023814,
			jobs: 1526, generated: 2025,
			outcomes: map[cluster.Outcome]int64{
				cluster.OutcomeCompleted:      1963,
				cluster.OutcomeKilledDeadline: 62,
			},
			overload: cluster.OverloadStats{Admitted: 2025, Timeouts: 11, Retries: 11, DeadlineMisses: 62,
				KilledByDeadline: 62, Throughput: 1963, Goodput: 1963},
			netfault: cluster.NetfaultStats{Sent: 2124, LostCopies: 106, DupCopies: 101, DupDeliveries: 83,
				StaleDeliveries: 16, Acked: 1658, AckLost: 87, AckTimeouts: 104, Resubmits: 104},
			ctrl: &ctrlplane.Stats{TokensSent: 1765, TokensDup: 80, TokensLost: 386, TokensDelivered: 1459,
				TokensAccepted: 1327, TokensDeduped: 132, TokensSpent: 1296, TokensExpired: 11, TokensExtant: 20,
				Queries: 1682, QueriesLost: 571, QueriesLate: 218, StaleReads: 673, BlindReads: 116,
				Decisions: 841, DecisionTimeouts: 610, QueryWait: 11310.546198109034},
		}},
		// Seed 5. Crashes drop the arrivals that meet a down dispatcher
		// and a one-resubmit budget on a lossy link gives jobs up, so the
		// network layer's reject and lose stages are pinned. Acks
		// recovery keeps every dispatch tracked: nothing rides a client
		// rescue.
		{"lossy-drop", lossyDropConfig(), sched.ORR(), layersOnGolden{
			meanT: 47.27943597201248, meanR: 0.9456837064135531, fairness: 0.9443522317334978,
			jobs: 1588, generated: 1705,
			outcomes: map[cluster.Outcome]int64{
				cluster.OutcomeCompleted:         1588,
				cluster.OutcomeLostNetwork:       57,
				cluster.OutcomeDroppedDispatcher: 60,
			},
			netfault: cluster.NetfaultStats{Sent: 1993, LostCopies: 378, DupDeliveries: 25, StaleDeliveries: 2,
				Acked: 978, AckLost: 282, AckTimeouts: 444, Resubmits: 363, AbandonedTracking: 24, LostNetwork: 57,
				Crashes: 6, Restarts: 6, DownTime: 1083.6673715112775, DownDropped: 60},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			led := attachLedger(t, &cfg)
			res, err := cluster.Run(cfg, tc.policy)
			if err != nil {
				t.Fatal(err)
			}
			if res.FinalInSystem != 0 {
				t.Errorf("%d jobs still in the system after the drain", res.FinalInSystem)
			}
			var sum int64
			for o, n := range res.Outcomes {
				sum += n
				if oc := cluster.Outcome(o); n != tc.want.outcomes[oc] {
					t.Errorf("outcome %v: got %d, want %d", oc, n, tc.want.outcomes[oc])
				}
			}
			if sum != res.GeneratedJobs {
				t.Errorf("outcome counts sum to %d, want %d", sum, res.GeneratedJobs)
			}
			// OnFinal sees every job only in a run without warm-up.
			if cfg.WarmupFraction < 0 {
				if led.total != res.GeneratedJobs {
					t.Errorf("OnFinal fired for %d of %d generated jobs", led.total, res.GeneratedJobs)
				}
				for o, n := range res.Outcomes {
					if oc := cluster.Outcome(o); led.counts[oc] != n {
						t.Errorf("outcome %v: ledger saw %d, result counted %d", oc, led.counts[oc], n)
					}
				}
			}

			w := tc.want
			if res.MeanResponseTime != w.meanT || res.MeanResponseRatio != w.meanR || res.Fairness != w.fairness {
				t.Errorf("T̄, R̄, fairness = %v, %v, %v; want %v, %v, %v",
					res.MeanResponseTime, res.MeanResponseRatio, res.Fairness, w.meanT, w.meanR, w.fairness)
			}
			if res.Jobs != w.jobs || res.GeneratedJobs != w.generated {
				t.Errorf("jobs, generated = %d, %d; want %d, %d", res.Jobs, res.GeneratedJobs, w.jobs, w.generated)
			}
			var ov cluster.OverloadStats
			ov.AddCounters(res.Overload)
			if !reflect.DeepEqual(ov, w.overload) {
				t.Errorf("overload counters:\n got %+v\nwant %+v", ov, w.overload)
			}
			var nf cluster.NetfaultStats
			nf.AddCounters(res.Netfault)
			if !reflect.DeepEqual(nf, w.netfault) {
				t.Errorf("netfault counters:\n got %+v\nwant %+v", nf, w.netfault)
			}
			if !reflect.DeepEqual(res.Ctrl, w.ctrl) {
				t.Errorf("ctrl counters:\n got %+v\nwant %+v", res.Ctrl, w.ctrl)
			}
		})
	}
}

// TestCompoundDeterminism: the compound run is fully deterministic —
// identical configs reproduce the identical Result and the identical
// per-job outcome map, layer interleavings included.
func TestCompoundDeterminism(t *testing.T) {
	run := func() (*cluster.Result, map[int64]cluster.Outcome) {
		cfg := compoundConfig()
		led := attachLedger(t, &cfg)
		res, err := cluster.Run(cfg, sched.ORR())
		if err != nil {
			t.Fatal(err)
		}
		return res, led.seen
	}
	r1, seen1 := run()
	r2, seen2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("compound run not deterministic:\n%+v\nvs\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(seen1, seen2) {
		t.Error("per-job outcome maps differ between identical runs")
	}
}

// probeSpy tells breaker probes apart in the event stream: a probe
// dispatch bypasses the policy's Select, so a dispatch event for a job
// that Select did not just route is a probe. It records the probes that
// were dispatched again before their terminal event.
type probeSpy struct {
	*sched.Static
	selected int64
	probed   map[int64]bool
	rerouted map[int64]bool
}

func (s *probeSpy) Select(j *sim.Job) int {
	s.selected = j.ID
	return s.Static.Select(j)
}

func (s *probeSpy) Write(e *probe.Event) error {
	if e.Kind != probe.EvDispatch {
		return nil
	}
	if s.probed[e.Job] {
		s.rerouted[e.Job] = true
	}
	if e.Job != s.selected {
		s.probed[e.Job] = true
	}
	s.selected = 0
	return nil
}

func (s *probeSpy) Flush() error { return nil }

// TestCompoundProbeFollowsJob: a breaker probe that the fault machinery
// evicts mid-flight must resolve against the breaker it was testing
// (ProbeTarget), never against wherever the network landed the job. The
// compound config keeps breakers, faults and resubmission all active;
// at this seed some probes are re-dispatched before their terminal
// event, and the run must complete with a consistent ledger. The chaos
// harness (internal/chaos) found the original misattribution; this is
// its pinned regression.
func TestCompoundProbeFollowsJob(t *testing.T) {
	cfg := compoundConfig()
	// Tighten the breaker so probes are frequent, and slow the links so
	// probes are regularly in flight when failures strike.
	cfg.Overload.Breaker = &dispatch.BreakerConfig{Consecutive: 3, Cooldown: 150}
	cfg.Netfault.Link.Latency = dist.NewExponential(20)
	cfg.Seed = 31
	spy := &probeSpy{Static: sched.ORR(), probed: map[int64]bool{}, rerouted: map[int64]bool{}}
	pb, err := probe.New(probe.Options{Events: spy})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Probe = pb
	led := attachLedger(t, &cfg)
	var probes int64
	prev := cfg.OnFinal
	cfg.OnFinal = func(j *sim.Job, o cluster.Outcome) {
		if j.Probe && j.Target != j.ProbeTarget {
			t.Errorf("job %d finalized as probe for breaker %d while at computer %d",
				j.ID, j.ProbeTarget, j.Target)
		}
		if spy.rerouted[j.ID] {
			probes++
		}
		prev(j, o)
	}
	res, err := cluster.Run(cfg, spy)
	if err != nil {
		t.Fatal(err)
	}
	if led.total != res.GeneratedJobs {
		t.Errorf("OnFinal fired for %d of %d generated jobs", led.total, res.GeneratedJobs)
	}
	if res.FinalInSystem != 0 {
		t.Errorf("%d jobs still in the system after the drain", res.FinalInSystem)
	}
	if res.Overload == nil || res.Overload.BreakerProbes == 0 {
		t.Fatal("no breaker probes fired under this seed")
	}
	if probes == 0 {
		t.Errorf("none of %d breaker probes (%d dispatches seen as probes) was re-dispatched before its terminal event",
			res.Overload.BreakerProbes, len(spy.probed))
	}
}
