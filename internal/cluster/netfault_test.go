package cluster_test

import (
	"math"
	"reflect"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// netfaultTestConfig is a short netfault-injected run shared by the
// tests: no warm-up so every job is accounted, drained (the default) so
// every job reaches a terminal event.
func netfaultTestConfig(nc *netfault.Config) cluster.Config {
	return cluster.Config{
		Speeds:         []float64{1, 1, 2, 10},
		Utilization:    0.5,
		Duration:       3e4,
		WarmupFraction: -1,
		Seed:           11,
		Netfault:       nc,
	}
}

// outcomeLedger records every terminal outcome through OnFinal and
// checks exactly-once accounting per job ID.
type outcomeLedger struct {
	seen   map[int64]cluster.Outcome
	counts map[cluster.Outcome]int64
	total  int64
}

func attachLedger(t *testing.T, cfg *cluster.Config) *outcomeLedger {
	t.Helper()
	l := &outcomeLedger{seen: map[int64]cluster.Outcome{}, counts: map[cluster.Outcome]int64{}}
	cfg.OnFinal = func(j *sim.Job, o cluster.Outcome) {
		if prev, dup := l.seen[j.ID]; dup {
			t.Errorf("job %d finalized twice: %v then %v", j.ID, prev, o)
		}
		l.seen[j.ID] = o
		l.counts[o]++
		l.total++
	}
	return l
}

// TestNetfaultDisabledBitIdentical: a nil netfault config and a
// present-but-disabled one must produce byte-identical results — the
// netfault subsystem may not perturb clean runs in any way.
func TestNetfaultDisabledBitIdentical(t *testing.T) {
	a, err := cluster.Run(netfaultTestConfig(nil), sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.Run(netfaultTestConfig(&netfault.Config{}), sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("disabled netfault config changed the result:\n%+v\nvs\n%+v", a, b)
	}
}

// TestNetfaultLatencyOnlyCompletesEveryJob: pure dispatch latency (no
// loss, no dup, no crash) must not lose a single job, and must shift the
// mean response time by roughly the added transit delay.
func TestNetfaultLatencyOnlyCompletesEveryJob(t *testing.T) {
	plain, err := cluster.Run(netfaultTestConfig(nil), sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	const lat = 5.0
	cfg := netfaultTestConfig(&netfault.Config{
		Links: netfault.Links{Link: netfault.Link{Latency: dist.Deterministic{Value: lat}}},
	})
	led := attachLedger(t, &cfg)
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if led.total != res.GeneratedJobs {
		t.Errorf("finalized %d of %d generated jobs", led.total, res.GeneratedJobs)
	}
	if led.counts[cluster.OutcomeCompleted] != led.total {
		t.Errorf("outcome mix %v, want all completed", led.counts)
	}
	shift := res.MeanResponseTime - plain.MeanResponseTime
	if shift < 0.5*lat || shift > 3*lat {
		t.Errorf("latency %g shifted mean response time by %g (plain %g, injected %g)",
			lat, shift, plain.MeanResponseTime, res.MeanResponseTime)
	}
	nf := res.Netfault
	if nf == nil || nf.Sent == 0 || nf.LostCopies != 0 || nf.DupCopies != 0 {
		t.Errorf("unexpected netfault counters: %+v", nf)
	}
}

// TestNetfaultExactlyOnceUnderLossDupResubmit is the reliability-loop
// core test: with loss, duplication and latency on every link, acks and
// resubmission keep terminal accounting exactly-once — every generated
// job reaches exactly one terminal event, completions plus network
// losses cover everything, and the dedup counters show the loop worked.
func TestNetfaultExactlyOnceUnderLossDupResubmit(t *testing.T) {
	cfg := netfaultTestConfig(&netfault.Config{
		Links: netfault.Links{
			Link: netfault.Link{
				Latency: dist.Exponential{MeanVal: 2},
				Loss:    0.10,
				Dup:     0.10,
			},
		},
		Ack: netfault.Ack{Timeout: 30, Budget: 4, BackoffBase: 5, BackoffMax: 60, Jitter: 0.5},
	})
	led := attachLedger(t, &cfg)
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if led.total != res.GeneratedJobs {
		t.Fatalf("finalized %d of %d generated jobs", led.total, res.GeneratedJobs)
	}
	nf := res.Netfault
	if nf == nil {
		t.Fatal("no netfault stats")
	}
	if nf.LostCopies == 0 || nf.DupCopies == 0 || nf.Resubmits == 0 || nf.Acked == 0 {
		t.Errorf("fault machinery idle: %+v", nf)
	}
	if nf.DupDeliveries == 0 {
		t.Errorf("no duplicate deliveries were deduplicated: %+v", nf)
	}
	completed := led.counts[cluster.OutcomeCompleted] + led.counts[cluster.OutcomeLate]
	lost := led.counts[cluster.OutcomeLostNetwork]
	if completed+lost != led.total {
		t.Errorf("outcome mix %v does not cover %d jobs", led.counts, led.total)
	}
	if lost != nf.LostNetwork {
		t.Errorf("ledger lost %d, stats LostNetwork %d", lost, nf.LostNetwork)
	}
	// With budget 4 and 10% loss the survival rate must be high: a lost
	// job needs every transmission (1+4 tries, each with an independent
	// ~10% copy loss) to fail.
	if float64(lost) > 0.01*float64(led.total) {
		t.Errorf("%d of %d jobs lost to the network — resubmission is not recovering", lost, led.total)
	}
}

// TestNetfaultCrashRecoveryPolicies: the dispatcher crash/restart
// renewal must keep every job accounted under all three recovery
// policies, and each policy's machinery must actually engage.
func TestNetfaultCrashRecoveryPolicies(t *testing.T) {
	for _, tc := range []struct {
		name     string
		recovery netfault.Recovery
	}{
		{"cold", netfault.RecoverCold},
		{"checkpoint", netfault.RecoverCheckpoint},
		{"acks", netfault.RecoverAcks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := netfaultTestConfig(&netfault.Config{
				Links: netfault.Links{Link: netfault.Link{Latency: dist.Exponential{MeanVal: 1}, Loss: 0.02}},
				Dispatcher: &netfault.Dispatcher{
					Uptime:       dist.Exponential{MeanVal: 6e3},
					Downtime:     dist.Exponential{MeanVal: 150},
					Down:         netfault.DownBuffer,
					Recovery:     tc.recovery,
					CheckpointDT: 1000,
					RelearnT:     2000,
					ClientTO:     300,
				},
				Ack: netfault.Ack{Timeout: 25},
			})
			led := attachLedger(t, &cfg)
			res, err := cluster.Run(cfg, sched.ORR())
			if err != nil {
				t.Fatal(err)
			}
			if led.total != res.GeneratedJobs {
				t.Fatalf("finalized %d of %d generated jobs", led.total, res.GeneratedJobs)
			}
			nf := res.Netfault
			if nf.Crashes == 0 || nf.Restarts != nf.Crashes {
				t.Fatalf("crash renewal did not run: %+v", nf)
			}
			if nf.DownBuffered == 0 {
				t.Errorf("no arrivals were buffered across %d crashes", nf.Crashes)
			}
			switch tc.recovery {
			case netfault.RecoverCold:
				if nf.ColdResets != nf.Restarts {
					t.Errorf("ColdResets %d != Restarts %d", nf.ColdResets, nf.Restarts)
				}
			case netfault.RecoverCheckpoint:
				if nf.Checkpoints == 0 {
					t.Errorf("no checkpoints were taken")
				}
				if nf.PlanRestores != nf.Restarts {
					t.Errorf("PlanRestores %d != Restarts %d", nf.PlanRestores, nf.Restarts)
				}
			case netfault.RecoverAcks:
				if nf.ColdResets != 0 {
					t.Errorf("acks recovery cold-reset %d times", nf.ColdResets)
				}
			}
		})
	}
}

// TestNetfaultDownDropAndFailover: the drop policy must reject downtime
// arrivals with a dispatcher-drop outcome; the failover policy must
// route them through the backup with nothing silently vanishing.
func TestNetfaultDownDropAndFailover(t *testing.T) {
	base := func(down netfault.DownPolicy) cluster.Config {
		return netfaultTestConfig(&netfault.Config{
			Dispatcher: &netfault.Dispatcher{
				Uptime:   dist.Exponential{MeanVal: 4e3},
				Downtime: dist.Exponential{MeanVal: 300},
				Down:     down,
				Recovery: netfault.RecoverAcks,
				ClientTO: 300,
			},
			Ack: netfault.Ack{Timeout: 25},
		})
	}

	t.Run("drop", func(t *testing.T) {
		cfg := base(netfault.DownDrop)
		led := attachLedger(t, &cfg)
		res, err := cluster.Run(cfg, sched.ORR())
		if err != nil {
			t.Fatal(err)
		}
		if led.total != res.GeneratedJobs {
			t.Fatalf("finalized %d of %d generated jobs", led.total, res.GeneratedJobs)
		}
		nf := res.Netfault
		if nf.DownDropped == 0 {
			t.Fatalf("no downtime arrivals dropped across %d crashes: %+v", nf.Crashes, nf)
		}
		if led.counts[cluster.OutcomeDroppedDispatcher] != nf.DownDropped {
			t.Errorf("ledger dispatcher-drops %d, stats %d",
				led.counts[cluster.OutcomeDroppedDispatcher], nf.DownDropped)
		}
	})

	t.Run("failover", func(t *testing.T) {
		cfg := base(netfault.DownFailover)
		led := attachLedger(t, &cfg)
		res, err := cluster.Run(cfg, sched.ORR())
		if err != nil {
			t.Fatal(err)
		}
		if led.total != res.GeneratedJobs {
			t.Fatalf("finalized %d of %d generated jobs", led.total, res.GeneratedJobs)
		}
		nf := res.Netfault
		if nf.FailoverDispatches == 0 {
			t.Fatalf("failover never engaged across %d crashes: %+v", nf.Crashes, nf)
		}
		completed := led.counts[cluster.OutcomeCompleted] + led.counts[cluster.OutcomeLate]
		if completed != led.total {
			t.Errorf("outcome mix %v, want all completed (failover on a lossless network)", led.counts)
		}
	})
}

// TestNetfaultFullPartitionBreakerBufferEdge is the compound edge case:
// a full partition cutting every link, an overload layer with breakers
// and timeouts tripping on the unreachable computers, and a crashed
// dispatcher with a tiny buffer overflowing — simultaneously. Every job
// must still reach exactly one defined terminal outcome and the event
// loop must terminate.
func TestNetfaultFullPartitionBreakerBufferEdge(t *testing.T) {
	cfg := netfaultTestConfig(&netfault.Config{
		Links: netfault.Links{
			Link: netfault.Link{Latency: dist.Deterministic{Value: 1}},
			// One full partition spanning a stretch of the run.
			Partitions: []netfault.Partition{{From: 8e3, To: 1.4e4}},
		},
		Dispatcher: &netfault.Dispatcher{
			// Force downtime overlapping the partition window.
			Uptime:    dist.Deterministic{Value: 9e3},
			Downtime:  dist.Deterministic{Value: 2e3},
			Down:      netfault.DownBuffer,
			BufferCap: 10,
			Recovery:  netfault.RecoverCold,
			RelearnT:  1000,
			ClientTO:  200,
		},
		Ack: netfault.Ack{Timeout: 20, Budget: 3},
	})
	cfg.Utilization = 0.7
	cfg.Overload = &cluster.OverloadConfig{
		Timeout:     60,
		RetryBudget: 2,
		Breaker:     &dispatch.BreakerConfig{Consecutive: 3, Cooldown: 240},
	}
	led := attachLedger(t, &cfg)
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if led.total != res.GeneratedJobs {
		t.Fatalf("finalized %d of %d generated jobs — something vanished or double-counted",
			led.total, res.GeneratedJobs)
	}
	nf := res.Netfault
	if nf.PartitionBlocked == 0 {
		t.Errorf("the full partition never blocked a send: %+v", nf)
	}
	if nf.BufferOverflow == 0 {
		t.Errorf("the 10-slot buffer never overflowed during deterministic 2000 s outages: %+v", nf)
	}
	if math.IsNaN(res.MeanResponseTime) {
		t.Errorf("mean response time is NaN")
	}
	// Every admitted job must end in a defined outcome; the compound
	// scenario should exercise at least the network-loss and
	// dispatcher-drop terminals.
	if led.counts[cluster.OutcomeLostNetwork] == 0 {
		t.Errorf("partition + budget 3 should lose some jobs to the network, got %v", led.counts)
	}
	if led.counts[cluster.OutcomeDroppedDispatcher] == 0 {
		t.Errorf("buffer overflow should drop some arrivals, got %v", led.counts)
	}
}

// TestNetfaultStress drives every mechanism at once — loss, dup,
// latency, partitions, crash/restart with buffering, overload timeouts,
// breakers and deadlines — at high load for a long horizon, checking
// conservation and exactly-once accounting. `make stress` runs this at
// full scale; -short runs a reduced horizon.
func TestNetfaultStress(t *testing.T) {
	duration := 2e5
	if testing.Short() {
		duration = 2e4
	}
	cfg := cluster.Config{
		Speeds:         []float64{1, 1, 2, 10},
		Utilization:    0.9,
		Duration:       duration,
		WarmupFraction: -1,
		Seed:           1234,
		Overload: &cluster.OverloadConfig{
			Timeout:     120,
			RetryBudget: 3,
			Deadline:    dist.Exponential{MeanVal: 4000},
			// Mark, not kill: keeps the fate space focused on the
			// network outcomes while still drawing the deadline stream.
			DeadlineAction: cluster.DeadlineMark,
		},
		Netfault: &netfault.Config{
			Links: netfault.Links{
				Link: netfault.Link{
					Latency: dist.Exponential{MeanVal: 3},
					Loss:    0.05,
					Dup:     0.05,
				},
				PerLink: map[int]netfault.Link{
					3: {Latency: dist.Exponential{MeanVal: 1}, Loss: 0.15, Dup: 0.02},
				},
				Partitions: []netfault.Partition{
					{From: 0.2 * duration, To: 0.25 * duration, Links: []int{3}},
					{From: 0.6 * duration, To: 0.62 * duration},
				},
			},
			Dispatcher: &netfault.Dispatcher{
				Uptime:   dist.Exponential{MeanVal: duration / 10},
				Downtime: dist.Exponential{MeanVal: 200},
				Down:     netfault.DownBuffer,
				Recovery: netfault.RecoverCheckpoint,
				ClientTO: 400,
			},
			Ack: netfault.Ack{Timeout: 40, Budget: 5, Jitter: 0.5},
		},
	}
	led := attachLedger(t, &cfg)
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if led.total != res.GeneratedJobs {
		t.Fatalf("finalized %d of %d generated jobs", led.total, res.GeneratedJobs)
	}
	var sum int64
	for _, c := range led.counts {
		sum += c
	}
	if sum != led.total {
		t.Fatalf("outcome counts sum %d != total %d", sum, led.total)
	}
	nf := res.Netfault
	if nf.Sent == 0 || nf.Acked == 0 || nf.Resubmits == 0 || nf.DupDeliveries == 0 {
		t.Errorf("stress run left machinery idle: %+v", nf)
	}
	t.Logf("stress: %d jobs, outcomes %v, netfault %+v", led.total, led.counts, nf)
}

// maskRecorder is a fault-aware policy that routes round-robin,
// ignoring every mask, and records each availability mask it is handed.
type maskRecorder struct {
	en    *sim.Engine
	n     int
	next  int
	calls []maskCall
}

type maskCall struct {
	t  float64
	up []bool
}

func (p *maskRecorder) Name() string { return "mask-recorder" }
func (p *maskRecorder) Init(ctx *cluster.Context) error {
	p.en, p.n = ctx.Engine, len(ctx.Speeds)
	return nil
}
func (p *maskRecorder) Select(*sim.Job) int { p.next = (p.next + 1) % p.n; return p.next }
func (p *maskRecorder) Departed(*sim.Job)   {}
func (p *maskRecorder) UpSetChanged(up []bool) {
	p.calls = append(p.calls, maskCall{p.en.Now(), append([]bool(nil), up...)})
}

// TestPartitionEdgeMaskUsesDetectedFaults pins the FaultAware contract
// at a partition edge: the policy is handed the fault state as of the
// last detection, never the injector's live state. All three computers
// fail at t=1000 and the 200 s detection lag reveals it at 1200, so the
// partition of link 2 over [1100,1150) must mask link 2 alone — with or
// without an overload layer composing its breakers into the same mask.
func TestPartitionEdgeMaskUsesDetectedFaults(t *testing.T) {
	want := []maskCall{
		{1100, []bool{true, true, false}},
		{1150, []bool{true, true, true}},
		{1200, []bool{false, false, false}},
		{1200, []bool{false, false, false}},
		{1200, []bool{false, false, false}},
	}
	for _, overload := range []bool{false, true} {
		cfg := cluster.Config{
			Speeds:      []float64{1, 1, 1},
			Utilization: 0.3,
			Duration:    3000,
			Seed:        1,
			Faults: &faults.Config{
				Uptime:       dist.Deterministic{Value: 1000},
				Downtime:     dist.Deterministic{Value: 500},
				DetectionLag: 200,
			},
			Netfault: &netfault.Config{
				Links: netfault.Links{Partitions: []netfault.Partition{{From: 1100, To: 1150, Links: []int{2}}}},
				Ack:   netfault.Ack{Timeout: 30},
			},
		}
		if overload {
			cfg.Overload = &cluster.OverloadConfig{QueueCap: 1000}
		}
		p := &maskRecorder{}
		if _, err := cluster.Run(cfg, p); err != nil {
			t.Fatal(err)
		}
		var got []maskCall
		for _, c := range p.calls {
			if c.t < 1300 {
				got = append(got, c)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("overload layer %v: masks before t=1300 = %v, want %v", overload, got, want)
		}
	}
}
