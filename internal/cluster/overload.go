package cluster

import (
	"fmt"
	"math"

	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// This file is the overload-protection layer: everything that keeps the
// simulator well-defined and measurable at and beyond ρ = 1, where the
// paper's M/M/1-PS model (and an unprotected simulation) diverges.
// Four mechanisms compose, each independently optional:
//
//   - Admission control at the dispatcher: a token bucket caps the
//     admitted rate, or reject-when-full refuses dispatches to a
//     computer whose bounded queue is at capacity.
//   - Bounded per-computer queues (QueueCap) that shed the newest or
//     oldest job on overflow.
//   - Job deadlines: each admitted job draws a relative deadline; on
//     expiry it is killed wherever it is (queue reneging / mid-service
//     kill) or merely marked late. Goodput (completions within
//     deadline) is accounted separately from raw throughput.
//   - Dispatcher timeout with bounded retries: a job not finished
//     Timeout seconds after dispatch is pulled back and re-dispatched
//     after exponential backoff with deterministic jitter; per-computer
//     circuit breakers trip on repeated rejections/timeouts, mask the
//     computer via the dispatcher's up-set, and half-open probe with a
//     single job before closing.
//
// Everything is deterministic under the seeded RNG: the only random
// stream consumed is the named deadline substream (derived only when a
// deadline distribution is configured), and backoff jitter is a hash of
// (job ID, attempt). A run with every knob at its default is
// bit-identical to one without this file.

// AdmissionPolicy selects the dispatcher's admission-control mode.
type AdmissionPolicy int

const (
	// AdmitAll performs no admission control (the paper's model).
	AdmitAll AdmissionPolicy = iota
	// RejectWhenFull refuses a dispatch when the selected computer's
	// bounded queue is at capacity; the job retries or is dropped.
	// Requires QueueCap.
	RejectWhenFull
	// TokenBucketAdmission drops arrivals that find the token bucket
	// (TokenRate, TokenBurst) empty before they are dispatched at all.
	TokenBucketAdmission
)

// String returns the policy mnemonic accepted by the CLIs.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitAll:
		return "none"
	case RejectWhenFull:
		return "reject-when-full"
	case TokenBucketAdmission:
		return "token-bucket"
	default:
		return fmt.Sprintf("AdmissionPolicy(%d)", int(p))
	}
}

// DeadlineAction selects what deadline expiry does to a job.
type DeadlineAction int

const (
	// DeadlineKill removes the job from the system at expiry — queue
	// reneging, or a mid-service kill — and counts a deadline miss.
	DeadlineKill DeadlineAction = iota
	// DeadlineMark lets the job run to completion; completing late
	// counts as a deadline miss and is excluded from goodput.
	DeadlineMark
)

// String returns the action mnemonic.
func (a DeadlineAction) String() string {
	switch a {
	case DeadlineKill:
		return "kill"
	case DeadlineMark:
		return "mark"
	default:
		return fmt.Sprintf("DeadlineAction(%d)", int(a))
	}
}

// OverloadConfig parameterizes the overload-protection layer. The zero
// value (and a nil pointer) disables every mechanism.
type OverloadConfig struct {
	// QueueCap bounds the number of jobs present at each computer (in
	// service plus queued); 0 means unbounded (the paper's model).
	QueueCap int
	// Drop selects the overflow victim of a bounded queue (default
	// DropNewest). Overflow drops are terminal; use RejectWhenFull for
	// rejections that consume the retry budget instead.
	Drop sim.DropPolicy
	// Admission selects the admission-control mode (default AdmitAll).
	Admission AdmissionPolicy
	// TokenRate and TokenBurst parameterize TokenBucketAdmission:
	// admitted jobs per second and maximum burst.
	TokenRate, TokenBurst float64
	// Deadline, when non-nil, draws each admitted job's relative
	// deadline (seconds) from this distribution.
	Deadline dist.Distribution
	// DeadlineAction selects kill (reneging) or mark (late completion).
	DeadlineAction DeadlineAction
	// Timeout, when positive, bounds how long a dispatched job may sit
	// at a computer before the dispatcher pulls it back and retries.
	Timeout float64
	// RetryBudget bounds re-dispatches per job after timeouts and
	// rejections; a job exceeding it is dropped.
	RetryBudget int
	// BackoffBase and BackoffMax shape the exponential backoff before a
	// retry: attempt k waits min(BackoffBase·2^(k−1), BackoffMax)
	// seconds. Zero values default to 1 s and 60 s.
	BackoffBase, BackoffMax float64
	// BackoffJitter in [0, 1] spreads each backoff delay by a
	// deterministic ±BackoffJitter/2 relative jitter hashed from the job
	// ID and attempt number (no random stream is consumed).
	BackoffJitter float64
	// Breaker, when non-nil, gives every computer a circuit breaker
	// with this configuration.
	Breaker *dispatch.BreakerConfig
}

// Enabled reports whether any overload mechanism is active.
func (c *OverloadConfig) Enabled() bool {
	if c == nil {
		return false
	}
	return c.QueueCap > 0 || c.Admission != AdmitAll || c.Deadline != nil ||
		c.Timeout > 0 || c.Breaker != nil
}

// Validate reports configuration errors.
func (c *OverloadConfig) Validate() error {
	if c == nil {
		return nil
	}
	if c.QueueCap < 0 {
		return fmt.Errorf("cluster: queue cap %d negative", c.QueueCap)
	}
	if c.Drop != sim.DropNewest && c.Drop != sim.DropOldest {
		return fmt.Errorf("cluster: unknown drop policy %v", c.Drop)
	}
	switch c.Admission {
	case AdmitAll:
	case RejectWhenFull:
		if c.QueueCap <= 0 {
			return fmt.Errorf("cluster: reject-when-full admission needs a queue cap")
		}
	case TokenBucketAdmission:
		if !(c.TokenRate > 0) || math.IsInf(c.TokenRate, 0) {
			return fmt.Errorf("cluster: token-bucket admission needs a positive finite rate, got %v", c.TokenRate)
		}
		if !(c.TokenBurst >= 1) || math.IsInf(c.TokenBurst, 0) {
			return fmt.Errorf("cluster: token burst %v must be at least 1", c.TokenBurst)
		}
	default:
		return fmt.Errorf("cluster: unknown admission policy %v", c.Admission)
	}
	if c.DeadlineAction != DeadlineKill && c.DeadlineAction != DeadlineMark {
		return fmt.Errorf("cluster: unknown deadline action %v", c.DeadlineAction)
	}
	if c.Timeout < 0 || math.IsNaN(c.Timeout) || math.IsInf(c.Timeout, 0) {
		return fmt.Errorf("cluster: timeout %v must be >= 0 and finite", c.Timeout)
	}
	if c.RetryBudget < 0 {
		return fmt.Errorf("cluster: retry budget %d negative", c.RetryBudget)
	}
	if c.BackoffBase < 0 || math.IsNaN(c.BackoffBase) || math.IsInf(c.BackoffBase, 0) {
		return fmt.Errorf("cluster: backoff base %v invalid", c.BackoffBase)
	}
	if c.BackoffMax < 0 || math.IsNaN(c.BackoffMax) || math.IsInf(c.BackoffMax, 0) {
		return fmt.Errorf("cluster: backoff max %v invalid", c.BackoffMax)
	}
	if c.BackoffMax > 0 && c.BackoffMax < c.BackoffBase {
		return fmt.Errorf("cluster: backoff max %v below base %v", c.BackoffMax, c.BackoffBase)
	}
	if c.BackoffJitter < 0 || c.BackoffJitter > 1 || math.IsNaN(c.BackoffJitter) {
		return fmt.Errorf("cluster: backoff jitter %v outside [0,1]", c.BackoffJitter)
	}
	return c.Breaker.Validate()
}

// backoffBase returns the effective backoff base (default 1 s).
func (c *OverloadConfig) backoffBase() float64 {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 1
}

// backoffMax returns the effective backoff cap (default 60 s).
func (c *OverloadConfig) backoffMax() float64 {
	if c.BackoffMax > 0 {
		return c.BackoffMax
	}
	return 60
}

// OverloadStats are the overload-protection counters of one run. Job
// counters cover the whole run; the response-time percentiles cover
// post-warm-up admitted jobs that completed.
type OverloadStats struct {
	// Admitted counts jobs that passed admission control (all arrivals
	// minus RejectedAdmission).
	Admitted int64
	// RejectedAdmission counts arrivals dropped by the token bucket.
	RejectedAdmission int64
	// RejectedFull counts dispatch attempts refused because the target's
	// queue was at capacity (reject-when-full); one job may be counted
	// once per attempt.
	RejectedFull int64
	// RejectedBreaker counts dispatch attempts refused because the
	// selected computer's breaker was open (reachable only when the
	// dispatcher could not route around it).
	RejectedBreaker int64
	// ShedOverflow counts jobs shed by a bounded queue on overflow.
	ShedOverflow int64
	// Timeouts counts dispatcher timeouts (job pulled back for retry).
	Timeouts int64
	// Retries counts re-dispatches after a timeout or rejection.
	Retries int64
	// DroppedRetryBudget counts jobs dropped with their retry budget
	// exhausted.
	DroppedRetryBudget int64
	// DeadlineMisses counts jobs that expired (killed or completed
	// late); KilledByDeadline counts the killed subset and
	// LateCompletions the completed-late subset.
	DeadlineMisses, KilledByDeadline, LateCompletions int64
	// Throughput counts all completions; Goodput counts completions
	// within deadline (equal to Throughput when no deadline is set).
	Throughput, Goodput int64
	// BreakerTrips counts Closed→Open transitions across computers;
	// BreakerProbes counts half-open probe dispatches.
	BreakerTrips, BreakerProbes int64
	// TimeP50/P95/P99 are response-time percentile estimates (seconds)
	// over post-warm-up completed jobs, from a log-binned histogram.
	TimeP50, TimeP95, TimeP99 float64
	// TimeHist is the streaming response-time histogram those estimates
	// came from. Replications share one geometry, so callers can Merge
	// them for pooled tail percentiles (p50/p90/p99/p999) across reps
	// without anyone retaining raw samples. Mutating it invalidates the
	// TimeP* fields; treat it as read-or-merge-only.
	TimeHist *stats.Histogram
	// MaxOccupancy[i] is the high-water mark of jobs present at computer
	// i (in service plus queued); nil unless QueueCap bounded the
	// queues. By construction it can never exceed QueueCap — the chaos
	// harness asserts exactly that, so a future regression in the
	// bounded-server bookkeeping is caught rather than assumed away.
	MaxOccupancy []int
}

// Dropped returns the number of admitted jobs that never completed:
// overflow sheds, retry-budget drops and deadline kills.
func (s *OverloadStats) Dropped() int64 {
	return s.ShedOverflow + s.DroppedRetryBudget + s.KilledByDeadline
}

// AddCounters accumulates the event counters of o into s, for
// aggregating replications. The percentile fields are NOT additive and
// are left untouched; a nil o is a no-op.
func (s *OverloadStats) AddCounters(o *OverloadStats) {
	if o == nil {
		return
	}
	s.Admitted += o.Admitted
	s.RejectedAdmission += o.RejectedAdmission
	s.RejectedFull += o.RejectedFull
	s.RejectedBreaker += o.RejectedBreaker
	s.ShedOverflow += o.ShedOverflow
	s.Timeouts += o.Timeouts
	s.Retries += o.Retries
	s.DroppedRetryBudget += o.DroppedRetryBudget
	s.DeadlineMisses += o.DeadlineMisses
	s.KilledByDeadline += o.KilledByDeadline
	s.LateCompletions += o.LateCompletions
	s.Throughput += o.Throughput
	s.Goodput += o.Goodput
	s.BreakerTrips += o.BreakerTrips
	s.BreakerProbes += o.BreakerProbes
}

// overloadRun orchestrates the overload mechanisms inside one run, whose
// stages it calls through r.
type overloadRun struct {
	r   *run
	cfg *OverloadConfig

	tb  *dispatch.TokenBucket
	brk []*dispatch.Breaker
	// deadlines is the named random substream for deadline draws; derived
	// only when a deadline distribution is configured, so runs without
	// deadlines consume no extra randomness.
	deadlines *rng.Stream
	timeHist  *stats.Histogram
	stats     OverloadStats

	// Handlers of the per-job timers (typed engine events carrying the
	// job's handle), bound once in newOverloadRun. The arena's generation
	// check makes them safe: a timer outliving its job loads a dead
	// handle and does nothing.
	onDeadline, onTimeout, onRetry func(sim.Msg)
	// timeoutLane holds the dispatcher timeouts: each is armed at now +
	// Timeout, so they fall due in arming order (nil when Timeout is 0).
	timeoutLane *sim.Lane
}

func newOverloadRun(r *run, root *rng.Stream) (*overloadRun, error) {
	cfg := r.cfg.Overload
	ov := &overloadRun{
		r:   r,
		cfg: cfg,
		// Response times span from sub-second (a small job on the
		// fastest computer) to the timeout/deadline horizon.
		timeHist: stats.NewLogHistogram(1e-3, 1e7, 400),
	}
	ov.onDeadline = ov.deadlineExpire
	ov.onTimeout = ov.timeout
	ov.onRetry = ov.retry
	if cfg.Deadline != nil {
		ov.deadlines = root.Derive("overload.deadline")
	}
	if cfg.Timeout > 0 {
		ov.timeoutLane = r.en.NewLane()
	}
	if cfg.Admission == TokenBucketAdmission {
		tb, err := dispatch.NewTokenBucket(cfg.TokenRate, cfg.TokenBurst)
		if err != nil {
			return nil, err
		}
		ov.tb = tb
	}
	if cfg.Breaker != nil {
		ov.brk = make([]*dispatch.Breaker, r.n)
		for i := range ov.brk {
			ov.brk[i] = dispatch.NewBreaker(*cfg.Breaker)
		}
	}
	return ov, nil
}

// admitJob applies admission control and stamps the deadline; it reports
// whether the job enters the system.
func (ov *overloadRun) admitJob(j *sim.Job) bool {
	if ov.tb != nil && !ov.tb.Allow(j.Arrival) {
		ov.stats.RejectedAdmission++
		return false
	}
	ov.stats.Admitted++
	if ov.deadlines != nil {
		rel := ov.cfg.Deadline.Sample(ov.deadlines)
		if rel < 0 {
			rel = 0
		}
		j.Deadline = j.Arrival + rel
		if ov.cfg.DeadlineAction == DeadlineKill {
			// Jobs flushed from a crashed dispatcher's buffer are admitted
			// after their arrival; a deadline that lapsed while buffered
			// fires immediately rather than scheduling into the past.
			t := j.Deadline
			if now := ov.r.en.Now(); t < now {
				t = now
			}
			j.DeadlineEvent = ov.r.en.ScheduleMsg(t, ov.onDeadline, sim.Msg{Ref: ov.r.arena.Ref(j)})
		}
	}
	return true
}

// dispatch routes one job: probe-target override, policy selection,
// breaker gate, reject-when-full check, timeout arming, then arrival.
// first marks the scheduler's first dispatch decision for this job
// (counted in the job fractions); retries and
// fault-requeues pass false.
func (ov *overloadRun) dispatch(j *sim.Job, first bool) {
	r := ov.r
	if j.Killed {
		return // condemned while waiting for this retry
	}
	target := -1
	if ov.brk != nil {
		// A half-open breaker gets the next job as its single probe,
		// bypassing the policy: lowest index wins for determinism.
		for i, b := range ov.brk {
			if b.NeedsProbe() {
				target = i
				j.Probe = true
				j.ProbeTarget = i
				b.BeginProbe()
				ov.stats.BreakerProbes++
				break
			}
		}
	}
	if target < 0 {
		target = r.policy.Select(j)
		if target < 0 || target >= r.n {
			panic(fmt.Sprintf("cluster: policy %s selected invalid computer %d", r.policy.Name(), target))
		}
	}
	j.Target = target
	if first {
		r.firstDispatch(j, target, true)
	}
	if r.pb != nil {
		r.emitDispatch(j, "")
	}
	if !j.Probe && ov.brk != nil && !ov.brk[target].Allow() {
		// The policy could not route around an open breaker (e.g. the
		// whole up-set is masked): rejection without poisoning the
		// breaker's own failure history.
		ov.stats.RejectedBreaker++
		if r.pb != nil {
			r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvRejectBreaker, Job: j.ID, Target: target})
		}
		r.policy.Departed(j)
		ov.retryOrDrop(j)
		return
	}
	if ov.cfg.Admission == RejectWhenFull && r.servers[target].InService() >= ov.cfg.QueueCap {
		ov.stats.RejectedFull++
		if r.pb != nil {
			r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvRejectFull, Job: j.ID, Target: target})
		}
		ov.noteFailure(target)
		if j.Probe {
			ov.probeFailed(j)
		} else {
			r.policy.Departed(j)
		}
		ov.retryOrDrop(j)
		return
	}
	if ov.cfg.Timeout > 0 {
		if j.TimeoutEvent.Active() {
			// A network-layer resubmission can re-dispatch while the
			// previous dispatch's timer is still armed; replacing the
			// handle without cancelling would orphan a live timer that
			// nothing can cancel later.
			j.TimeoutEvent.Cancel()
		}
		j.TimeoutEvent = ov.timeoutLane.ScheduleMsg(r.en.Now()+ov.cfg.Timeout, ov.onTimeout, sim.Msg{Ref: r.arena.Ref(j)})
	}
	r.sendTo(target, j)
}

// retry re-dispatches a job whose backoff is over.
func (ov *overloadRun) retry(m sim.Msg) {
	if j, ok := m.Ref.Load(); ok {
		ov.dispatch(j, false)
	}
}

// timeout fires when a dispatched job overstays Timeout: pull it back
// and retry. A job the server no longer holds (it is held at a failed
// computer) is left to the fault machinery.
func (ov *overloadRun) timeout(m sim.Msg) {
	j, ok := m.Ref.Load()
	if !ok {
		return
	}
	r := ov.r
	j.TimeoutEvent = sim.Event{}
	if j.Killed || j.Finalized {
		// Already terminally accounted (deadline kill, network loss)
		// while the timer was in flight: there is nothing to retry.
		return
	}
	if !r.servers[j.Target].Remove(j) {
		return
	}
	if r.nf != nil {
		// The dispatcher verifiably pulled the job back: clear its
		// delivery state so the re-dispatch is not deduplicated away.
		r.nf.reclaim(j)
	}
	ov.stats.Timeouts++
	if r.pb != nil {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvTimeout, Job: j.ID, Target: j.Target})
		ov.noteQueue(j.Target)
		// Span: the job is back at the dispatcher for retry/backoff
		// (no-op unless the span layer is on).
		r.pb.SpanReturn(j, r.en.Now())
	}
	ov.noteFailure(j.Target)
	if j.Probe {
		ov.probeFailed(j)
	} else {
		r.policy.Departed(j)
	}
	ov.retryOrDrop(j)
}

// retryOrDrop re-dispatches a rejected or timed-out job after backoff,
// or drops it once the retry budget is spent.
func (ov *overloadRun) retryOrDrop(j *sim.Job) {
	r := ov.r
	if j.TimeoutEvent.Active() {
		j.TimeoutEvent.Cancel()
		j.TimeoutEvent = sim.Event{}
	}
	if j.Killed {
		return // already accounted as a deadline kill
	}
	if j.Attempts < ov.cfg.RetryBudget {
		j.Attempts++
		ov.stats.Retries++
		d := backoff(ov.cfg.backoffBase(), ov.cfg.backoffMax(), ov.cfg.BackoffJitter, uint64(j.ID), j.Attempts)
		if r.pb != nil {
			r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvRetry, Job: j.ID, Target: j.Target, Cause: "backoff", Attempt: j.Attempts, Value: d})
		}
		r.en.ScheduleMsg(r.en.Now()+d, ov.onRetry, sim.Msg{Ref: r.arena.Ref(j)})
		return
	}
	if j.NetAccepted {
		// The retry loop ran on the dispatcher's belief that the job
		// never arrived, but a computer holds it — the network lost the
		// acks, not the job. Dropping would strand (and free) a job in
		// service; stop retrying and let it complete normally instead.
		return
	}
	ov.stats.DroppedRetryBudget++
	r.finalize(j, OutcomeDroppedRetryBudget)
	ov.drop(j)
	r.release(j)
}

// deadlineExpire kills a job at its deadline, wherever it is.
func (ov *overloadRun) deadlineExpire(m sim.Msg) {
	j, ok := m.Ref.Load()
	if !ok {
		return
	}
	r := ov.r
	j.DeadlineEvent = sim.Event{}
	j.Killed = true
	ov.stats.DeadlineMisses++
	ov.stats.KilledByDeadline++
	if j.TimeoutEvent.Active() {
		j.TimeoutEvent.Cancel()
		j.TimeoutEvent = sim.Event{}
	}
	removed := r.servers[j.Target].Remove(j)
	if removed && !j.Probe {
		// Removed from its server: the scheduler reclaims the slot now.
		// If Remove failed the job is held at a failed computer or in
		// backoff; its charge was (or will be) released elsewhere.
		r.policy.Departed(j)
	}
	if removed {
		ov.noteQueue(j.Target)
	}
	if j.Probe {
		ov.probeFailed(j)
	}
	r.finalize(j, OutcomeKilledDeadline)
	r.addInSystem(-1)
	if removed {
		// Fully out of the system: no server holds it, no timer is armed
		// and no retry is pending (a job at a server is never in backoff),
		// so the Job can be recycled. When Remove failed the job is still
		// held somewhere (a failed computer, a backoff delay) and will be
		// recycled — or intentionally leaked — by whichever path ends it.
		r.release(j)
	}
}

// shed disposes of a bounded-queue overflow victim at computer i.
// Overflow drops are terminal (no retry): the computer itself refused
// the job after the dispatcher committed it.
func (ov *overloadRun) shed(i int, j *sim.Job) {
	if j.TimeoutEvent.Active() {
		j.TimeoutEvent.Cancel()
		j.TimeoutEvent = sim.Event{}
	}
	if j.Killed {
		// A condemned job resurfacing (resumed after a repair into a
		// full queue): already accounted as a deadline kill.
		if j.Probe {
			ov.probeFailed(j)
		} else {
			ov.r.policy.Departed(j)
		}
		ov.r.release(j)
		return
	}
	ov.stats.ShedOverflow++
	ov.noteQueue(i)
	ov.noteFailure(i)
	if j.Probe {
		ov.probeFailed(j)
	} else {
		ov.r.policy.Departed(j)
	}
	ov.r.finalize(j, OutcomeShedOverflow)
	ov.drop(j)
	ov.r.release(j)
}

// drop finishes a terminal drop: cancel the deadline timer and report
// the job leaving the system.
func (ov *overloadRun) drop(j *sim.Job) {
	if j.DeadlineEvent.Active() {
		j.DeadlineEvent.Cancel()
		j.DeadlineEvent = sim.Event{}
	}
	ov.r.addInSystem(-1)
}

// jobLost is called when the fault machinery discards a job, so pending
// overload timers do not fire on it.
func (ov *overloadRun) jobLost(j *sim.Job) {
	if j.TimeoutEvent.Active() {
		j.TimeoutEvent.Cancel()
		j.TimeoutEvent = sim.Event{}
	}
	if j.DeadlineEvent.Active() {
		j.DeadlineEvent.Cancel()
		j.DeadlineEvent = sim.Event{}
	}
	if j.Probe {
		ov.probeFailed(j)
	}
}

// preDepart intercepts every server completion. It returns false when
// the completion must not enter the run statistics (a condemned job that
// was unreachable at expiry).
func (ov *overloadRun) preDepart(j *sim.Job) bool {
	if j.TimeoutEvent.Active() {
		j.TimeoutEvent.Cancel()
		j.TimeoutEvent = sim.Event{}
	}
	if j.DeadlineEvent.Active() {
		j.DeadlineEvent.Cancel()
		j.DeadlineEvent = sim.Event{}
	}
	if j.Killed {
		if !j.Probe {
			ov.r.policy.Departed(j)
		}
		return false
	}
	switch {
	case j.Probe && j.Target != j.ProbeTarget:
		// The network delivered this probe to a different computer than
		// the breaker it was testing: its completion proves nothing
		// about the probed computer. Abandon the probe (re-open and
		// restart the cooldown) so a fresh one is dispatched later. No
		// policy.Departed: probes bypass policy selection entirely.
		ov.probeFailed(j)
	case j.Probe:
		ov.probeSucceeded(j.Target)
	default:
		ov.r.policy.Departed(j)
		if ov.brk != nil {
			ov.brk[j.Target].RecordSuccess()
		}
	}
	ov.stats.Throughput++
	if j.Deadline > 0 && j.Completion > j.Deadline {
		ov.stats.DeadlineMisses++
		ov.stats.LateCompletions++
	} else {
		ov.stats.Goodput++
	}
	if j.Arrival >= ov.r.warmup {
		ov.timeHist.Add(j.ResponseTime())
	}
	return true
}

// noteFailure records a rejection/shed/timeout at computer i in its
// breaker, masking the computer when it trips.
func (ov *overloadRun) noteFailure(i int) {
	if ov.brk == nil {
		return
	}
	if ov.brk[i].RecordFailure() {
		ov.stats.BreakerTrips++
		ov.noteBreaker(i)
		ov.scheduleHalfOpen(i)
		ov.r.notifyUp()
	}
}

// scheduleHalfOpen arms computer i's cooldown timer.
func (ov *overloadRun) scheduleHalfOpen(i int) {
	ov.r.en.ScheduleAfter(ov.cfg.Breaker.Cooldown, func() {
		ov.brk[i].ToHalfOpen()
		ov.noteBreaker(i)
	})
}

// probeSucceeded closes computer i's breaker and unmasks it.
func (ov *overloadRun) probeSucceeded(i int) {
	ov.brk[i].ProbeSucceeded()
	ov.noteBreaker(i)
	ov.r.notifyUp()
}

// probeFailed re-opens the probed breaker and restarts its cooldown.
// The verdict is charged to ProbeTarget, not Target: the network layer
// may have landed the job at a different computer, but the breaker that
// staked its half-open probe on this job is the one that must re-open.
func (ov *overloadRun) probeFailed(j *sim.Job) {
	if !j.Probe {
		return
	}
	j.Probe = false
	ov.brk[j.ProbeTarget].ProbeFailed()
	ov.noteBreaker(j.ProbeTarget)
	ov.scheduleHalfOpen(j.ProbeTarget)
}

// noteQueue mirrors computer i's post-removal occupancy into the probe.
func (ov *overloadRun) noteQueue(i int) {
	if r := ov.r; r.pb != nil {
		r.pb.SetQueueLen(r.en.Now(), i, r.servers[i].InService())
	}
}

// noteBreaker records computer i's breaker state in the probe: the
// time-weighted series and a breaker transition event.
func (ov *overloadRun) noteBreaker(i int) {
	pb := ov.r.pb
	if pb == nil {
		return
	}
	st := ov.brk[i].State()
	now := ov.r.en.Now()
	pb.SetBreaker(now, i, int(st))
	pb.Emit(probe.Event{T: now, Kind: probe.EvBreaker, Target: i, Cause: st.String(), Value: float64(st)})
}

// breakerClosed reports whether computer i's breaker (if any) is closed;
// true on a nil receiver so the availability masks compose without an
// overload layer.
func (ov *overloadRun) breakerClosed(i int) bool {
	return ov == nil || ov.brk == nil || ov.brk[i].State() == dispatch.BreakerClosed
}

// finish snapshots the counters and percentile estimates.
func (ov *overloadRun) finish() *OverloadStats {
	s := ov.stats
	if ov.timeHist.N() > 0 {
		q := ov.timeHist.Quantiles(0.50, 0.95, 0.99)
		s.TimeP50, s.TimeP95, s.TimeP99 = q[0], q[1], q[2]
	}
	// Hand the streaming histogram itself to the caller: replications
	// Merge these (identical geometry) for pooled tail percentiles
	// without any run retaining samples.
	s.TimeHist = ov.timeHist
	if ov.cfg.QueueCap > 0 {
		s.MaxOccupancy = make([]int, len(ov.r.servers))
		for i, sv := range ov.r.servers {
			if b, ok := sv.(*sim.Bounded); ok {
				s.MaxOccupancy[i] = b.MaxPresent()
			}
		}
	}
	return &s
}

// backoff returns retry attempt's delay min(base·2^(attempt−1), max)
// with deterministic jitter: a hash of (key, attempt) scales it by
// 1 + jitter·(u − 0.5), u in [0, 1), without consuming any random
// stream. The overload layer keys its retries on the job ID and the
// netfault layer its resubmissions on the ID's complement, which
// decorrelates the two layers' jitter.
func backoff(base, max, jitter float64, key uint64, attempt int) float64 {
	d := base * math.Pow(2, float64(attempt-1))
	if d > max {
		d = max
	}
	if jitter > 0 {
		u := float64(mixHash(key, uint64(attempt))>>11) / (1 << 53)
		d *= 1 + jitter*(u-0.5)
	}
	return d
}

// mixHash is a SplitMix64-style finalizer over two words, used for
// deterministic backoff jitter.
func mixHash(a, b uint64) uint64 {
	z := (a+0x9E3779B97F4A7C15)*0xBF58476D1CE4E5B9 ^ b
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}
