package cluster

import (
	"math"
	"sort"

	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// This file is the runtime for the network/control-plane fault layer
// configured by internal/netfault. It sits between the dispatcher (the
// policy plus the overload layer, when one is active) and the computers:
// every dispatch becomes a message over a per-link channel with latency,
// loss and duplication; the dispatcher itself crashes and restarts as a
// renewal process; and deterministic partition windows cut link subsets.
//
// The end-to-end reliability loop keeps terminal accounting exactly-once
// under all of that: every dispatch carries the job ID as an idempotency
// key, computers ack acceptance, the dispatcher resubmits after an ack
// timeout with truncated-exponential backoff, and duplicate or stale
// deliveries are deduplicated at the computer against Job.NetAccepted.
//
// Determinism: link i draws from the named substream "netfault.link"/i
// in transmission order, by the link model's draw rule (netfault.Link
// Copies, then Transit per copy: loss, and latency only for a copy that
// survived); an ack is one more Transit on the same link. The crash
// renewal process draws from "netfault.dispatcher". Both are derived
// only when the layer is enabled. Backoff jitter is a hash of (^job ID,
// resubmit count) — the complement decorrelates it from the overload
// layer's retry jitter — so no random stream is consumed. Where restart
// must walk the outstanding-dispatch map, it sorts the IDs first: map
// iteration order must never reach the event queue.
//
// Modeling approximations, chosen to keep the layers composable:
//
//   - The overload layer's retry timers keep running across dispatcher
//     crashes (client-library semantics: the timer lives with the job,
//     not the process). Its own pending actions are queued while the
//     dispatcher is down and drained at restart.
//   - DownFailover's stateless backup bypasses admission control and
//     deadline stamping: it is a last-resort router, not a dispatcher.
//   - RecoverAcks keeps the live dispatcher state as the reconstruction
//     result (the unacked window is re-covered by the still-armed ack
//     timers), modeling an instantaneous ack replay at restart.
//   - A job resubmitted because its acceptance ack was lost may briefly
//     carry a Target pointing at the re-selected computer while it still
//     sits at the original one; self-load-tracking policies (least-load)
//     see a one-job skew per such event. The shipped experiments use
//     static policies, where Departed is a no-op.

// NetfaultStats are the network-fault layer's counters for one run.
type NetfaultStats struct {
	// Sent counts dispatch transmissions: first dispatches, failure
	// requeues, overload retries, resubmissions and failover sends each
	// count one.
	Sent int64
	// LostCopies counts transit copies lost to link loss; DupCopies
	// counts duplicated transmissions (two copies in flight).
	LostCopies, DupCopies int64
	// PartitionBlocked counts sends refused because the link was cut.
	PartitionBlocked int64
	// DupDeliveries counts copies deduplicated at a computer while the
	// job was live; StaleDeliveries counts copies that landed after the
	// job had already left the system.
	DupDeliveries, StaleDeliveries int64
	// Acked counts acceptance acks received; AckLost counts acks lost in
	// transit or missed by a crashed dispatcher; AckTimeouts counts ack
	// deadlines that expired.
	Acked, AckLost, AckTimeouts int64
	// Resubmits counts network-layer retransmissions; ClientRescues
	// counts client-timeout recoveries of jobs the dispatcher forgot
	// (restart) or never tracked (failover).
	Resubmits, ClientRescues int64
	// AbandonedTracking counts jobs whose resubmission budget ran out
	// after a computer had already accepted them (every ack was lost):
	// the dispatcher stops tracking and the job completes normally.
	// LostNetwork counts jobs never accepted anywhere that exhausted the
	// budget (OutcomeLostNetwork).
	AbandonedTracking, LostNetwork int64
	// Crashes and Restarts count the dispatcher renewal process;
	// DownTime is the total observed downtime in seconds.
	Crashes, Restarts int64
	DownTime          float64
	// DownDropped, DownBuffered and BufferOverflow classify arrivals
	// during downtime; MaxBufferLen is the buffer's high-water mark.
	DownDropped, DownBuffered, BufferOverflow int64
	MaxBufferLen                              int
	// FailoverDispatches counts jobs routed by the stateless backup.
	FailoverDispatches int64
	// Checkpoints counts plan checkpoints taken; ColdResets counts cold
	// restarts; PlanRestores counts successful plan re-solves after a
	// restart (checkpoint restores and post-relearn re-solves).
	Checkpoints, ColdResets, PlanRestores int64
	// PerLinkLost[i] and PerLinkDup[i] count per-link lost or blocked
	// copies and duplications.
	PerLinkLost, PerLinkDup []int64
}

// AddCounters accumulates the counters of o into s, for aggregating
// replications. MaxBufferLen takes the maximum; a nil o is a no-op.
func (s *NetfaultStats) AddCounters(o *NetfaultStats) {
	if o == nil {
		return
	}
	s.Sent += o.Sent
	s.LostCopies += o.LostCopies
	s.DupCopies += o.DupCopies
	s.PartitionBlocked += o.PartitionBlocked
	s.DupDeliveries += o.DupDeliveries
	s.StaleDeliveries += o.StaleDeliveries
	s.Acked += o.Acked
	s.AckLost += o.AckLost
	s.AckTimeouts += o.AckTimeouts
	s.Resubmits += o.Resubmits
	s.ClientRescues += o.ClientRescues
	s.AbandonedTracking += o.AbandonedTracking
	s.LostNetwork += o.LostNetwork
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.DownTime += o.DownTime
	s.DownDropped += o.DownDropped
	s.DownBuffered += o.DownBuffered
	s.BufferOverflow += o.BufferOverflow
	if o.MaxBufferLen > s.MaxBufferLen {
		s.MaxBufferLen = o.MaxBufferLen
	}
	s.FailoverDispatches += o.FailoverDispatches
	s.Checkpoints += o.Checkpoints
	s.ColdResets += o.ColdResets
	s.PlanRestores += o.PlanRestores
}

// nfEntry is one outstanding (sent, not yet acked) dispatch.
type nfEntry struct {
	ref    sim.JobRef
	sentAt float64
	// epoch is the job's delivery epoch when the tracked dispatch was
	// sent; an ack stamped with an older epoch belongs to a superseded
	// delivery and must not resolve this entry.
	epoch int
}

// nfPending is a dispatcher- or client-side retransmit that fired while
// the dispatcher was down, parked until restart. epoch is the job's
// delivery epoch at parking time: a reclaim (overload timeout, failure
// requeue) while parked supersedes the retransmit.
type nfPending struct {
	ref   sim.JobRef
	id    int64
	epoch int
}

// netfaultRun orchestrates the network-fault layer inside one Run. The
// closures are wired by Run before the first arrival.
type netfaultRun struct {
	en    *sim.Engine
	cfg   *netfault.Config
	n     int
	arena *sim.JobArena

	// deliver physically hands a job to computer target (through the
	// fault injector when one is active). dispatch runs a job through
	// the dispatcher: a first dispatch (admission, policy selection,
	// overload gates) flushes the downtime buffer, a later one re-routes
	// a resubmitted job. giveUp finalizes OutcomeLostNetwork; dropDown
	// finalizes OutcomeDroppedDispatcher. departed tells the policy a
	// dispatched job left its computer (dispatcher's belief). reachable
	// reports whether the failover backup may route to i. notifyUp
	// pushes the run's availability mask to a fault-aware policy after a
	// partition edge. failoverSend does the first-dispatch bookkeeping
	// for a backup-routed job and transmits it untracked.
	deliver      func(target int, j *sim.Job)
	dispatch     func(j *sim.Job, first bool)
	giveUp       func(j *sim.Job)
	dropDown     func(j *sim.Job)
	departed     func(j *sim.Job)
	reachable    func(i int) bool
	notifyUp     func()
	failoverSend func(j *sim.Job, target int)
	pb           *probe.Probe

	// replan is the policy's re-planning hook (nil when the policy is
	// not Replannable); speeds and rho are the dispatcher's believed
	// inputs, as handed to the policy at Init.
	replan   Replannable
	speeds   []float64
	rho      float64
	duration float64

	linkStreams []*rng.Stream
	dispStream  *rng.Stream
	links       []netfault.Link
	// cut[i] counts partition windows currently cutting link i (windows
	// may overlap); inFlight[i] counts transit copies on link i.
	cut      []int
	inFlight []int

	up        bool
	epoch     int
	lastCkptT float64
	downStart float64

	outstanding   map[int64]*nfEntry
	pendingRetry  []nfPending
	pendingRescue []nfPending
	buffer        []*sim.Job
	failCount     []int64

	stats NetfaultStats
}

// newNetfaultRun derives the layer's named substreams and allocates its
// state. Called only when the config is enabled, so disabled runs derive
// nothing.
func newNetfaultRun(en *sim.Engine, cfg *netfault.Config, n int, root *rng.Stream, duration float64) *netfaultRun {
	nf := &netfaultRun{
		en: en, cfg: cfg, n: n, duration: duration,
		links:       make([]netfault.Link, n),
		linkStreams: make([]*rng.Stream, n),
		cut:         make([]int, n),
		inFlight:    make([]int, n),
		up:          true,
		outstanding: map[int64]*nfEntry{},
	}
	for i := 0; i < n; i++ {
		nf.links[i] = cfg.LinkFor(i)
		nf.linkStreams[i] = root.DeriveIndexed("netfault.link", i)
	}
	if cfg.Dispatcher != nil {
		nf.dispStream = root.Derive("netfault.dispatcher")
		if cfg.Dispatcher.Down == netfault.DownFailover {
			nf.failCount = make([]int64, n)
		}
	}
	nf.stats.PerLinkLost = make([]int64, n)
	nf.stats.PerLinkDup = make([]int64, n)
	return nf
}

// start schedules the layer's autonomous events: the crash renewal
// process, the checkpoint chain and the partition windows.
func (nf *netfaultRun) start() {
	if d := nf.cfg.Dispatcher; d != nil {
		nf.scheduleCrash()
		if d.Recovery == netfault.RecoverCheckpoint {
			nf.scheduleCheckpoints(d.CheckpointDT)
		}
	}
	for _, p := range nf.cfg.Partitions {
		p := p
		if p.From > nf.duration {
			continue
		}
		nf.en.Schedule(p.From, func() { nf.shiftPartition(p.Links, +1) })
		// The lift is scheduled even past the horizon: a window that
		// outlives the run holds through the drain until To.
		nf.en.Schedule(p.To, func() { nf.shiftPartition(p.Links, -1) })
	}
}

// linkUp reports whether link i is currently uncut.
func (nf *netfaultRun) linkUp(i int) bool { return nf.cut[i] == 0 }

// shiftPartition applies one partition edge (delta ±1) to the cut
// refcounts; an empty link list means every link.
func (nf *netfaultRun) shiftPartition(links []int, delta int) {
	if len(links) == 0 {
		for i := range nf.cut {
			nf.cut[i] += delta
		}
	} else {
		for _, i := range links {
			nf.cut[i] += delta
		}
	}
	nf.notifyUp()
}

// send transmits one dispatch of j over link target. tracked engages the
// ack/resubmission loop; the stateless failover backup passes false and
// relies on the client timeout instead.
func (nf *netfaultRun) send(target int, j *sim.Job, tracked bool) {
	now := nf.en.Now()
	nf.stats.Sent++
	tracked = tracked && nf.cfg.Ack.Timeout > 0
	if tracked {
		// Track before any inline delivery: a zero-latency ack must find
		// the entry it resolves.
		nf.track(j, now)
	}
	if !nf.linkUp(target) {
		nf.stats.PartitionBlocked++
		nf.stats.PerLinkLost[target]++
		if nf.pb != nil {
			nf.pb.NoteLinkLoss(target)
			nf.pb.Emit(probe.Event{T: now, Kind: probe.EvNetLoss, Job: j.ID, Target: target, Cause: "partition"})
		}
		if !tracked {
			nf.scheduleRescue(j)
		}
		return
	}
	link := nf.links[target]
	st := nf.linkStreams[target]
	copies := link.Copies(st)
	if copies > 1 {
		nf.stats.DupCopies++
		nf.stats.PerLinkDup[target]++
		if nf.pb != nil {
			nf.pb.NoteLinkDup(target)
		}
	}
	delivered := 0
	ref := nf.arena.Ref(j)
	epoch := j.NetEpoch
	for c := 0; c < copies; c++ {
		delay, ok := link.Transit(st)
		if !ok {
			nf.stats.LostCopies++
			nf.stats.PerLinkLost[target]++
			if nf.pb != nil {
				nf.pb.NoteLinkLoss(target)
				nf.pb.Emit(probe.Event{T: now, Kind: probe.EvNetLoss, Job: j.ID, Target: target, Cause: "loss"})
			}
			continue
		}
		delivered++
		if delay > 0 {
			nf.inFlight[target]++
			if nf.pb != nil {
				nf.pb.SetLinkInFlight(now, target, nf.inFlight[target])
			}
			tgt := target
			nf.en.ScheduleAfter(delay, func() { nf.deliverCopy(tgt, ref, epoch, true) })
		} else {
			nf.deliverCopy(target, ref, epoch, false)
		}
	}
	if !tracked && delivered == 0 {
		nf.scheduleRescue(j)
	}
}

// deliverCopy lands one transit copy at computer target: the first copy
// accepted wins, every later one is deduplicated against the idempotency
// key and re-acked. epoch is the job's delivery epoch at send time; a
// copy from a superseded epoch (the job was reclaimed from its server —
// overload timeout, failure requeue — after this copy was sent) is
// stale even though the reclaim cleared NetAccepted.
func (nf *netfaultRun) deliverCopy(target int, ref sim.JobRef, epoch int, wasInFlight bool) {
	now := nf.en.Now()
	if wasInFlight {
		nf.inFlight[target]--
		if nf.pb != nil {
			nf.pb.SetLinkInFlight(now, target, nf.inFlight[target])
		}
	}
	j, ok := ref.Load()
	if !ok || j.Finalized || j.Killed || j.NetEpoch != epoch {
		// The job already left the system (or its arena slot was even
		// recycled): a stale copy, swallowed by dedup.
		nf.stats.StaleDeliveries++
		if nf.pb != nil {
			var id int64
			if ok {
				id = j.ID
			}
			nf.pb.Emit(probe.Event{T: now, Kind: probe.EvDupDeliver, Job: id, Target: target, Cause: "stale"})
		}
		return
	}
	if j.NetAccepted {
		nf.stats.DupDeliveries++
		if nf.pb != nil {
			nf.pb.Emit(probe.Event{T: now, Kind: probe.EvDupDeliver, Job: j.ID, Target: target, Cause: "dup"})
		}
		// The computer re-acks duplicates: an earlier ack may have been
		// the lost one.
		nf.sendAck(target, j.ID, j.NetEpoch)
		return
	}
	j.NetAccepted = true
	j.Target = target
	nf.sendAck(target, j.ID, j.NetEpoch)
	nf.deliver(target, j)
}

// sendAck returns the computer's acceptance ack over the same link,
// subject to the same partition, loss and latency. epoch stamps the
// ack with the delivery epoch it acknowledges.
func (nf *netfaultRun) sendAck(target int, id int64, epoch int) {
	if nf.cfg.Ack.Timeout <= 0 {
		return
	}
	now := nf.en.Now()
	delay, ok := 0.0, nf.linkUp(target)
	if ok {
		delay, ok = nf.links[target].Transit(nf.linkStreams[target])
	}
	if !ok {
		nf.stats.AckLost++
		if nf.pb != nil {
			nf.pb.Emit(probe.Event{T: now, Kind: probe.EvNetLoss, Job: id, Target: target, Cause: "ack-loss"})
		}
		return
	}
	if delay > 0 {
		nf.en.ScheduleAfter(delay, func() { nf.onAck(id, epoch) })
	} else {
		nf.onAck(id, epoch)
	}
}

// onAck resolves an outstanding dispatch. A crashed dispatcher misses
// the ack; the restart recovery decides the entry's fate instead. An
// ack from a superseded delivery epoch is ignored: it acknowledged a
// dispatch that was since reclaimed (failure requeue, overload
// timeout), and letting it resolve the entry would strand the current
// dispatch's retransmission loop — a lost copy would never be
// resubmitted.
func (nf *netfaultRun) onAck(id int64, epoch int) {
	if !nf.up {
		nf.stats.AckLost++
		return
	}
	e, ok := nf.outstanding[id]
	if !ok {
		return
	}
	if e.epoch != epoch {
		nf.stats.AckLost++
		return
	}
	delete(nf.outstanding, id)
	nf.stats.Acked++
	if j, ok := e.ref.Load(); ok && j.AckEvent.Active() {
		j.AckEvent.Cancel()
		j.AckEvent = sim.Event{}
	}
}

// track upserts j's outstanding entry and (re-)arms its ack timer.
func (nf *netfaultRun) track(j *sim.Job, now float64) {
	if j.AckEvent.Active() {
		j.AckEvent.Cancel()
	}
	e, ok := nf.outstanding[j.ID]
	if !ok {
		e = &nfEntry{}
		nf.outstanding[j.ID] = e
	}
	e.ref = nf.arena.Ref(j)
	e.sentAt = now
	e.epoch = j.NetEpoch
	ref := e.ref
	j.AckEvent = nf.en.ScheduleAfter(nf.cfg.Ack.Timeout, func() {
		if jj, ok := ref.Load(); ok {
			nf.ackTimeout(jj)
		}
	})
}

// ackTimeout fires when a tracked dispatch was not acked in time.
func (nf *netfaultRun) ackTimeout(j *sim.Job) {
	j.AckEvent = sim.Event{}
	if _, ok := nf.outstanding[j.ID]; !ok {
		return
	}
	nf.stats.AckTimeouts++
	if !nf.up {
		// The dispatcher-side timer fired while the process was dead;
		// park it. The restart recovery decides whether the entry (and
		// hence this retransmit) survives.
		nf.pendingRetry = append(nf.pendingRetry, nfPending{ref: nf.arena.Ref(j), id: j.ID, epoch: j.NetEpoch})
		return
	}
	nf.resubmit(j, "ack-timeout")
}

// resubmit re-dispatches an unacked job after truncated-exponential
// backoff, or gives up once the budget is spent.
func (nf *netfaultRun) resubmit(j *sim.Job, cause string) {
	if j.Finalized || j.Killed {
		return
	}
	if j.Resubmits >= nf.cfg.Ack.Budget {
		if e, ok := nf.outstanding[j.ID]; ok {
			nf.forget(j.ID, e)
		}
		if j.NetAccepted {
			// A computer holds the job; only the acks kept vanishing.
			// Stop tracking — the job completes through the normal path.
			nf.stats.AbandonedTracking++
			return
		}
		nf.stats.LostNetwork++
		nf.departed(j)
		nf.giveUp(j)
		return
	}
	j.Resubmits++
	nf.stats.Resubmits++
	d := nf.backoff(j)
	if nf.pb != nil {
		nf.pb.Emit(probe.Event{T: nf.en.Now(), Kind: probe.EvResubmit, Job: j.ID, Target: j.Target, Cause: cause, Attempt: j.Resubmits, Value: d})
		// Span: the in-flight copy is presumed lost; the job is back at
		// the dispatcher for backoff (no-op unless spans are on).
		nf.pb.SpanResubmit(j, nf.en.Now())
	}
	// The dispatcher believes the job never reached (or left) its
	// computer: release the policy's load accounting before re-selecting.
	nf.departed(j)
	ref := nf.arena.Ref(j)
	epoch := j.NetEpoch
	nf.en.ScheduleAfter(d, func() {
		jj, ok := ref.Load()
		if !ok || jj.Finalized || jj.Killed || jj.NetEpoch != epoch {
			// Epoch moved: the job was reclaimed from its server while
			// this backoff was pending — the overload/fault machinery
			// owns its re-dispatch now, a second loop would double it.
			return
		}
		if !nf.up {
			nf.pendingRetry = append(nf.pendingRetry, nfPending{ref: ref, id: jj.ID, epoch: epoch})
			return
		}
		nf.dispatch(jj, false)
	})
}

// backoff returns resubmission k's delay min(base·2^(k−1), max) with
// deterministic jitter. The job-ID complement decorrelates the hash from
// the overload layer's retry jitter without consuming any stream.
func (nf *netfaultRun) backoff(j *sim.Job) float64 {
	a := nf.cfg.Ack
	d := a.BackoffBase * math.Pow(2, float64(j.Resubmits-1))
	if d > a.BackoffMax {
		d = a.BackoffMax
	}
	if a.Jitter > 0 {
		u := float64(mixHash(^uint64(j.ID), uint64(j.Resubmits))>>11) / (1 << 53)
		d *= 1 + a.Jitter*(u-0.5)
	}
	return d
}

// forget drops an outstanding entry and disarms its ack timer.
func (nf *netfaultRun) forget(id int64, e *nfEntry) {
	delete(nf.outstanding, id)
	if j, ok := e.ref.Load(); ok && j.AckEvent.Active() {
		j.AckEvent.Cancel()
		j.AckEvent = sim.Event{}
	}
}

// scheduleRescue arms the client-side timeout for a job the dispatcher
// does not track: ClientTO seconds after its arrival (or now, for jobs
// already older than that), the client retransmits unless a computer has
// accepted the job by then.
func (nf *netfaultRun) scheduleRescue(j *sim.Job) {
	to := netfault.DefaultClientTO
	if d := nf.cfg.Dispatcher; d != nil {
		to = d.ClientTO
	}
	t := j.Arrival + to
	if now := nf.en.Now(); t < now {
		t = now
	}
	ref := nf.arena.Ref(j)
	epoch := j.NetEpoch
	nf.en.Schedule(t, func() {
		jj, ok := ref.Load()
		if !ok || jj.Finalized || jj.Killed || jj.NetAccepted || jj.NetEpoch != epoch {
			return
		}
		if !nf.up {
			// The client keeps retrying regardless of dispatcher state;
			// its retransmit lands once the dispatcher is back.
			nf.pendingRescue = append(nf.pendingRescue, nfPending{ref: ref, id: jj.ID, epoch: epoch})
			return
		}
		nf.stats.ClientRescues++
		nf.resubmit(jj, "client")
	})
}

// jobDone clears the job's netfault state at its terminal event so the
// arena can recycle it.
func (nf *netfaultRun) jobDone(j *sim.Job) {
	if j.AckEvent.Active() {
		j.AckEvent.Cancel()
		j.AckEvent = sim.Event{}
	}
	delete(nf.outstanding, j.ID)
}

// reclaim clears delivery state when the job verifiably left its server
// (overload timeout removal, failure requeue): the next delivery must
// not be deduplicated away.
func (nf *netfaultRun) reclaim(j *sim.Job) {
	j.NetAccepted = false
	j.NetEpoch++ // invalidate copies of the superseded dispatch still in transit
	if j.AckEvent.Active() {
		j.AckEvent.Cancel()
		j.AckEvent = sim.Event{}
	}
	delete(nf.outstanding, j.ID)
}

// scheduleCrash arms the next dispatcher crash; the renewal chain stops
// at the horizon so the drain completes.
func (nf *netfaultRun) scheduleCrash() {
	t := nf.en.Now() + nf.cfg.Dispatcher.Uptime.Sample(nf.dispStream)
	if t > nf.duration {
		return
	}
	nf.en.Schedule(t, nf.crash)
}

// crash takes the dispatcher down. The restart is always scheduled —
// even past the horizon — so buffered jobs and parked retransmits drain.
func (nf *netfaultRun) crash() {
	now := nf.en.Now()
	nf.up = false
	nf.epoch++
	nf.stats.Crashes++
	nf.downStart = now
	if nf.pb != nil {
		nf.pb.SetDispatcherUp(now, false)
		nf.pb.Emit(probe.Event{T: now, Kind: probe.EvDispatcherDown, Target: -1})
	}
	nf.en.ScheduleAfter(nf.cfg.Dispatcher.Downtime.Sample(nf.dispStream), nf.restart)
}

// scheduleCheckpoints runs the periodic plan-checkpoint chain; ticks
// while the dispatcher is down record nothing.
func (nf *netfaultRun) scheduleCheckpoints(dt float64) {
	var tick func(k int)
	tick = func(k int) {
		t := float64(k) * dt
		if t > nf.duration {
			return
		}
		nf.en.Schedule(t, func() {
			if nf.up {
				nf.lastCkptT = nf.en.Now()
				nf.stats.Checkpoints++
			}
			tick(k + 1)
		})
	}
	tick(1)
}

// restart brings the dispatcher back: recover the Algorithm 2 state per
// the configured policy, resolve the outstanding-dispatch table, drain
// parked retransmits and client rescues, flush the downtime buffer, and
// arm the next crash.
func (nf *netfaultRun) restart() {
	now := nf.en.Now()
	nf.up = true
	nf.stats.Restarts++
	nf.stats.DownTime += now - nf.downStart
	d := nf.cfg.Dispatcher
	age := 0.0
	switch d.Recovery {
	case netfault.RecoverAcks:
		// Reconstructed from computer-side acks: plan and counters come
		// back as-is, age zero.
	case netfault.RecoverCheckpoint:
		age = now - nf.lastCkptT
		if nf.replan != nil && nf.replan.Replan(nf.speeds, nf.rho) == nil {
			nf.stats.PlanRestores++
		}
	case netfault.RecoverCold:
		age = -1
		nf.stats.ColdResets++
		if nf.replan != nil && nf.replan.ReplanProportional(nf.speeds) == nil {
			// Run the speed-proportional fallback for the relearn window,
			// then re-solve — unless another crash started a new epoch.
			epoch := nf.epoch
			nf.en.ScheduleAfter(d.RelearnT, func() {
				if nf.up && nf.epoch == epoch && nf.replan.Replan(nf.speeds, nf.rho) == nil {
					nf.stats.PlanRestores++
				}
			})
		}
	}
	if nf.pb != nil {
		nf.pb.SetDispatcherUp(now, true)
		nf.pb.NoteStateAge(now, age)
		nf.pb.Emit(probe.Event{T: now, Kind: probe.EvDispatcherUp, Target: -1, Cause: d.Recovery.String(), Value: age})
	}

	// Resolve the outstanding table in sorted ID order: rescues schedule
	// events, and map iteration order must not reach the event queue.
	ids := make([]int64, 0, len(nf.outstanding))
	for id := range nf.outstanding {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		e := nf.outstanding[id]
		jj, ok := e.ref.Load()
		if !ok || jj.Finalized || jj.Killed {
			nf.forget(id, e)
			continue
		}
		switch d.Recovery {
		case netfault.RecoverAcks:
			if jj.NetAccepted {
				// The reconstruction replayed the computer's ack.
				nf.forget(id, e)
			}
			// Unaccepted entries stay tracked with their timers running.
		case netfault.RecoverCheckpoint:
			if e.sentAt > nf.lastCkptT {
				nf.forget(id, e)
				if !jj.NetAccepted {
					nf.scheduleRescue(jj)
				}
			}
		case netfault.RecoverCold:
			nf.forget(id, e)
			if !jj.NetAccepted {
				nf.scheduleRescue(jj)
			}
		}
	}

	// Dispatcher-side timers that fired while down: only entries the
	// recovery kept are retransmitted (a forgotten entry's job is covered
	// by its client rescue instead).
	retry := nf.pendingRetry
	nf.pendingRetry = nil
	for _, p := range retry {
		jj, ok := p.ref.Load()
		if !ok || jj.Finalized || jj.Killed || jj.NetEpoch != p.epoch {
			continue
		}
		if _, tracked := nf.outstanding[p.id]; tracked {
			nf.resubmit(jj, "ack-timeout")
		}
	}

	// Client retransmits that arrived while down land now.
	resc := nf.pendingRescue
	nf.pendingRescue = nil
	for _, p := range resc {
		jj, ok := p.ref.Load()
		if !ok || jj.Finalized || jj.Killed || jj.NetAccepted || jj.NetEpoch != p.epoch {
			continue
		}
		nf.stats.ClientRescues++
		nf.resubmit(jj, "client")
	}

	// Flush the downtime buffer through the full dispatch path, in
	// arrival order.
	buf := nf.buffer
	nf.buffer = nil
	for _, j := range buf {
		nf.dispatch(j, true)
	}

	nf.scheduleCrash()
}

// interceptArrival handles an arrival while the dispatcher is down; it
// reports whether the job was consumed (dropped, buffered or routed by
// the failover backup).
func (nf *netfaultRun) interceptArrival(j *sim.Job) bool {
	d := nf.cfg.Dispatcher
	if d == nil || nf.up {
		return false
	}
	switch d.Down {
	case netfault.DownDrop:
		nf.stats.DownDropped++
		nf.dropDown(j)
	case netfault.DownBuffer:
		if len(nf.buffer) >= d.BufferCap {
			nf.stats.BufferOverflow++
			nf.dropDown(j)
			return true
		}
		nf.buffer = append(nf.buffer, j)
		nf.stats.DownBuffered++
		if len(nf.buffer) > nf.stats.MaxBufferLen {
			nf.stats.MaxBufferLen = len(nf.buffer)
		}
	case netfault.DownFailover:
		nf.failover(j)
	}
	return true
}

// failover routes one downtime arrival through the stateless backup:
// weighted round-robin (argmin dispatches/speed) over the reachable
// computers, transmitted untracked with the client timeout as the only
// safety net. With nothing reachable the job drops.
func (nf *netfaultRun) failover(j *sim.Job) {
	best := -1
	var bestScore float64
	for i := 0; i < nf.n; i++ {
		if !nf.reachable(i) {
			continue
		}
		score := float64(nf.failCount[i]+1) / nf.speeds[i]
		if best < 0 || score < bestScore {
			best = i
			bestScore = score
		}
	}
	if best < 0 {
		nf.stats.DownDropped++
		nf.dropDown(j)
		return
	}
	nf.failCount[best]++
	nf.stats.FailoverDispatches++
	nf.failoverSend(j, best)
}

// finish snapshots the counters.
func (nf *netfaultRun) finish() *NetfaultStats {
	s := nf.stats
	return &s
}
