package cluster

import (
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
// layer's retry jitter — so no random stream is consumed.
//
// Outstanding (sent, not yet acked) dispatches live in a slab with a free
// list, indexed by sim.Job.NetSlot the way the span layer's slab is
// indexed by SpanSlot. Slab order is allocation order, not job order, and
// restart's recovery schedules client rescues, so restart walks the live
// entries in ascending job ID. Every per-message timer (copy delivery,
// ack, ack timeout, resubmission backoff, client rescue) is a typed
// engine event (sim.Engine.ScheduleMsg) whose handler is bound once at
// construction: the layer allocates nothing per job or per message.
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

// nfEntry is one outstanding (sent, not yet acked) dispatch: a slot of
// netfaultRun.out.
type nfEntry struct {
	ref sim.JobRef
	// id is the job's ID; 0 marks a free slot (job IDs start at 1).
	id     int64
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
	epoch int
}

// netfaultRun orchestrates the network-fault layer inside one run, whose
// stages it calls through r.
type netfaultRun struct {
	r   *run
	cfg *netfault.Config
	// replan is the policy's re-planning hook (nil when the policy is
	// not Replannable); a restart re-plans from the dispatcher's believed
	// inputs, as handed to the policy at Init.
	replan Replannable

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

	// out is the outstanding-dispatch slab (indexed by Job.NetSlot-1)
	// and outFree its free list.
	out           []nfEntry
	outFree       []int32
	pendingRetry  []nfPending
	pendingRescue []nfPending
	buffer        []*sim.Job
	failCount     []int64

	// Handlers of the layer's typed engine events, bound once in
	// newNetfaultRun. Payloads: a transit copy carries (Ref, A = target
	// link, B = delivery epoch); an ack (Ref, B = epoch); a resubmission
	// backoff and a client rescue (Ref, B = epoch); an ack timeout Ref.
	onCopy, onAck, onAckTimeout, onBackoff, onRescue func(sim.Msg)
	// ackLane holds the ack timers: each is armed at now + Ack.Timeout,
	// so they fall due in arming order (nil without ack tracking).
	ackLane *sim.Lane

	stats NetfaultStats
}

// newNetfaultRun derives the layer's named substreams and allocates its
// state. Called only when the config is enabled, so disabled runs derive
// nothing.
func newNetfaultRun(r *run, root *rng.Stream) *netfaultRun {
	n := r.n
	cfg := r.cfg.Netfault
	nf := &netfaultRun{
		r:           r,
		cfg:         cfg,
		links:       make([]netfault.Link, n),
		linkStreams: make([]*rng.Stream, n),
		cut:         make([]int, n),
		inFlight:    make([]int, n),
		up:          true,
	}
	nf.replan, _ = r.policy.(Replannable)
	nf.onCopy = nf.copyLanded
	nf.onAck = nf.ack
	nf.onAckTimeout = nf.ackTimeout
	nf.onBackoff = nf.backoffDone
	nf.onRescue = nf.rescue
	if cfg.Ack.Timeout > 0 {
		nf.ackLane = r.en.NewLane()
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
// process, the checkpoint chain (ticks while the dispatcher is down
// record nothing) and the partition windows.
func (nf *netfaultRun) start() {
	en, horizon := nf.r.en, nf.r.cfg.Duration
	if d := nf.cfg.Dispatcher; d != nil {
		nf.scheduleCrash()
		if d.Recovery == netfault.RecoverCheckpoint {
			every(en, d.CheckpointDT, horizon, func() {
				if nf.up {
					nf.lastCkptT = en.Now()
					nf.stats.Checkpoints++
				}
			})
		}
	}
	for _, p := range nf.cfg.Partitions {
		if p.From > horizon {
			continue
		}
		en.Schedule(p.From, func() { nf.shiftPartition(p.Links, +1) })
		// The lift is scheduled even past the horizon: a window that
		// outlives the run holds through the drain until To.
		en.Schedule(p.To, func() { nf.shiftPartition(p.Links, -1) })
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
	nf.r.notifyUp()
}

// send transmits one dispatch of j over link target. tracked engages the
// ack/resubmission loop; the stateless failover backup passes false and
// relies on the client timeout instead.
func (nf *netfaultRun) send(target int, j *sim.Job, tracked bool) {
	pb := nf.r.pb
	now := nf.r.en.Now()
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
		if pb != nil {
			pb.NoteLinkLoss(target)
			pb.Emit(probe.Event{T: now, Kind: probe.EvNetLoss, Job: j.ID, Target: target, Cause: "partition"})
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
		if pb != nil {
			pb.NoteLinkDup(target)
		}
	}
	delivered := 0
	ref := nf.r.arena.Ref(j)
	epoch := j.NetEpoch
	for c := 0; c < copies; c++ {
		delay, ok := link.Transit(st)
		if !ok {
			nf.stats.LostCopies++
			nf.stats.PerLinkLost[target]++
			if pb != nil {
				pb.NoteLinkLoss(target)
				pb.Emit(probe.Event{T: now, Kind: probe.EvNetLoss, Job: j.ID, Target: target, Cause: "loss"})
			}
			continue
		}
		delivered++
		if delay > 0 {
			nf.inFlight[target]++
			if pb != nil {
				pb.SetLinkInFlight(now, target, nf.inFlight[target])
			}
			nf.r.en.ScheduleMsg(now+delay, nf.onCopy, sim.Msg{Ref: ref, A: target, B: epoch})
		} else {
			nf.deliverCopy(target, ref, epoch, false)
		}
	}
	if !tracked && delivered == 0 {
		nf.scheduleRescue(j)
	}
}

// copyLanded is the typed event of a copy in transit: A is its target
// link and B the delivery epoch it was sent in.
func (nf *netfaultRun) copyLanded(m sim.Msg) { nf.deliverCopy(m.A, m.Ref, m.B, true) }

// deliverCopy lands one transit copy at computer target: the first copy
// accepted wins, every later one is deduplicated against the idempotency
// key and re-acked. epoch is the job's delivery epoch at send time; a
// copy from a superseded epoch (the job was reclaimed from its server —
// overload timeout, failure requeue — after this copy was sent) is
// stale even though the reclaim cleared NetAccepted.
func (nf *netfaultRun) deliverCopy(target int, ref sim.JobRef, epoch int, wasInFlight bool) {
	pb := nf.r.pb
	now := nf.r.en.Now()
	if wasInFlight {
		nf.inFlight[target]--
		if pb != nil {
			pb.SetLinkInFlight(now, target, nf.inFlight[target])
		}
	}
	j, ok := ref.Load()
	if !ok || j.Finalized || j.Killed || j.NetEpoch != epoch {
		// The job already left the system (or its arena slot was even
		// recycled): a stale copy, swallowed by dedup.
		nf.stats.StaleDeliveries++
		if pb != nil {
			var id int64
			if ok {
				id = j.ID
			}
			pb.Emit(probe.Event{T: now, Kind: probe.EvDupDeliver, Job: id, Target: target, Cause: "stale"})
		}
		return
	}
	if j.NetAccepted {
		nf.stats.DupDeliveries++
		if pb != nil {
			pb.Emit(probe.Event{T: now, Kind: probe.EvDupDeliver, Job: j.ID, Target: target, Cause: "dup"})
		}
		// The computer re-acks duplicates: an earlier ack may have been
		// the lost one.
		nf.sendAck(target, j)
		return
	}
	j.NetAccepted = true
	j.Target = target
	nf.sendAck(target, j)
	nf.r.deliverTo(target, j)
}

// sendAck returns the computer's acceptance ack for j over the same
// link, subject to the same partition, loss and latency. The ack is
// stamped with j's current delivery epoch, the one it acknowledges.
func (nf *netfaultRun) sendAck(target int, j *sim.Job) {
	if nf.cfg.Ack.Timeout <= 0 {
		return
	}
	now := nf.r.en.Now()
	delay, ok := 0.0, nf.linkUp(target)
	if ok {
		delay, ok = nf.links[target].Transit(nf.linkStreams[target])
	}
	if !ok {
		nf.stats.AckLost++
		if pb := nf.r.pb; pb != nil {
			pb.Emit(probe.Event{T: now, Kind: probe.EvNetLoss, Job: j.ID, Target: target, Cause: "ack-loss"})
		}
		return
	}
	m := sim.Msg{Ref: nf.r.arena.Ref(j), B: j.NetEpoch}
	if delay > 0 {
		nf.r.en.ScheduleMsg(now+delay, nf.onAck, m)
	} else {
		nf.ack(m)
	}
}

// ack resolves the outstanding dispatch of the job m.Ref names, sent in
// delivery epoch m.B. A crashed dispatcher misses the ack; the restart
// recovery decides the entry's fate instead. An ack from a superseded
// delivery epoch is ignored: it acknowledged a dispatch that was since
// reclaimed (failure requeue, overload timeout), and letting it resolve
// the entry would strand the current dispatch's retransmission loop — a
// lost copy would never be resubmitted. A job recycled since the ack was
// sent has no entry: it was finalized first, and finalization drops the
// entry.
func (nf *netfaultRun) ack(m sim.Msg) {
	if !nf.up {
		nf.stats.AckLost++
		return
	}
	j, ok := m.Ref.Load()
	if !ok || j.NetSlot == 0 {
		return
	}
	if nf.out[j.NetSlot-1].epoch != m.B {
		nf.stats.AckLost++
		return
	}
	nf.forget(j.NetSlot)
	nf.stats.Acked++
}

// track upserts j's outstanding entry and (re-)arms its ack timer.
func (nf *netfaultRun) track(j *sim.Job, now float64) {
	if j.AckEvent.Active() {
		j.AckEvent.Cancel()
	}
	if j.NetSlot == 0 {
		if k := len(nf.outFree); k > 0 {
			j.NetSlot = nf.outFree[k-1]
			nf.outFree = nf.outFree[:k-1]
		} else {
			nf.out = append(nf.out, nfEntry{})
			j.NetSlot = int32(len(nf.out))
		}
	}
	e := &nf.out[j.NetSlot-1]
	e.ref = nf.r.arena.Ref(j)
	e.id = j.ID
	e.sentAt = now
	e.epoch = j.NetEpoch
	j.AckEvent = nf.ackLane.ScheduleMsg(now+nf.cfg.Ack.Timeout, nf.onAckTimeout, sim.Msg{Ref: e.ref})
}

// ackTimeout fires when a tracked dispatch was not acked in time.
func (nf *netfaultRun) ackTimeout(m sim.Msg) {
	j, ok := m.Ref.Load()
	if !ok {
		return
	}
	j.AckEvent = sim.Event{}
	if j.NetSlot == 0 {
		return
	}
	nf.stats.AckTimeouts++
	if !nf.up {
		// The dispatcher-side timer fired while the process was dead;
		// park it. The restart recovery decides whether the entry (and
		// hence this retransmit) survives.
		nf.pendingRetry = append(nf.pendingRetry, nfPending{ref: m.Ref, epoch: j.NetEpoch})
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
		nf.untrack(j)
		if j.NetAccepted {
			// A computer holds the job; only the acks kept vanishing.
			// Stop tracking — the job completes through the normal path.
			nf.stats.AbandonedTracking++
			return
		}
		nf.stats.LostNetwork++
		nf.departed(j)
		nf.r.lose(j, OutcomeLostNetwork)
		return
	}
	j.Resubmits++
	nf.stats.Resubmits++
	a := nf.cfg.Ack
	d := backoff(a.BackoffBase, a.BackoffMax, a.Jitter, ^uint64(j.ID), j.Resubmits)
	r := nf.r
	if r.pb != nil {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvResubmit, Job: j.ID, Target: j.Target, Cause: cause, Attempt: j.Resubmits, Value: d})
		// Span: the in-flight copy is presumed lost; the job is back at
		// the dispatcher for backoff (no-op unless spans are on).
		r.pb.SpanResubmit(j, r.en.Now())
	}
	// The dispatcher believes the job never reached (or left) its
	// computer: release the policy's load accounting before re-selecting.
	nf.departed(j)
	r.en.ScheduleMsg(r.en.Now()+d, nf.onBackoff, sim.Msg{Ref: r.arena.Ref(j), B: j.NetEpoch})
}

// departed tells the policy that a dispatched job left its computer, in
// the dispatcher's belief. An unacked breaker probe counts as a failed
// probe instead.
func (nf *netfaultRun) departed(j *sim.Job) {
	if ov := nf.r.ov; ov != nil && j.Probe {
		ov.probeFailed(j)
		return
	}
	nf.r.policy.Departed(j)
}

// backoffDone re-dispatches a resubmitted job once its backoff is over.
func (nf *netfaultRun) backoffDone(m sim.Msg) {
	jj, ok := m.Ref.Load()
	if !ok || jj.Finalized || jj.Killed || jj.NetEpoch != m.B {
		// Epoch moved: the job was reclaimed from its server while
		// this backoff was pending — the overload/fault machinery
		// owns its re-dispatch now, a second loop would double it.
		return
	}
	if !nf.up {
		// A tracked job waits for the restart's recovery to decide on
		// its entry. An untracked one (a client retransmit, or a job the
		// failover backup routed) has no entry to recover and its client
		// rescue has already fired: the client retries again, landing
		// once the dispatcher is back.
		if jj.NetSlot != 0 {
			nf.pendingRetry = append(nf.pendingRetry, nfPending{ref: m.Ref, epoch: m.B})
		} else {
			nf.pendingRescue = append(nf.pendingRescue, nfPending{ref: m.Ref, epoch: m.B})
		}
		return
	}
	nf.r.dispatchJob(jj, false)
}

// forget frees outstanding slot (1-based) and disarms the ack timer of
// its job, unless the job was already recycled.
func (nf *netfaultRun) forget(slot int32) {
	e := &nf.out[slot-1]
	if j, ok := e.ref.Load(); ok {
		j.NetSlot = 0
		if j.AckEvent.Active() {
			j.AckEvent.Cancel()
			j.AckEvent = sim.Event{}
		}
	}
	*e = nfEntry{}
	nf.outFree = append(nf.outFree, slot)
}

// untrack drops j's outstanding entry, if any, and disarms its ack
// timer (only a tracked job has one armed). The run calls it at j's
// terminal event, so the arena can recycle the job.
func (nf *netfaultRun) untrack(j *sim.Job) {
	if j.NetSlot != 0 {
		nf.forget(j.NetSlot)
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
	if now := nf.r.en.Now(); t < now {
		t = now
	}
	nf.r.en.ScheduleMsg(t, nf.onRescue, sim.Msg{Ref: nf.r.arena.Ref(j), B: j.NetEpoch})
}

// rescue fires a client timeout: the client retransmits unless a
// computer accepted the job meanwhile.
func (nf *netfaultRun) rescue(m sim.Msg) {
	jj, ok := m.Ref.Load()
	if !ok || jj.Finalized || jj.Killed || jj.NetAccepted || jj.NetEpoch != m.B {
		return
	}
	if !nf.up {
		// The client keeps retrying regardless of dispatcher state;
		// its retransmit lands once the dispatcher is back.
		nf.pendingRescue = append(nf.pendingRescue, nfPending{ref: m.Ref, epoch: m.B})
		return
	}
	nf.stats.ClientRescues++
	nf.resubmit(jj, "client")
}

// reclaim clears delivery state when the job verifiably left its server
// (overload timeout removal, failure requeue): the next delivery must
// not be deduplicated away.
func (nf *netfaultRun) reclaim(j *sim.Job) {
	j.NetAccepted = false
	j.NetEpoch++ // invalidate copies of the superseded dispatch still in transit
	nf.untrack(j)
}

// scheduleCrash arms the next dispatcher crash; the renewal chain stops
// at the horizon so the drain completes.
func (nf *netfaultRun) scheduleCrash() {
	t := nf.r.en.Now() + nf.cfg.Dispatcher.Uptime.Sample(nf.dispStream)
	if t > nf.r.cfg.Duration {
		return
	}
	nf.r.en.Schedule(t, nf.crash)
}

// crash takes the dispatcher down. The restart is always scheduled —
// even past the horizon — so buffered jobs and parked retransmits drain.
func (nf *netfaultRun) crash() {
	now := nf.r.en.Now()
	nf.up = false
	nf.epoch++
	nf.stats.Crashes++
	nf.downStart = now
	if pb := nf.r.pb; pb != nil {
		pb.SetDispatcherUp(now, false)
		pb.Emit(probe.Event{T: now, Kind: probe.EvDispatcherDown, Target: -1})
	}
	nf.r.en.ScheduleAfter(nf.cfg.Dispatcher.Downtime.Sample(nf.dispStream), nf.restart)
}

// restart brings the dispatcher back: recover the Algorithm 2 state per
// the configured policy, resolve the outstanding-dispatch table, drain
// parked retransmits and client rescues, flush the downtime buffer, and
// arm the next crash.
func (nf *netfaultRun) restart() {
	r := nf.r
	now := r.en.Now()
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
		if nf.replan != nil && nf.replan.Replan(r.ctx.Speeds, r.ctx.Utilization) == nil {
			nf.stats.PlanRestores++
		}
	case netfault.RecoverCold:
		age = -1
		nf.stats.ColdResets++
		if nf.replan != nil && nf.replan.ReplanProportional(r.ctx.Speeds) == nil {
			// Run the speed-proportional fallback for the relearn window,
			// then re-solve — unless another crash started a new epoch.
			epoch := nf.epoch
			r.en.ScheduleAfter(d.RelearnT, func() {
				if nf.up && nf.epoch == epoch && nf.replan.Replan(r.ctx.Speeds, r.ctx.Utilization) == nil {
					nf.stats.PlanRestores++
				}
			})
		}
	}
	if r.pb != nil {
		r.pb.SetDispatcherUp(now, true)
		r.pb.NoteStateAge(now, age)
		r.pb.Emit(probe.Event{T: now, Kind: probe.EvDispatcherUp, Target: -1, Cause: d.Recovery.String(), Value: age})
	}

	// Resolve the outstanding slab in ascending job ID: rescues schedule
	// events, and slab order (allocation order) must not reach the event
	// queue. The walk only frees slots, so the snapshot stays valid.
	live := make([]int32, 0, len(nf.out)-len(nf.outFree))
	for i := range nf.out {
		if nf.out[i].id != 0 {
			live = append(live, int32(i+1))
		}
	}
	sort.Slice(live, func(a, b int) bool { return nf.out[live[a]-1].id < nf.out[live[b]-1].id })
	for _, slot := range live {
		e := &nf.out[slot-1]
		jj, ok := e.ref.Load()
		if !ok || jj.Finalized || jj.Killed {
			nf.forget(slot)
			continue
		}
		switch d.Recovery {
		case netfault.RecoverAcks:
			if jj.NetAccepted {
				// The reconstruction replayed the computer's ack.
				nf.forget(slot)
			}
			// Unaccepted entries stay tracked with their timers running.
		case netfault.RecoverCheckpoint:
			if e.sentAt > nf.lastCkptT {
				nf.forget(slot)
				if !jj.NetAccepted {
					nf.scheduleRescue(jj)
				}
			}
		case netfault.RecoverCold:
			nf.forget(slot)
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
		if jj.NetSlot != 0 {
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
		r.dispatchJob(j, true)
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
		nf.r.reject(j, OutcomeDroppedDispatcher)
	case netfault.DownBuffer:
		if len(nf.buffer) >= d.BufferCap {
			nf.stats.BufferOverflow++
			nf.r.reject(j, OutcomeDroppedDispatcher)
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
	r := nf.r
	best := -1
	var bestScore float64
	for i := 0; i < r.n; i++ {
		if !r.available(i, r.inj == nil || r.inj.Up(i)) {
			continue
		}
		score := float64(nf.failCount[i]+1) / r.ctx.Speeds[i]
		if best < 0 || score < bestScore {
			best = i
			bestScore = score
		}
	}
	if best < 0 {
		nf.stats.DownDropped++
		r.reject(j, OutcomeDroppedDispatcher)
		return
	}
	nf.failCount[best]++
	nf.stats.FailoverDispatches++
	// The backup's routing decision is the job's first dispatch: it
	// enters the books like a policy decision, but bypasses admission
	// control, deadline stamping and the decision-cost hold (the backup
	// is a last-resort router, not a dispatcher), and the dispatcher
	// does not track it.
	r.addInSystem(1)
	j.Target = best
	r.firstDispatch(j, best, false)
	if r.pb != nil {
		r.emitDispatch(j, "failover")
	}
	if r.spansOn {
		r.pb.SpanSend(j, r.en.Now())
	}
	nf.send(best, j, false)
}

// finish snapshots the counters.
func (nf *netfaultRun) finish() *NetfaultStats {
	s := nf.stats
	return &s
}
