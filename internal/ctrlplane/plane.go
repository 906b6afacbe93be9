package ctrlplane

import (
	"math"

	"heterosched/internal/netfault"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// UnknownQueueLen is the pessimistic queue length a replica assumes for
// a computer it has never successfully observed: large enough that any
// real observation wins a shortest-queue comparison, so blind sampling
// degrades to weighted-random among the observed candidates.
const UnknownQueueLen = 1 << 30

// MsgEvent identifies a control-plane message event for the
// observability hooks (mapped to probe event kinds by internal/cluster).
type MsgEvent int

const (
	// MsgTokenReport is an idle-token copy delivered to a replica
	// (cause "accept" or "dedup").
	MsgTokenReport MsgEvent = iota
	// MsgTokenSpend is a token popped and spent on a dispatch; the
	// value carries its lease expiry (0 = no lease).
	MsgTokenSpend
	// MsgTokenExpire is a token dropped at pop time past its lease.
	MsgTokenExpire
	// MsgQueryTimeout is a dispatch decision that waited out the query
	// timeout; the value carries the wait charged to the dispatch.
	MsgQueryTimeout
	// MsgSyncFrame is a counter-sync frame outcome at the receiver
	// (cause "apply" or "stale").
	MsgSyncFrame
)

// Hooks are optional observability callbacks. All fields may be nil.
type Hooks struct {
	// Event reports a discrete control-plane event at time t. target is
	// a computer index for token events and a replica index for query
	// and sync events.
	Event func(t float64, kind MsgEvent, target int, cause string, value float64)
	// InFlight reports the number of control messages in transit.
	InFlight func(t float64, v int)
	// Staleness reports the age of a cached observation served in place
	// of a live probe.
	Staleness func(t float64, age float64)
}

// Source is the ground-truth queue-length reader the plane consults
// when a probe physically reaches a computer (the computer answers with
// its true state; the faults live in the transport).
type Source interface {
	QueueLen(i int) int
}

// Plane is the control-plane runtime for one run: it carries token
// reports, queue-length probes and counter-sync frames over the
// configured faulty links, maintains each replica's cached (stale) view
// of the fleet, and keeps the message ledger for the chaos invariants.
// It is constructed by internal/cluster only when the config is
// enabled.
type Plane struct {
	cfg     *Config
	en      *sim.Engine
	n       int
	horizon float64
	root    *rng.Stream
	linkSt  []*rng.Stream // per computer: token + query draws
	syncSt  []*rng.Stream // per replica: sync-frame draws

	src   Source
	hooks Hooks

	// Per-replica cached view: the last observed queue length per
	// computer and its observation time (NaN = never observed).
	qlen   [][]int
	qstamp [][]float64

	// Per-decision accumulator (decisions are synchronous; the engine
	// is single-threaded, so one set suffices).
	decWait     float64
	decDegraded bool
	decProbes   int

	inFlight int
	extant   func() int64
	stats    Stats

	// sink receives delivered token copies (SetTokenSink). onToken and
	// onReply are the handlers of the plane's typed engine events, bound
	// once in NewPlane: a token copy carries (A = computer, B = replica,
	// X = lease expiry), a late query reply (A = replica, B = computer,
	// ID = the queue length answered, X = the probe time).
	sink             TokenSink
	onToken, onReply func(sim.Msg)
}

// TokenSink receives one delivered idle-token copy: computer i's report
// arriving at replica k with the given lease expiry (0 when leases are
// off). It reports whether the replica accepted the token (false =
// dedup).
type TokenSink func(i, k int, expiry float64) bool

// NewPlane builds the runtime for an enabled config. Substreams for the
// computer control links are derived from root here ("ctrl.link"/i);
// per-replica sync streams are derived on EnsureReplicas.
func NewPlane(en *sim.Engine, cfg *Config, computers int, root *rng.Stream, horizon float64) *Plane {
	p := &Plane{
		cfg:     cfg,
		en:      en,
		n:       computers,
		horizon: horizon,
		root:    root,
		linkSt:  make([]*rng.Stream, computers),
	}
	p.onToken = p.deliverToken
	p.onReply = p.lateReply
	for i := 0; i < computers; i++ {
		p.linkSt[i] = root.DeriveIndexed("ctrl.link", i)
	}
	return p
}

// BindSource installs the ground-truth reader probes consult.
func (p *Plane) BindSource(src Source) { p.src = src }

// SetTokenSink installs the receiver of delivered token copies (bound
// once by the token-reporting policy, before the first SendToken).
func (p *Plane) SetTokenSink(fn TokenSink) { p.sink = fn }

// SetHooks installs the observability callbacks.
func (p *Plane) SetHooks(h Hooks) { p.hooks = h }

// SetExtantFn installs the end-of-run extant-token counter (wired by
// the policy, which owns the JIQ token lists).
func (p *Plane) SetExtantFn(fn func() int64) { p.extant = fn }

// Lease returns the configured token lease (0 = none).
func (p *Plane) Lease() float64 { return p.cfg.Lease }

// Horizon returns the run horizon the plane was built with.
func (p *Plane) Horizon() float64 { return p.horizon }

// Now returns the current simulation time.
func (p *Plane) Now() float64 { return p.en.Now() }

// EnsureReplicas grows the per-replica state (cached views, sync
// streams) to cover k replicas.
func (p *Plane) EnsureReplicas(k int) {
	for len(p.qlen) < k {
		i := len(p.qlen)
		stamps := make([]float64, p.n)
		for j := range stamps {
			stamps[j] = math.NaN()
		}
		p.qlen = append(p.qlen, make([]int, p.n))
		p.qstamp = append(p.qstamp, stamps)
		p.syncSt = append(p.syncSt, p.root.DeriveIndexed("ctrl.sync", i))
	}
}

// Finish snapshots the run's counters (folding in extant tokens) and
// returns them.
func (p *Plane) Finish() *Stats {
	if p.extant != nil {
		p.stats.TokensExtant = p.extant()
	}
	s := p.stats
	return &s
}

func (p *Plane) event(t float64, kind MsgEvent, target int, cause string, value float64) {
	if p.hooks.Event != nil {
		p.hooks.Event(t, kind, target, cause, value)
	}
}

func (p *Plane) addInFlight(t float64, d int) {
	p.inFlight += d
	if p.hooks.InFlight != nil {
		p.hooks.InFlight(t, p.inFlight)
	}
}

// linkCut reports whether computer i's control link is inside a
// partition window at time t.
func (p *Plane) linkCut(i int, t float64) bool {
	return cutBy(p.cfg.Partitions, i, t)
}

// syncCut reports whether replica k is isolated from the sync gossip at
// time t.
func (p *Plane) syncCut(k int, t float64) bool {
	return cutBy(p.cfg.SyncPartitions, k, t)
}

func cutBy(parts []netfault.Partition, idx int, t float64) bool {
	for _, w := range parts {
		if t < w.From || t >= w.To {
			continue
		}
		if len(w.Links) == 0 {
			return true
		}
		for _, l := range w.Links {
			if l == idx {
				return true
			}
		}
	}
	return false
}

// SendToken carries computer i's idle-token report to replica k over
// i's control link. Each surviving copy reaches the token sink at its
// arrival time with the token's lease expiry (0 when leases are off).
func (p *Plane) SendToken(i, k int) {
	p.stats.TokensSent++
	now := p.en.Now()
	if p.linkCut(i, now) {
		p.stats.TokensLost++
		return
	}
	st := p.linkSt[i]
	l := p.cfg.LinkFor(i)
	copies := l.Copies(st)
	if copies > 1 {
		p.stats.TokensDup++
	}
	for c := 0; c < copies; c++ {
		lat, ok := l.Transit(st)
		if !ok {
			p.stats.TokensLost++
			continue
		}
		expiry := 0.0
		if p.cfg.Lease > 0 {
			expiry = now + lat + p.cfg.Lease
		}
		p.addInFlight(now, 1)
		p.en.ScheduleMsg(now+lat, p.onToken, sim.Msg{A: i, B: k, X: expiry})
	}
}

// deliverToken lands one token copy at its replica.
func (p *Plane) deliverToken(m sim.Msg) {
	t := p.en.Now()
	i, expiry := m.A, m.X
	p.addInFlight(t, -1)
	p.stats.TokensDelivered++
	if p.sink(i, m.B, expiry) {
		p.stats.TokensAccepted++
		p.event(t, MsgTokenReport, i, "accept", expiry)
	} else {
		p.stats.TokensDeduped++
		p.event(t, MsgTokenReport, i, "dedup", expiry)
	}
}

// NoteTokenSpend records a token popped and spent on a dispatch.
func (p *Plane) NoteTokenSpend(i int, expiry float64) {
	p.stats.TokensSpent++
	p.event(p.en.Now(), MsgTokenSpend, i, "", expiry)
}

// NoteTokenExpire records a token dropped at pop time past its lease.
func (p *Plane) NoteTokenExpire(i int, expiry float64) {
	p.stats.TokensExpired++
	p.event(p.en.Now(), MsgTokenExpire, i, "", expiry)
}

// NoteTokenDiscard records a token dropped at pop time because its
// holder was down.
func (p *Plane) NoteTokenDiscard(i int) { p.stats.TokensDiscarded++ }

// BeginDecision starts a dispatch decision: subsequent View probes
// accumulate their round-trip cost here. The deciding replica is named
// at EndDecision — it may not be known yet when routing starts.
func (p *Plane) BeginDecision() {
	p.decWait = 0
	p.decDegraded = false
	p.decProbes = 0
}

// EndDecision closes replica k's decision and returns the wait to
// charge to the dispatch: the slowest in-time probe round-trip, floored
// at the query timeout if any probe was lost, blocked or late. Zero
// when the decision issued no probes (e.g. a JIQ token pop).
func (p *Plane) EndDecision(k int) float64 {
	if p.decProbes == 0 {
		return 0
	}
	p.stats.Decisions++
	w := p.decWait
	if p.decDegraded && p.cfg.QueryTO > w {
		w = p.cfg.QueryTO
	}
	if p.decDegraded {
		p.stats.DecisionTimeouts++
		p.event(p.en.Now(), MsgQueryTimeout, k, "", w)
	}
	p.stats.QueryWait += w
	return w
}

// ReplicaView is one replica's window onto the fleet: every QueueLen
// call is a physical probe over the computer's control link, falling
// back to the replica's cached observation (or UnknownQueueLen) when
// the probe is lost, blocked or late. It satisfies the policy-side
// QueueView and the cluster StateView contracts structurally.
type ReplicaView struct {
	p *Plane
	k int
}

// View returns replica k's probing view (EnsureReplicas must cover k).
func (p *Plane) View(k int) *ReplicaView { return &ReplicaView{p: p, k: k} }

// QueueLen probes computer i and returns the freshest queue length the
// replica can act on within the decision's timeout budget.
func (v *ReplicaView) QueueLen(i int) int { return v.p.query(v.k, i) }

// Age returns the age of the replica's current observation of computer
// i: 0 after an in-time probe this decision, the cache age after a
// fallback, +Inf if the computer has never been observed.
func (v *ReplicaView) Age(i int) float64 {
	stamp := v.p.qstamp[v.k][i]
	if math.IsNaN(stamp) {
		return math.Inf(1)
	}
	return v.p.en.Now() - stamp
}

// N returns the fleet size.
func (v *ReplicaView) N() int { return v.p.n }

func (p *Plane) query(k, i int) int {
	now := p.en.Now()
	p.stats.Queries++
	p.decProbes++
	if p.linkCut(i, now) {
		p.stats.QueriesLost++
		p.decDegraded = true
		return p.cached(k, i, now)
	}
	st := p.linkSt[i]
	l := p.cfg.LinkFor(i)
	// The request leg crosses the link first; the reply leg rolls only
	// if the request arrived.
	req, ok := l.Transit(st)
	rep := 0.0
	if ok {
		rep, ok = l.Transit(st)
	}
	if !ok {
		p.stats.QueriesLost++
		p.decDegraded = true
		return p.cached(k, i, now)
	}
	rtt := req + rep
	// The computer answers with its state as of the probe; an in-time
	// reply is usable this decision, a late one only refreshes the
	// cache when it lands.
	val := p.src.QueueLen(i)
	if p.cfg.QueryTO > 0 && rtt > p.cfg.QueryTO {
		p.stats.QueriesLate++
		p.decDegraded = true
		p.addInFlight(now, 1)
		p.en.ScheduleMsg(now+rtt, p.onReply, sim.Msg{A: k, B: i, ID: int64(val), X: now})
		return p.cached(k, i, now)
	}
	p.qlen[k][i] = val
	p.qstamp[k][i] = now
	if rtt > p.decWait {
		p.decWait = rtt
	}
	return val
}

// lateReply lands a query reply that missed its decision's timeout: it
// only refreshes replica k's cache, and only if nothing newer arrived.
func (p *Plane) lateReply(m sim.Msg) {
	k, i, sent := m.A, m.B, m.X
	p.addInFlight(p.en.Now(), -1)
	if stamp := p.qstamp[k][i]; math.IsNaN(stamp) || sent > stamp {
		p.qlen[k][i] = int(m.ID)
		p.qstamp[k][i] = sent
	}
}

func (p *Plane) cached(k, i int, now float64) int {
	stamp := p.qstamp[k][i]
	if math.IsNaN(stamp) {
		p.stats.BlindReads++
		return UnknownQueueLen
	}
	p.stats.StaleReads++
	if p.hooks.Staleness != nil {
		p.hooks.Staleness(now, now-stamp)
	}
	return p.qlen[k][i]
}

// SendSync carries a counter-sync frame from replica `from` to replica
// `to` over the default control link. Each surviving copy invokes
// deliver at its arrival time; the receiver is responsible for the
// versioned stale/dup rejection (NoteSyncApplied / NoteSyncStale).
func (p *Plane) SendSync(from, to int, deliver func()) {
	p.stats.SyncSent++
	now := p.en.Now()
	if p.syncCut(from, now) || p.syncCut(to, now) {
		p.stats.SyncLost++
		return
	}
	st := p.syncSt[from]
	l := p.cfg.Link
	copies := l.Copies(st)
	if copies > 1 {
		p.stats.SyncDup++
	}
	for c := 0; c < copies; c++ {
		lat, ok := l.Transit(st)
		if !ok {
			p.stats.SyncLost++
			continue
		}
		p.addInFlight(now, 1)
		p.en.ScheduleAfter(lat, func() {
			t := p.en.Now()
			p.addInFlight(t, -1)
			p.stats.SyncDelivered++
			deliver()
		})
	}
}

// NoteSyncApplied records a frame merged into the receiver's counters.
func (p *Plane) NoteSyncApplied(to int, ver uint64) {
	p.stats.SyncApplied++
	p.event(p.en.Now(), MsgSyncFrame, to, "apply", float64(ver))
}

// NoteSyncStale records a frame rejected by the per-sender version
// check (a duplicate or an out-of-order straggler).
func (p *Plane) NoteSyncStale(to int, ver uint64) {
	p.stats.SyncStale++
	p.event(p.en.Now(), MsgSyncFrame, to, "stale", float64(ver))
}
