package sched

import (
	"fmt"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// This file wires the scalable-dispatch family (internal/dispatch:
// JSQ(d) and heterogeneity-biased power-of-d on a Sampler, JIQ) into
// complete policies.
// Unlike the static policies, these query live computer state at
// decision time through cluster.StateView, and they shard naturally: K
// dispatcher replicas each sample or hold idle tokens independently, so
// no counter synchronization is needed — the trade the Gardner et al.
// family makes against Algorithm 2's carefully smoothed substreams.

// ScalableKind selects the state-querying dispatch strategy.
type ScalableKind int

const (
	// ScalableJSQ is JSQ(d): sample d uniformly, join the shortest queue.
	ScalableJSQ ScalableKind = iota
	// ScalablePodSpeed is power-of-d with sampling biased by speed.
	ScalablePodSpeed
	// ScalablePodAlpha is power-of-d biased by Algorithm 1's optimized
	// allocation fractions.
	ScalablePodAlpha
	// ScalableJIQ is join-idle-queue with a speed-biased power-of-d
	// fallback.
	ScalableJIQ
)

// Scalable is a scalable-dispatch policy: K dispatcher replicas, each
// owning a private sampler (and, for JIQ, a private idle-token list),
// querying queue lengths through the cluster's StateView at decision
// time. The zero value of Dispatchers means a single dispatcher.
type Scalable struct {
	// Kind selects the strategy; D is the sample width (default 2).
	Kind ScalableKind
	D    int
	// Dispatchers is the number of dispatcher replicas K (default 1);
	// ShardBy selects how arrivals are routed to replicas.
	Dispatchers int
	ShardBy     dispatch.ShardBy
	// Label overrides the derived name when non-empty.
	Label string

	ctx     *cluster.Context
	view    cluster.StateView
	sharded *dispatch.Sharded
	jiqs    []*dispatch.JIQ
	tokenRR uint64
	prevUp  []bool // availability as of the last UpSetChanged; nil = all up

	// Physical control plane (nil = oracle mode, the PR 9 path).
	plane *ctrlplane.Plane
	// tokenHome[i] is the replica computer i's last token report went
	// to: lease renewals re-report there so the dedup can refresh the
	// outstanding token instead of duplicating it on another replica.
	tokenHome []int
	// renewPending[i] guards against stacking renewal chains for one
	// computer (a Departed re-report while a chain is live).
	renewPending []bool
	// onRenew is the lease-renewal handler (a typed engine event whose
	// payload A is the computer), bound once in BindCtrl.
	onRenew func(sim.Msg)
	// renewLane holds the lease renewals: each is armed at now + Lease,
	// so they fall due in arming order (nil without leases).
	renewLane   *sim.Lane
	pendingCost float64
}

var (
	_ cluster.Policy        = (*Scalable)(nil)
	_ cluster.StateAware    = (*Scalable)(nil)
	_ cluster.FaultAware    = (*Scalable)(nil)
	_ cluster.ShardedPolicy = (*Scalable)(nil)
	_ cluster.CtrlAware     = (*Scalable)(nil)
	_ cluster.DecisionCost  = (*Scalable)(nil)
)

// JSQd returns JSQ(d) with a single dispatcher.
func JSQd(d int) *Scalable { return &Scalable{Kind: ScalableJSQ, D: d} }

// PodSpeed returns speed-biased power-of-d with a single dispatcher.
func PodSpeed(d int) *Scalable { return &Scalable{Kind: ScalablePodSpeed, D: d} }

// PodAlpha returns α-biased power-of-d with a single dispatcher.
func PodAlpha(d int) *Scalable { return &Scalable{Kind: ScalablePodAlpha, D: d} }

// JIQ returns join-idle-queue with a single dispatcher.
func JIQ() *Scalable { return &Scalable{Kind: ScalableJIQ} }

func (s *Scalable) d() int {
	if s.D <= 0 {
		return 2
	}
	return s.D
}

func (s *Scalable) k() int {
	if s.Dispatchers <= 0 {
		return 1
	}
	return s.Dispatchers
}

// Name returns the strategy mnemonic, suffixed with the replica count
// when sharded (e.g. "jsq(2)xK4").
func (s *Scalable) Name() string {
	if s.Label != "" {
		return s.Label
	}
	var base string
	switch s.Kind {
	case ScalableJSQ:
		base = fmt.Sprintf("jsq(%d)", s.d())
	case ScalablePodSpeed:
		base = fmt.Sprintf("pod(%d):speed", s.d())
	case ScalablePodAlpha:
		base = fmt.Sprintf("pod(%d):alpha", s.d())
	case ScalableJIQ:
		base = "jiq"
	default:
		base = fmt.Sprintf("scalable(%d)", int(s.Kind))
	}
	if s.k() > 1 {
		return fmt.Sprintf("%sxK%d", base, s.k())
	}
	return base
}

// Init builds the K dispatcher replicas. Replica 0 samples from the
// policy's base dispatch stream and replica k > 0 from a derived
// substream, the same layout as the sharded static policies.
func (s *Scalable) Init(ctx *cluster.Context) error {
	s.ctx = ctx
	n := len(ctx.Speeds)
	streams := shardStreams(ctx.RNG.Derive("dispatch"), s.k())
	// jsq(d) draws uniformly; pod(d) and jiq's fallback draw by speed
	// or by Algorithm 1's α. All join the shortest sampled queue.
	sampling := dispatch.Sampling{D: s.d()}
	switch s.Kind {
	case ScalableJSQ:
	case ScalablePodSpeed, ScalableJIQ:
		sampling.Weights = ctx.Speeds
	case ScalablePodAlpha:
		fr, err := alloc.Optimized{}.Allocate(ctx.Speeds, min(ctx.Utilization, MaxPlanRho))
		if err != nil {
			return fmt.Errorf("sched: %s bias allocation: %w", s.Name(), err)
		}
		sampling.Weights = fr
	default:
		return fmt.Errorf("sched: unknown scalable kind %d", int(s.Kind))
	}
	factory := func(k int) (dispatch.Dispatcher, error) {
		sm, err := dispatch.NewSampler(n, sampling, streams[k])
		switch {
		case err != nil:
			return nil, err
		case s.Kind == ScalableJIQ:
			return dispatch.NewJIQ(n, sm)
		}
		return sm, nil
	}
	sh, err := dispatch.NewSharded(s.k(), s.ShardBy, factory)
	if err != nil {
		return fmt.Errorf("sched: %s dispatcher: %w", s.Name(), err)
	}
	s.sharded = sh
	s.jiqs = nil
	s.prevUp = nil
	s.plane = nil
	s.pendingCost = 0
	if s.Kind == ScalableJIQ {
		s.jiqs = make([]*dispatch.JIQ, s.k())
		for k := range s.jiqs {
			s.jiqs[k] = sh.Replica(k).(*dispatch.JIQ)
		}
	}
	return nil
}

// BindCtrl routes the policy's control traffic through the physical
// control plane: replica samplers get probing views instead of the
// oracle (installed in BindState), JIQ token reports travel over the
// computers' control links with lease renewal, and every decision's
// probe round-trips are charged via TakeDecisionCost. Called by the run
// after Init, before BindState, only when the ctrl layer is enabled.
func (s *Scalable) BindCtrl(p *ctrlplane.Plane) {
	s.plane = p
	p.EnsureReplicas(s.k())
	if s.jiqs != nil {
		n := len(s.ctx.Speeds)
		s.tokenHome = make([]int, n)
		s.renewPending = make([]bool, n)
		for _, q := range s.jiqs {
			q.SetClock(p.Now)
			q.SetTokenHooks(p.NoteTokenSpend, p.NoteTokenExpire, p.NoteTokenDiscard)
		}
		p.SetTokenSink(func(i, k int, expiry float64) bool {
			return s.jiqs[k].ReportIdleLease(i, expiry)
		})
		s.onRenew = s.renew
		if en := s.ctx.Engine; en != nil && p.Lease() > 0 {
			s.renewLane = en.NewLane()
		}
		p.SetExtantFn(func() int64 {
			var total int64
			for _, q := range s.jiqs {
				total += int64(q.IdleTokens())
			}
			return total
		})
	}
}

// BindState installs the queue-state view on every replica and seeds
// the initial idle tokens (every computer starts idle), distributed
// round-robin across the JIQ replicas. s.view always keeps the oracle
// view — it models computer-side knowledge (a computer knows when it
// goes idle); with the control plane bound, the replicas' samplers
// instead observe through per-replica probing views, so the dispatcher
// side acts on stale, lossy state.
func (s *Scalable) BindState(view cluster.StateView) {
	s.view = view
	for k := 0; k < s.sharded.K(); k++ {
		if sb, ok := s.sharded.Replica(k).(dispatch.StateBound); ok {
			if s.plane != nil {
				sb.Bind(s.plane.View(k))
			} else {
				sb.Bind(view)
			}
		}
	}
	for i := 0; i < view.N(); i++ {
		s.reportIdle(i)
	}
}

// reportIdle hands computer i's idle token to the next JIQ replica
// round-robin, the decentralized token placement of the JIQ design.
// With the control plane bound the report is a physical message:
// delivery is delayed, possibly lost or duplicated, the installed token
// carries a lease, and while the computer stays idle it re-reports on
// the lease cadence so a lost token is eventually replaced.
func (s *Scalable) reportIdle(i int) {
	if s.jiqs == nil {
		return
	}
	k := int(s.tokenRR % uint64(len(s.jiqs)))
	s.tokenRR++
	if s.plane == nil {
		s.jiqs[k].ReportIdle(i)
		return
	}
	s.tokenHome[i] = k
	s.sendToken(i, k)
}

// sendToken ships computer i's idle report to replica k over the
// control plane and arms the lease-renewal chain.
func (s *Scalable) sendToken(i, k int) {
	s.plane.SendToken(i, k)
	lease := s.plane.Lease()
	if lease <= 0 || s.renewPending[i] {
		return
	}
	en := s.ctx.Engine
	if en == nil || en.Now()+lease > s.plane.Horizon() {
		return
	}
	s.renewPending[i] = true
	s.renewLane.ScheduleMsg(en.Now()+lease, s.onRenew, sim.Msg{A: i})
}

// renew fires computer i's lease renewal (i = m.A).
func (s *Scalable) renew(m sim.Msg) {
	i := m.A
	s.renewPending[i] = false
	// Re-report only while the computer is still idle (its own ground
	// truth, not the dispatcher's view) and to the same replica, so an
	// undelivered or expired token is replaced and a live one merely has
	// its lease refreshed by the dedup.
	if s.view != nil && s.view.QueueLen(i) == 0 {
		s.sendToken(i, s.tokenHome[i])
	}
}

// Select routes the arrival to a dispatcher replica and delegates the
// sampling decision to it. With the control plane bound, the probes the
// replica issues during the decision accumulate their round-trip cost,
// which the run collects through TakeDecisionCost.
func (s *Scalable) Select(j *sim.Job) int {
	if s.plane == nil {
		if s.ShardBy == dispatch.ShardHash {
			return s.sharded.NextFor(j.ID)
		}
		return s.sharded.Next()
	}
	s.plane.BeginDecision()
	var target int
	if s.ShardBy == dispatch.ShardHash {
		target = s.sharded.NextFor(j.ID)
	} else {
		target = s.sharded.Next()
	}
	s.pendingCost = s.plane.EndDecision(s.sharded.LastReplica())
	return target
}

// TakeDecisionCost returns the control-plane wait accumulated by the
// most recent Select and resets it (cluster.DecisionCost).
func (s *Scalable) TakeDecisionCost() float64 {
	c := s.pendingCost
	s.pendingCost = 0
	return c
}

// Departed reports an idle token when the departure left the computer
// empty (JIQ only; the samplers read queue state on demand).
func (s *Scalable) Departed(j *sim.Job) {
	if s.jiqs == nil || s.view == nil || j.Target < 0 {
		return
	}
	if s.view.QueueLen(j.Target) == 0 {
		s.reportIdle(j.Target)
	}
}

// UpSetChanged masks every replica. With all computers up the mask is
// cleared; with none up the replicas keep their previous mask (same
// keep-previous semantics as the static policies). For JIQ, a repaired
// computer that is idle and whose token is gone — discarded at pop
// while it was down, or its idle report lost while it was unreachable —
// is re-issued exactly one token, placed round-robin like any other
// report. (Re-issuing inside each replica's SetUp minted one token per
// replica and missed the repair-to-all-up transition, where the mask
// arrives as nil.)
func (s *Scalable) UpSetChanged(up []bool) {
	if s.sharded == nil || len(up) != len(s.ctx.Speeds) {
		return
	}
	// Diff against the previous availability before masking: the newly
	// repaired computers are the re-issue candidates. prevUp == nil
	// means all-up, so nothing counts as newly repaired.
	var repaired []int
	if s.prevUp != nil && s.jiqs != nil {
		for i, u := range up {
			if u && !s.prevUp[i] {
				repaired = append(repaired, i)
			}
		}
	}
	s.prevUp = append(s.prevUp[:0], up...)

	nUp := 0
	for _, u := range up {
		if u {
			nUp++
		}
	}
	switch nUp {
	case 0:
		return
	case len(up):
		_ = s.sharded.SetUp(nil)
	default:
		_ = s.sharded.SetUp(up)
	}
	for _, i := range repaired {
		if s.view == nil || s.view.QueueLen(i) != 0 {
			continue
		}
		held := false
		for _, q := range s.jiqs {
			if q.HasToken(i) {
				held = true
				break
			}
		}
		if !held {
			s.reportIdle(i)
		}
	}
}

// Shards returns the replica count K.
func (s *Scalable) Shards() int { return s.k() }

// LastShard returns the replica that made the most recent decision.
func (s *Scalable) LastShard() int {
	if s.sharded == nil {
		return 0
	}
	return s.sharded.LastReplica()
}

// shardStreams returns the per-replica sampling streams: replica 0 keeps
// the base stream (so K=1 is bit-identical to an unsharded dispatcher)
// and replica k > 0 gets an indexed derivation. Derivation does not
// consume parent stream state.
func shardStreams(base *rng.Stream, k int) []*rng.Stream {
	streams := make([]*rng.Stream, k)
	streams[0] = base
	for i := 1; i < k; i++ {
		streams[i] = base.DeriveIndexed("shard", i)
	}
	return streams
}
