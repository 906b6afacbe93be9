// Package sched assembles complete job scheduling policies from workload
// allocation schemes (internal/alloc) and job dispatching strategies
// (internal/dispatch), and implements the Dynamic Least-Load yardstick.
//
// The paper's Table 2 grid:
//
//	                      weighted alloc   optimized alloc
//	random dispatch       WRAN             ORAN
//	round-robin dispatch  WRR              ORR
//
// Constructors WRAN, ORAN, WRR, ORR build those four; Static composes any
// allocator with any dispatch kind; LeastLoad is the dynamic scheme of
// §2.2/§4.2 with realistic delayed load updates.
package sched

import (
	"fmt"
	"slices"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// DispatchKind selects the job dispatching strategy of a static policy.
type DispatchKind int

const (
	// RandomDispatch sends each job to computer i with probability α_i.
	RandomDispatch DispatchKind = iota
	// RoundRobinDispatch uses the paper's Algorithm 2.
	RoundRobinDispatch
	// CyclicDispatch uses classic cyclic weighted round-robin (ablation).
	CyclicDispatch
)

// String returns the mnemonic suffix used in policy names.
func (k DispatchKind) String() string {
	switch k {
	case RandomDispatch:
		return "RAN"
	case RoundRobinDispatch:
		return "RR"
	case CyclicDispatch:
		return "CYC"
	default:
		return fmt.Sprintf("DispatchKind(%d)", int(k))
	}
}

// ReallocMode selects how a static policy reacts when it learns that the
// set of up computers changed (fault injection, cluster.FaultAware).
type ReallocMode int

const (
	// ReallocStale keeps the original allocation fractions and merely
	// renormalizes them over the surviving computers (the oblivious
	// baseline: the scheduler stops routing into dead computers but does
	// not rethink the split).
	ReallocStale ReallocMode = iota
	// ReallocResolve re-runs the policy's allocator over the surviving
	// speeds at the effective utilization λ/(μ Σ_up s_i) on every up-set
	// change, so the split adapts to the degraded capacity.
	ReallocResolve
)

// String returns the mode mnemonic.
func (m ReallocMode) String() string {
	switch m {
	case ReallocStale:
		return "stale"
	case ReallocResolve:
		return "resolve"
	default:
		return fmt.Sprintf("ReallocMode(%d)", int(m))
	}
}

// ParseReallocMode parses a mode mnemonic (as accepted by the CLIs).
func ParseReallocMode(s string) (ReallocMode, error) {
	switch s {
	case "stale":
		return ReallocStale, nil
	case "resolve":
		return ReallocResolve, nil
	}
	return 0, fmt.Errorf("sched: unknown realloc mode %q (want stale or resolve)", s)
}

// MaxPlanRho is the utilization static allocators plan against when the
// true offered load reaches or exceeds 1: the allocation formulas require
// ρ < 1, and as ρ → 1 the optimized allocation converges to the simple
// weighted one, so planning at just under saturation is the natural
// continuation for overload studies (the same adjustment the paper makes
// for near-100% utilization).
const MaxPlanRho = 1 - 1e-6

// Static is a static scheduling policy: allocation fractions are computed
// once at initialization from average system behavior (speeds and
// utilization) and jobs are dispatched online by a stateless-per-job rule.
type Static struct {
	Allocator alloc.Allocator
	Kind      DispatchKind
	// Label overrides the derived name when non-empty.
	Label string
	// Realloc selects the reaction to computer failures (only relevant
	// when the run injects faults; default ReallocStale).
	Realloc ReallocMode
	// Dispatchers is the number of dispatcher replicas K (default 1,
	// the paper's single central scheduler). Each replica owns private
	// dispatch state over the arrival substream routed to it
	// (dispatch.Sharded). K = 1 is a one-replica Sharded whose replica 0
	// keeps the base dispatch stream, so it decides exactly as the bare
	// dispatcher would.
	Dispatchers int
	// ShardBy selects how arrivals are routed to replicas (rr or hash);
	// only meaningful with Dispatchers > 1.
	ShardBy dispatch.ShardBy
	// SyncEvery, when positive and Dispatchers > 1, periodically
	// synchronizes the replicas' Algorithm 2 counters every SyncEvery
	// simulated seconds (dispatch.Sharded.SyncNow). Zero means never.
	SyncEvery float64

	ctx *cluster.Context
	// shardRNGs are the per-replica dispatch streams, derived once at
	// Init and reused across dispatcher rebuilds (UpSetChanged, Replan),
	// so the random-dispatch sequence continues instead of restarting.
	shardRNGs []*rng.Stream
	fractions []float64
	// sharded holds the K dispatcher replicas (valid after Init).
	sharded *dispatch.Sharded
	// lastUp remembers the most recent availability mask so install can
	// reapply it to a rebuilt dispatcher.
	lastUp []bool

	// Physical counter-sync (nil plane = instantaneous SyncNow, the
	// PR 9 path). Each sync tick sends one versioned frame per Syncer
	// replica to its ring successor over the control plane; receivers
	// reject stale or duplicate versions, so a partitioned replica
	// degrades to its private counters and rejoins monotonically when
	// frames flow again.
	plane   *ctrlplane.Plane
	syncVer uint64
	// syncSeen[to*K+from] is the highest frame version receiver `to`
	// has accepted from sender `from`.
	syncSeen []uint64
}

var _ cluster.Policy = (*Static)(nil)
var _ cluster.FractionProvider = (*Static)(nil)
var _ cluster.FaultAware = (*Static)(nil)
var _ cluster.Replannable = (*Static)(nil)
var _ cluster.CtrlAware = (*Static)(nil)

// Name returns the policy label (e.g. "ORR" for optimized allocation with
// round-robin dispatch).
func (s *Static) Name() string {
	if s.Label != "" {
		return s.Label
	}
	name := s.Allocator.Name() + s.Kind.String()
	if s.Dispatchers > 1 {
		name = fmt.Sprintf("%sxK%d", name, s.Dispatchers)
	}
	return name
}

// Init computes the allocation for the run's speeds and utilization and
// installs the dispatcher. An offered load at or beyond saturation is
// planned at MaxPlanRho so static policies remain runnable in overload
// studies instead of failing with alloc.ErrInfeasible.
func (s *Static) Init(ctx *cluster.Context) error {
	s.ctx = ctx
	// BindCtrl (when the run has a control plane) arrives after Init;
	// resetting here keeps a policy value reused across replications
	// from carrying a dead plane, frame versions or the previous run's
	// availability mask into this run.
	s.plane = nil
	s.syncVer = 0
	s.syncSeen = nil
	s.lastUp = nil
	// Derivation does not consume parent stream state.
	s.shardRNGs = shardStreams(ctx.RNG.Derive("dispatch"), s.Shards())
	fr, err := s.Allocator.Allocate(ctx.Speeds, min(ctx.Utilization, MaxPlanRho))
	if err != nil {
		return fmt.Errorf("sched: %s allocation: %w", s.Name(), err)
	}
	if err := s.install(fr); err != nil {
		return fmt.Errorf("sched: %s dispatcher: %w", s.Name(), err)
	}
	s.scheduleSync()
	return nil
}

// install builds the K dispatcher replicas over fr, swaps them in with
// fr (between engine events) and masks them with the last known up-set.
// On error the previous plan stays in place.
func (s *Static) install(fr []float64) error {
	sh, err := dispatch.NewSharded(s.Shards(), s.ShardBy, func(k int) (dispatch.Dispatcher, error) {
		switch s.Kind {
		case RandomDispatch:
			return dispatch.NewRandom(fr, s.shardRNGs[k])
		case RoundRobinDispatch:
			return dispatch.NewRoundRobin(fr)
		case CyclicDispatch:
			return dispatch.NewCyclicWRR(fr, 1000)
		default:
			return nil, fmt.Errorf("sched: unknown dispatch kind %v", s.Kind)
		}
	})
	if err != nil {
		return err
	}
	s.fractions = fr
	s.sharded = sh
	s.applyMask()
	return nil
}

// scheduleSync installs the periodic counter-sync chain (Shards > 1 and
// SyncEvery > 0 only; otherwise no event is ever scheduled, keeping
// sharding-off runs bit-identical). The chain self-terminates at the
// run horizon so draining runs finish.
func (s *Static) scheduleSync() {
	if s.Shards() == 1 || !(s.SyncEvery > 0) || s.ctx.Engine == nil || !(s.ctx.Horizon > 0) {
		return
	}
	en := s.ctx.Engine
	var tick func()
	tick = func() {
		// The tick reads the replicas and branches on the plane at fire
		// time, not install time: a Replan may have rebuilt the replicas,
		// BindCtrl arrives after Init (which installs this chain), and
		// the same chain must serve both modes.
		if s.plane != nil {
			s.physicalSyncRound(s.sharded)
		} else {
			s.sharded.SyncNow()
		}
		if en.Now()+s.SyncEvery <= s.ctx.Horizon {
			en.ScheduleAfter(s.SyncEvery, tick)
		}
	}
	if s.SyncEvery <= s.ctx.Horizon {
		en.ScheduleAfter(s.SyncEvery, tick)
	}
}

// BindCtrl routes counter-sync exchanges through the physical control
// plane (cluster.CtrlAware): instead of the instantaneous all-pairs
// SyncNow, each tick sends one versioned frame per participating replica
// to its ring successor, subject to the plane's sync-link faults.
func (s *Static) BindCtrl(p *ctrlplane.Plane) {
	s.plane = p
	if s.Dispatchers > 1 {
		p.EnsureReplicas(s.Dispatchers)
		s.syncSeen = make([]uint64, s.Dispatchers*s.Dispatchers)
	}
}

// physicalSyncRound runs one control-plane gossip round: every replica
// whose dispatcher participates in counter-sync snapshots its state and
// sends it to the next participant around the ring. Frames ride
// plane.SendSync, so a partition blocks the exchange at send time and
// the isolated replica keeps dispatching on its private counters.
func (s *Static) physicalSyncRound(sh *dispatch.Sharded) {
	type share struct {
		k      int
		assign []int64
		next   []float64
	}
	var frames []share
	for k := 0; k < sh.K(); k++ {
		if a, nx, ok := sh.SyncShareOf(k); ok {
			frames = append(frames, share{k, a, nx})
		}
	}
	if len(frames) < 2 {
		return
	}
	s.syncVer++
	ver := s.syncVer
	for idx, f := range frames {
		to := frames[(idx+1)%len(frames)].k
		from, a, nx := f.k, f.assign, f.next
		s.plane.SendSync(from, to, func() {
			s.applySyncFrame(to, from, ver, a, nx)
		})
	}
}

// applySyncFrame is the receiver side of a gossip frame, running at the
// frame's (possibly delayed, duplicated, or reordered) delivery time.
// Versions are monotonic per (receiver, sender) edge: a frame at or
// below the last accepted version is rejected, which both dedups
// duplicated deliveries and makes a partitioned replica's rejoin
// monotonic — it never blends state older than what it already absorbed.
func (s *Static) applySyncFrame(to, from int, ver uint64, assign []int64, next []float64) {
	if s.plane == nil || len(s.syncSeen) != s.Dispatchers*s.Dispatchers {
		return
	}
	idx := to*s.Dispatchers + from
	if ver <= s.syncSeen[idx] {
		s.plane.NoteSyncStale(to, ver)
		return
	}
	s.syncSeen[idx] = ver
	s.sharded.SyncBlend(to, assign, next)
	s.plane.NoteSyncApplied(to, ver)
}

// Shards returns the dispatcher replica count K (cluster.ShardedPolicy).
func (s *Static) Shards() int {
	if s.Dispatchers <= 1 {
		return 1
	}
	return s.Dispatchers
}

// LastShard returns the replica that made the most recent decision
// (cluster.ShardedPolicy).
func (s *Static) LastShard() int { return s.sharded.LastReplica() }

// Select dispatches the next job through the replica its routing picks
// (hash routing keys on the job ID).
func (s *Static) Select(j *sim.Job) int { return s.sharded.NextFor(j.ID) }

// Departed is a no-op: static policies ignore system state.
func (s *Static) Departed(*sim.Job) {}

// UpSetChanged reacts to a detected failure or repair: under
// ReallocResolve the allocator is re-run over the surviving speeds and
// the dispatcher rebuilt; in both modes the dispatcher is then masked so
// it never selects a down computer. With every computer down the previous
// mask is kept — there is no good routing decision, and jobs keep
// queueing until a repair is detected.
func (s *Static) UpSetChanged(up []bool) {
	if len(up) != len(s.ctx.Speeds) || !slices.Contains(up, true) {
		return
	}
	s.lastUp = append(s.lastUp[:0], up...)
	if s.Realloc == ReallocResolve && s.install(s.resolveFractions(up)) == nil {
		return // install masked the rebuilt dispatcher
	}
	s.applyMask()
}

// applyMask masks the current dispatcher with the last known up-set.
func (s *Static) applyMask() {
	switch {
	case s.lastUp == nil:
	case slices.Contains(s.lastUp, false):
		_ = s.sharded.SetUp(s.lastUp)
	default:
		_ = s.sharded.SetUp(nil)
	}
}

// Replan re-solves the policy's allocation for the believed speeds and
// utilization — the adaptive control loop's entry point
// (cluster.Replannable). The utilization is clamped to MaxPlanRho like
// Init; on success the fresh fractions and a rebuilt dispatcher are
// swapped in atomically (between engine events) and any known
// availability mask is reapplied. On any allocator or dispatcher error
// the previous plan stays in place and the error is returned, so the
// caller can fall back.
func (s *Static) Replan(speeds []float64, rho float64) error {
	if s.ctx == nil || len(speeds) != len(s.ctx.Speeds) {
		return fmt.Errorf("sched: %s replan: got %d speeds, policy has %d", s.Name(), len(speeds), len(s.ctx.Speeds))
	}
	fr, err := s.Allocator.Allocate(speeds, min(rho, MaxPlanRho))
	if err != nil {
		return fmt.Errorf("sched: %s replan allocation: %w", s.Name(), err)
	}
	if err := s.install(fr); err != nil {
		return fmt.Errorf("sched: %s replan dispatcher: %w", s.Name(), err)
	}
	return nil
}

// ReplanProportional applies speed-proportional fractions over the
// believed speeds — the safe fallback when estimates are untrustworthy
// or the allocator reports infeasibility: proportional weighting
// equalizes utilizations, so no computer saturates before the whole
// system does.
func (s *Static) ReplanProportional(speeds []float64) error {
	if s.ctx == nil || len(speeds) != len(s.ctx.Speeds) {
		return fmt.Errorf("sched: %s replan: got %d speeds, policy has %d", s.Name(), len(speeds), len(s.ctx.Speeds))
	}
	fr, err := alloc.Proportional{}.Allocate(speeds, 0.5)
	if err != nil {
		return fmt.Errorf("sched: %s proportional fallback: %w", s.Name(), err)
	}
	if err := s.install(fr); err != nil {
		return fmt.Errorf("sched: %s proportional fallback dispatcher: %w", s.Name(), err)
	}
	return nil
}

// resolveFractions re-runs the allocator over the surviving computers at
// the utilization the offered load implies for the reduced capacity,
// returning full-length fractions with zeros at down computers. If the
// degraded system is saturated (the allocator reports
// alloc.ErrInfeasible) or the allocator fails for any other reason, it
// falls back to the stale fractions renormalized over the survivors —
// the same split ReallocStale would route: degraded but predictable
// routing beats refusing to adapt.
func (s *Static) resolveFractions(up []bool) []float64 {
	speeds := s.ctx.Speeds
	upSpeeds := make([]float64, 0, len(speeds))
	idx := make([]int, 0, len(speeds))
	sumAll, sumUp := 0.0, 0.0
	for i, sp := range speeds {
		sumAll += sp
		if up[i] {
			upSpeeds = append(upSpeeds, sp)
			idx = append(idx, i)
			sumUp += sp
		}
	}
	rhoEff := s.ctx.Utilization * sumAll / sumUp
	fr, err := s.Allocator.Allocate(upSpeeds, rhoEff)
	if err != nil {
		return s.staleRenormalized(up)
	}
	full := make([]float64, len(speeds))
	for k, i := range idx {
		full[i] = fr[k]
	}
	return full
}

// staleRenormalized returns the current fractions with down computers
// zeroed and the remaining mass rescaled to 1. When the surviving
// computers carried no mass in the stale split (all their fractions were
// zero), it splits equally among them.
func (s *Static) staleRenormalized(up []bool) []float64 {
	full := make([]float64, len(s.fractions))
	sum := 0.0
	nUp := 0
	for i, f := range s.fractions {
		if up[i] {
			full[i] = f
			sum += f
			nUp++
		}
	}
	if sum > 0 {
		for i := range full {
			full[i] /= sum
		}
		return full
	}
	for i := range full {
		full[i] = 0
		if up[i] {
			full[i] = 1 / float64(nUp)
		}
	}
	return full
}

// Fractions returns the computed allocation (valid after Init).
func (s *Static) Fractions() []float64 {
	out := make([]float64, len(s.fractions))
	copy(out, s.fractions)
	return out
}

// The four named combinations of Table 2.

// WRAN is simple weighted allocation with random dispatching — the
// simplest speed-aware static policy, the paper's baseline.
func WRAN() *Static { return &Static{Allocator: alloc.Proportional{}, Kind: RandomDispatch} }

// ORAN is optimized allocation (Algorithm 1) with random dispatching.
func ORAN() *Static { return &Static{Allocator: alloc.Optimized{}, Kind: RandomDispatch} }

// WRR is simple weighted allocation with round-robin dispatching
// (Algorithm 2).
func WRR() *Static { return &Static{Allocator: alloc.Proportional{}, Kind: RoundRobinDispatch} }

// ORR is the paper's headline policy: optimized allocation with
// round-robin dispatching.
func ORR() *Static { return &Static{Allocator: alloc.Optimized{}, Kind: RoundRobinDispatch} }

// ORRAvailability is ORR planned against effective speeds s_i·A_i, where
// A_i is computer i's long-run availability (alloc.AvailabilityAware): a
// failure-prone computer gets less work even while it is up, trading a
// little best-case response time for much less exposure when it fails.
func ORRAvailability(avail []float64) *Static {
	return &Static{
		Allocator: alloc.AvailabilityAware{Base: alloc.Optimized{}, Availability: avail},
		Kind:      RoundRobinDispatch,
		Label:     "ORRa",
	}
}

// ORRCapped is ORR with a per-computer utilization ceiling (see
// alloc.CappedOptimized): the optimized allocation, except no computer is
// loaded above rhoMax. A robustness-oriented extension: under bursty
// arrivals the hottest (fastest) computers are exactly where the M/M/1
// model underestimates delay.
func ORRCapped(rhoMax float64) *Static {
	return &Static{
		Allocator: alloc.CappedOptimized{MaxUtilization: rhoMax},
		Kind:      RoundRobinDispatch,
		Label:     fmt.Sprintf("ORRcap(%.2g)", rhoMax),
	}
}

// ORRWithLoadError is ORR computed against a mis-estimated utilization
// (§5.4): relErr = −0.10 underestimates the load by 10%. It accepts
// allocations that saturate a computer under the true load, so the
// unstable regime the paper observes under severe underestimation at
// high load can be simulated.
func ORRWithLoadError(relErr float64) *Static {
	return &Static{
		Allocator: alloc.WithEstimationError{Base: alloc.Optimized{}, Err: relErr},
		Kind:      RoundRobinDispatch,
		Label:     fmt.Sprintf("ORR(%+.0f%%)", 100*relErr),
	}
}

// LeastLoad is the Dynamic Least-Load algorithm (§2.2, §4.2), used as the
// performance yardstick for the static schemes, and its power-of-d
// relative JSQ(d). The central scheduler tracks a load index (run-queue
// length) per computer:
//
//   - On dispatch, the target's index is incremented immediately (no
//     rescheduling is allowed, so the scheduler knows the assignment).
//   - On job completion, the computer notices after U(0,1) seconds (it
//     polls its queue once per second) and sends an update message whose
//     transfer delay is exponential with mean 0.05 s; only then does the
//     scheduler decrement the index.
//
// Each arriving job goes to the computer minimizing the normalized load
// (index+1)/speed among the computers the scheduler queries: every
// computer it believes up (D = 0), or D distinct up computers drawn
// uniformly from the policy stream, the one its update delays use.
//
// LeastLoad keeps the dispatcher's own count; Scalable reads state the
// computers report. Both decide through one dispatch.Sampler.
type LeastLoad struct {
	// D is the number of computers sampled per job; zero scans them all.
	D int
	// Instant disables both delays, modeling an idealized oracle
	// scheduler (for ablations).
	Instant bool

	ctx     *cluster.Context
	load    loadIndex
	sampler *dispatch.Sampler
	// onDecrement is the delayed decrement's handler (a typed engine
	// event), bound once in Init.
	onDecrement func(sim.Msg)
}

// The paper's load-update delays (§4.2): a computer polls its queue
// every detectMax seconds, and the update message takes an exponential
// transfer delay of mean messageDelay seconds.
const (
	detectMax    = 1.0
	messageDelay = 0.05
)

// loadIndex is the dispatcher-side load count, the sampler's QueueView.
type loadIndex []int

func (l loadIndex) QueueLen(i int) int { return l[i] }

var _ cluster.Policy = (*LeastLoad)(nil)
var _ cluster.FaultAware = (*LeastLoad)(nil)

// NewLeastLoad returns the paper-parameterized Dynamic Least-Load policy.
func NewLeastLoad() *LeastLoad { return &LeastLoad{} }

// NewPowerOfTwo returns the classic two-choices variant, JSQ(2).
func NewPowerOfTwo() *LeastLoad { return &LeastLoad{D: 2} }

// Name returns "LL" or "JSQ(d)", suffixed "*" for the instant-update
// variant.
func (l *LeastLoad) Name() string {
	name := "LL"
	if l.D > 0 {
		name = fmt.Sprintf("JSQ(%d)", l.D)
	}
	if l.Instant {
		name += "*"
	}
	return name
}

// Init captures the context, zeroes the load indices and builds the
// sampler over them.
func (l *LeastLoad) Init(ctx *cluster.Context) error {
	l.ctx = ctx
	l.load = make(loadIndex, len(ctx.Speeds))
	sm, err := dispatch.NewSampler(len(ctx.Speeds), dispatch.Sampling{D: l.D, Speeds: ctx.Speeds}, ctx.RNG)
	if err != nil {
		return fmt.Errorf("sched: %s: %w", l.Name(), err)
	}
	sm.Bind(l.load)
	l.sampler = sm
	l.onDecrement = l.decrement
	return nil
}

// Select picks the computer with the least normalized load among those
// queried and charges the new job to it immediately.
func (l *LeastLoad) Select(*sim.Job) int {
	i := l.sampler.Next()
	l.load[i]++
	return i
}

// UpSetChanged masks the detected-down computers out of the queries.
// With every computer down the previous mask is kept, as the static
// policies do: jobs queue at their targets until a repair.
func (l *LeastLoad) UpSetChanged(up []bool) { _ = l.sampler.SetUp(up) }

// Departed schedules the delayed load-index decrement.
func (l *LeastLoad) Departed(j *sim.Job) {
	target := j.Target
	if l.Instant {
		l.load[target]--
		return
	}
	delay := l.ctx.RNG.Uniform(0, detectMax) + l.ctx.RNG.Exp(messageDelay)
	en := l.ctx.Engine
	en.ScheduleMsg(en.Now()+delay, l.onDecrement, sim.Msg{A: target})
}

// decrement applies one delayed load-index decrement (computer m.A).
func (l *LeastLoad) decrement(m sim.Msg) { l.load[m.A]-- }
