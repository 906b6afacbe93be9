package dispatch

import (
	"fmt"

	"heterosched/internal/rng"
)

// This file implements the state-querying dispatchers of the dynamic
// policies, after Gardner et al. ("Scalable Load Balancing in the
// Presence of Heterogeneous Servers"), who build their
// heterogeneity-aware JSQ(d) and JIQ from two rules: which computers to
// query, and which queried computer gets the job.
//
//   - Sampler — one dispatcher with both rules as parameters. Querying:
//     every up computer in index order, d distinct uniform draws
//     (JSQ(d), Mitzenmacher's power-of-d-choices), or d distinct draws
//     weighted by speed or by the α of Algorithm 1 (pod(d)).
//     Assignment: the shortest queue, or the least (q+1)/speed (the
//     paper's Dynamic Least-Load score).
//   - JIQ — join-idle-queue: computers report idle tokens; the
//     dispatcher sends each job to a token holder, falling back to a
//     Sampler when the idle list is empty.
//
// Unlike the static strategies these need computer state, observed
// through a QueueView bound after the simulated computers exist. The
// stateless strategies never touch a QueueView, which is what keeps
// their zero-query path bit-identical.

// QueueView exposes the computer state a state-querying dispatcher may
// read at decision time.
type QueueView interface {
	// QueueLen returns the number of jobs currently at computer i
	// (queued plus in service).
	QueueLen(i int) int
}

// MaxSampleWidth bounds d for the sampled queries so the sample can
// live on the stack. Far above any d of practical interest (the whole
// point of power-of-d is d ≪ n).
const MaxSampleWidth = 64

// StateBound is a Dispatcher that queries computer state and must be
// bound to a QueueView before its first decision.
type StateBound interface {
	Dispatcher
	// Bind installs the queue-state view.
	Bind(view QueueView)
}

// Sampling is a Sampler's two rules.
type Sampling struct {
	// D is the number of distinct up computers drawn per decision; zero
	// queries every up computer in index order and draws nothing.
	D int
	// Weights, when non-nil, biases the draws: computer i is drawn with
	// probability proportional to Weights[i] over the up computers.
	// Nil draws uniformly.
	Weights []float64
	// Speeds, when non-nil, assigns the job to the queried computer
	// with the least (q+1)/Speeds[i]; nil assigns it to the shortest
	// queue q.
	Speeds []float64
}

// Sampler queries computers by one Sampling rule and assigns each job
// by the other. Ties go to the heavier weight when the draws are
// weighted, then to the earlier query, so a decision is a pure function
// of the query order and the observed queue lengths.
type Sampler struct {
	n, d    int
	st      *rng.Stream
	view    QueueView
	weights []float64
	speeds  []float64
	up      []bool
	// order lists the up computers in index order, the queries of d = 0.
	order []int
	// cum holds the cumulative draw weights over the up computers (nil
	// for uniform draws), and nDraw counts the computers a draw can
	// return: a decision samples min(d, nDraw).
	cum   []float64
	nDraw int
}

// NewSampler returns a sampler over n computers. st is the draw stream;
// it is never read when s.D is zero. Weights must be non-negative with
// a positive sum, and Weights and Speeds must have n entries.
func NewSampler(n int, s Sampling, st *rng.Stream) (*Sampler, error) {
	if n < 1 {
		return nil, fmt.Errorf("dispatch: sampler needs at least one computer, got %d", n)
	}
	if s.D < 0 || s.D > min(n, MaxSampleWidth) {
		return nil, fmt.Errorf("dispatch: sample width %d outside [0, %d] (%d computers, max sample width %d)",
			s.D, min(n, MaxSampleWidth), n, MaxSampleWidth)
	}
	if s.Speeds != nil && len(s.Speeds) != n {
		return nil, fmt.Errorf("dispatch: %d speeds for %d computers", len(s.Speeds), n)
	}
	sm := &Sampler{n: n, d: s.D, st: st, speeds: s.Speeds, order: make([]int, 0, n)}
	if s.Weights != nil {
		if len(s.Weights) != n {
			return nil, fmt.Errorf("dispatch: %d weights for %d computers", len(s.Weights), n)
		}
		sum := 0.0
		for i, w := range s.Weights {
			if !(w >= 0) {
				return nil, fmt.Errorf("dispatch: weight[%d] = %v must be >= 0", i, w)
			}
			sum += w
		}
		if !(sum > 0) {
			return nil, fmt.Errorf("dispatch: weights sum to %v, need > 0", sum)
		}
		sm.weights = append([]float64(nil), s.Weights...)
		sm.cum = make([]float64, n)
	}
	sm.rebuild()
	return sm, nil
}

// Name returns "all" for d = 0, else "jsq(d)" for uniform and "pod(d)"
// for weighted draws.
func (s *Sampler) Name() string {
	switch {
	case s.d == 0:
		return "all"
	case s.weights == nil:
		return fmt.Sprintf("jsq(%d)", s.d)
	default:
		return fmt.Sprintf("pod(%d)", s.d)
	}
}

func (s *Sampler) N() int { return s.n }

// Bind installs the queue-state view.
func (s *Sampler) Bind(view QueueView) { s.view = view }

func (s *Sampler) isUp(i int) bool { return s.up == nil || s.up[i] }

// SetUp installs the availability mask; queries skip down computers.
func (s *Sampler) SetUp(up []bool) error {
	if up == nil {
		s.up = nil
	} else {
		if err := checkMask(up, s.n); err != nil {
			return err
		}
		s.up = append(s.up[:0], up...)
	}
	s.rebuild()
	return nil
}

// rebuild recomputes what the mask decides: the up computers in index
// order, the cumulative draw weights over them and the number of
// computers a draw can return. A mask with every computer up is no
// mask.
func (s *Sampler) rebuild() {
	s.order = s.order[:0]
	for i := 0; i < s.n; i++ {
		if s.isUp(i) {
			s.order = append(s.order, i)
		}
	}
	if len(s.order) == s.n {
		s.up = nil
	}
	s.nDraw = len(s.order)
	if s.cum == nil {
		return
	}
	w := s.weights
	if s.up != nil {
		w = maskWeights(s.weights, s.up)
	}
	run := 0.0
	last := 0
	for i, wi := range w {
		run += wi
		s.cum[i] = run
		if wi > 0 {
			last = i
		}
	}
	// Pin the tail to exactly 1 so the inverse-CDF search always lands
	// on a drawable index (same trick as Random.SetUp).
	for i := last; i < s.n; i++ {
		s.cum[i] = 1
	}
	if s.up == nil {
		// Normalize an unmasked weight vector that doesn't sum to 1.
		for i := 0; i < last; i++ {
			s.cum[i] /= run
		}
	}
	// A computer is drawable when its cumulative step is positive: the
	// weights may give some up computers zero probability.
	s.nDraw = 0
	prev := 0.0
	for _, c := range s.cum {
		if c > prev {
			s.nDraw++
		}
		prev = c
	}
}

// draw returns one computer index: uniform, or by binary search over
// the cumulative weights.
func (s *Sampler) draw() int {
	if s.cum == nil {
		return s.st.Intn(s.n)
	}
	u := s.st.Float64()
	lo, hi := 0, s.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Next returns the computer the assignment rule picks among the
// queried ones: every up computer for d = 0, else min(d, nDraw)
// distinct up computers, all drawn before any is queried.
func (s *Sampler) Next() int {
	if s.d == 0 {
		return s.pick(s.order)
	}
	m := min(s.d, s.nDraw)
	var sample [MaxSampleWidth]int
	picked := 0
draws:
	for picked < m {
		i := s.draw()
		if !s.isUp(i) {
			continue
		}
		for _, p := range sample[:picked] {
			if p == i {
				continue draws
			}
		}
		sample[picked] = i
		picked++
	}
	return s.pick(sample[:picked])
}

// pick queries the computers in order and returns the least key, ties
// to the heavier draw weight, then to the earlier query.
func (s *Sampler) pick(queries []int) int {
	best := queries[0]
	bestKey := s.key(best, s.view.QueueLen(best))
	for _, i := range queries[1:] {
		k := s.key(i, s.view.QueueLen(i))
		if k < bestKey || k == bestKey && s.weights != nil && s.weights[i] > s.weights[best] {
			best, bestKey = i, k
		}
	}
	return best
}

// key is computer i's assignment key at queue length q; lower wins.
func (s *Sampler) key(i, q int) float64 {
	if s.speeds == nil {
		return float64(q)
	}
	return float64(q+1) / s.speeds[i]
}

// JIQ is join-idle-queue dispatching: computers that go idle report a
// token to the dispatcher, which sends each arriving job to a token
// holder (FIFO) and falls back to the configured dispatcher — typically
// biased power-of-d — when the idle list is empty. Each token is spent
// by one dispatch, so a computer holds at most one token at a time.
type JIQ struct {
	n        int
	fallback Dispatcher
	view     QueueView
	tokens   []int // FIFO of idle computer indices
	head     int
	has      []bool
	up       []bool

	// Lease support (control-plane mode). All nil/zero when unused, so
	// the lease-free path is byte-for-byte the PR 9 behavior: expiry is
	// allocated on the first leased token, now is the injected clock
	// without which expiries are never checked, and the hooks observe
	// token outcomes at pop time.
	expiry    []float64 // per-computer lease expiry; 0 = no lease
	now       func() float64
	onSpend   func(i int, expiry float64)
	onExpire  func(i int, expiry float64)
	onDiscard func(i int)
}

// NewJIQ returns a JIQ dispatcher over n computers with the given
// fallback for empty idle lists.
func NewJIQ(n int, fallback Dispatcher) (*JIQ, error) {
	if n < 1 {
		return nil, fmt.Errorf("dispatch: jiq needs at least one computer, got %d", n)
	}
	if fallback == nil {
		return nil, fmt.Errorf("dispatch: jiq needs a fallback dispatcher")
	}
	if fallback.N() != n {
		return nil, fmt.Errorf("dispatch: jiq fallback covers %d computers, want %d", fallback.N(), n)
	}
	return &JIQ{n: n, fallback: fallback, has: make([]bool, n)}, nil
}

func (q *JIQ) Name() string { return "jiq" }
func (q *JIQ) N() int       { return q.n }

// Bind installs the queue-state view on the JIQ dispatcher and its
// fallback.
func (q *JIQ) Bind(view QueueView) {
	q.view = view
	if sb, ok := q.fallback.(StateBound); ok {
		sb.Bind(view)
	}
}

// ReportIdle records an idle token for computer i. A computer holds at
// most one token; re-reports while a token is outstanding are no-ops.
func (q *JIQ) ReportIdle(i int) { q.ReportIdleLease(i, 0) }

// ReportIdleLease records an idle token for computer i with a lease
// expiry (0 = no lease; the token never expires). It reports whether a
// new token was installed: a re-report while a token is outstanding is
// deduplicated — it only refreshes the outstanding token's lease — and
// returns false. This is the idempotent-delivery hook the control plane
// relies on under message duplication.
func (q *JIQ) ReportIdleLease(i int, expiry float64) bool {
	if i < 0 || i >= q.n {
		return false
	}
	if q.has[i] {
		if q.expiry != nil {
			q.expiry[i] = expiry
		}
		return false
	}
	q.has[i] = true
	q.tokens = append(q.tokens, i)
	if expiry != 0 && q.expiry == nil {
		q.expiry = make([]float64, q.n)
	}
	if q.expiry != nil {
		q.expiry[i] = expiry
	}
	return true
}

// SetClock injects the simulation clock used to check token leases at
// pop time. Without a clock, leases are never enforced.
func (q *JIQ) SetClock(now func() float64) { q.now = now }

// SetTokenHooks installs pop-time outcome observers: spend (token used
// for a dispatch, with its lease expiry), expire (dropped past its
// lease), discard (dropped because the holder was down). Any may be
// nil.
func (q *JIQ) SetTokenHooks(onSpend, onExpire func(i int, expiry float64), onDiscard func(i int)) {
	q.onSpend = onSpend
	q.onExpire = onExpire
	q.onDiscard = onDiscard
}

// IdleTokens returns the number of outstanding idle tokens.
func (q *JIQ) IdleTokens() int { return len(q.tokens) - q.head }

// HasToken reports whether computer i currently holds an idle token.
func (q *JIQ) HasToken(i int) bool { return q.has[i] }

func (q *JIQ) isUp(i int) bool { return q.up == nil || q.up[i] }

// SetUp installs the availability mask. Tokens held by down computers
// are discarded at pop time; re-issuing a token to a repaired idle
// computer is the policy layer's job (sched.Scalable.UpSetChanged),
// which sees the whole replica set and can place exactly one token —
// doing it here issued one duplicate per replica and missed the
// repair-to-all-up transition entirely, where the mask arrives as nil.
func (q *JIQ) SetUp(up []bool) error {
	return q.setUpMask(up)
}

func (q *JIQ) setUpMask(up []bool) error {
	if up == nil {
		q.up = nil
	} else {
		if err := checkMask(up, q.n); err != nil {
			return err
		}
		q.up = append(q.up[:0], up...)
	}
	if m, ok := q.fallback.(Masked); ok {
		return m.SetUp(up)
	}
	return nil
}

// Next pops the oldest token held by an up computer and dispatches
// there; with no usable token it falls back. Tokens of down computers
// encountered on the way are discarded — the computer re-reports when
// it next goes idle.
func (q *JIQ) Next() int {
	for q.head < len(q.tokens) {
		i := q.tokens[q.head]
		q.head++
		q.has[i] = false
		switch {
		case q.head == len(q.tokens):
			q.tokens = q.tokens[:0]
			q.head = 0
		case q.head > 64 && 2*q.head >= len(q.tokens):
			// Compact the consumed prefix so the token list stays O(n).
			q.tokens = append(q.tokens[:0], q.tokens[q.head:]...)
			q.head = 0
		}
		exp := 0.0
		if q.expiry != nil {
			exp = q.expiry[i]
			q.expiry[i] = 0
		}
		if !q.isUp(i) {
			if q.onDiscard != nil {
				q.onDiscard(i)
			}
			continue
		}
		if exp > 0 && q.now != nil && exp <= q.now() {
			if q.onExpire != nil {
				q.onExpire(i, exp)
			}
			continue
		}
		if q.onSpend != nil {
			q.onSpend(i, exp)
		}
		return i
	}
	return q.fallback.Next()
}

var (
	_ StateBound = (*Sampler)(nil)
	_ Masked     = (*Sampler)(nil)
	_ StateBound = (*JIQ)(nil)
	_ Masked     = (*JIQ)(nil)
)
