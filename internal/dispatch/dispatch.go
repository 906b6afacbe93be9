// Package dispatch implements job dispatching strategies — the second of
// the paper's two optimization techniques (§3). A Dispatcher splits the
// incoming job stream into per-computer substreams in proportion to a
// workload allocation vector α, deciding online which computer receives
// each arriving job.
//
// Three strategies are provided:
//
//   - Random (§3.1): send each job to computer i with probability α_i.
//   - RoundRobin (§3.2, Algorithm 2): the paper's smoothed weighted
//     round-robin. It equalizes the number of system arrivals between
//     successive jobs sent to the same computer, which smooths each
//     computer's arrival substream without measuring inter-arrival times.
//   - CyclicWRR: the classic cyclic weighted round-robin (as found in
//     traditional load balancers), included as an ablation baseline; it
//     sends bursts of consecutive jobs to the same computer when weights
//     are uneven.
//
// The Deviation helpers implement the paper's workload allocation
// deviation metric (footnote 4): Σ_i (α_i − α'_i)² over an observation
// interval, used in Figure 2 to compare strategies.
package dispatch

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"heterosched/internal/rng"
)

// ErrBadFractions is returned when a fraction vector is not a probability
// vector.
var ErrBadFractions = errors.New("dispatch: fractions must be non-negative and sum to 1")

// Dispatcher assigns arriving jobs to computers. Implementations are not
// safe for concurrent use; the simulator owns one per scheduler.
type Dispatcher interface {
	// Next returns the index of the computer that receives the next
	// arriving job.
	Next() int
	// N returns the number of computers.
	N() int
	// Name identifies the strategy ("RAN", "RR", ...).
	Name() string
}

// checkFractions validates α and returns a defensive copy.
func checkFractions(fractions []float64) ([]float64, error) {
	if len(fractions) == 0 {
		return nil, fmt.Errorf("%w: empty vector", ErrBadFractions)
	}
	sum := 0.0
	for i, f := range fractions {
		if f < 0 || math.IsNaN(f) {
			return nil, fmt.Errorf("%w: fraction[%d] = %v", ErrBadFractions, i, f)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("%w: sum = %v", ErrBadFractions, sum)
	}
	cp := make([]float64, len(fractions))
	copy(cp, fractions)
	return cp, nil
}

// Random dispatches each job independently at random with probabilities α
// (§3.1). Selection inverts the cumulative vector by binary search,
// O(log n).
type Random struct {
	fr  []float64
	cum []float64
	st  *rng.Stream

	// maskedCum replaces cum while an up-set mask is active (SetUp).
	maskedCum []float64
}

// NewRandom returns a random dispatcher over the given fractions using the
// supplied stream.
func NewRandom(fractions []float64, st *rng.Stream) (*Random, error) {
	fr, err := checkFractions(fractions)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, len(fr))
	run := 0.0
	for i, f := range fr {
		run += f
		cum[i] = run
	}
	cum[len(cum)-1] = 1 // absorb rounding
	return &Random{fr: fr, cum: cum, st: st}, nil
}

func (r *Random) Name() string { return "RAN" }
func (r *Random) N() int       { return len(r.cum) }

func (r *Random) Next() int {
	cum := r.cum
	if r.maskedCum != nil {
		cum = r.maskedCum
	}
	return searchCum(cum, r.st.Float64())
}

// searchCum returns the first index i with cum[i] > u, for u in [0, 1) and
// a cumulative vector whose last entry is pinned to 1. The predicate is
// monotone even where rounding leaves an entry just above 1 before the
// pinned tail, so this is the computer a linear inverse-CDF walk picks.
func searchCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// RoundRobin is the paper's Algorithm 2: round-robin based job
// dispatching generalized to unequal fractions.
//
// Each computer i tracks:
//
//	assign — the number of jobs sent to it so far,
//	next   — the expected number of further system arrivals before its
//	         next assignment.
//
// Every arriving job goes to the computer with minimum next (ties broken
// by the smaller normalized assignment (assign+1)/α_i, then by the lower
// index); the winner's next is increased by 1/α_i, and next is
// decremented by 1 for every computer that has already received at least
// one job. The next fields start at the guard value 1 so lightly weighted
// computers receive their first jobs spread out over the first cycle
// rather than in a clump.
//
// Each decision costs O(log n). Step 2.h's decrement of every started
// computer is one increment of a global arrival count: a started, up
// computer stores its next counter as of an earlier arrival, and the
// arrivals since are subtracted only when the counter is read. The
// started, selectable computers sit in a binary min-heap in selection
// order. The unstarted ones, whose guard values do not move, sit in a
// queue sorted once per mask change, so a computer's first job pops the
// queue's head in O(1). Every winner is the heap's root or the queue's
// head. See DESIGN.md §9.
type RoundRobin struct {
	fractions []float64

	// up and eff support failure masking (SetUp): eff holds the
	// fractions renormalized over the up computers (eff == fractions
	// when no mask is active), and down computers are frozen — never
	// selected, and their next counters stop decrementing so a repaired
	// computer rejoins the rotation without a burst.
	up  []bool
	eff []float64

	// ent holds one entry per computer in three regions: ent[:hs] is the
	// started heap, ent[len(ent)-hu:] the unstarted queue in selection
	// order (its head is ent[len(ent)-hu]), and the entries in between are
	// parked: down, or with a zero effective fraction.
	ent    []rrEntry
	hs, hu int
	// arrivals counts the jobs dispatched: step 2.h's clock.
	arrivals int64
}

// rrEntry is one computer's Algorithm 2 state. The next counter of a
// started, up computer is val − (arrivals − at): val is the counter as of
// arrival at, when it was last selected or the mask last changed. Other
// computers' counters are frozen and equal val. An unstarted computer's
// counter needs no anchor, so in the unstarted queue at holds instead the
// bits of its tie key 1/α (see rebuild).
type rrEntry struct {
	val    float64
	at     int64
	assign int64
	i      int
}

// NewRoundRobin returns a smoothed round-robin dispatcher over the given
// fractions (Algorithm 2 step 1 initialization).
func NewRoundRobin(fractions []float64) (*RoundRobin, error) {
	fr, err := checkFractions(fractions)
	if err != nil {
		return nil, err
	}
	rr := &RoundRobin{fractions: fr, eff: fr, ent: make([]rrEntry, len(fr))}
	for i := range rr.ent {
		rr.ent[i] = rrEntry{val: 1, i: i} // guard value (step 1.b)
	}
	rr.rebuild()
	return rr, nil
}

// isUp reports whether computer i is selectable (no mask means all up).
func (rr *RoundRobin) isUp(i int) bool { return rr.up == nil || rr.up[i] }

func (rr *RoundRobin) Name() string { return "RR" }
func (rr *RoundRobin) N() int       { return len(rr.fractions) }

func (rr *RoundRobin) Next() int {
	// Steps 2.b–2.c: select the computer with minimum next, breaking ties
	// by the smaller normalized assignment count, from the heap's root and
	// the queue's head. Down and zero-fraction computers are in neither
	// (step 2.c.1).
	fromUnstarted := rr.hs == 0
	if !fromUnstarted && rr.hu > 0 {
		// An unstarted counter is frozen: anchored at the current arrival
		// it reads as its guard value.
		u := rr.ent[len(rr.ent)-rr.hu]
		u.at = rr.arrivals
		fromUnstarted = rr.before(&u, &rr.ent[0])
	}
	var sel int
	if fromUnstarted {
		sel = rr.start()
	} else {
		// Steps 2.e–2.f: schedule the winner's next turn 1/α ahead; count
		// the job.
		w := &rr.ent[0]
		sel = w.i
		w.val = rr.counter(w) + 1/rr.eff[sel]
		w.at = rr.arrivals
		w.assign++
		rr.siftDown(0)
	}
	// Step 2.h: one system arrival has elapsed for every started computer.
	rr.arrivals++
	return sel
}

// start selects the unstarted queue's head: step 2.d resets its guard
// value, steps 2.e–2.f give it its first job, and it moves onto the
// started heap.
func (rr *RoundRobin) start() int {
	if rr.hu == 0 {
		panic("dispatch: all fractions zero") // impossible: Σα = 1 over the up-set
	}
	head := len(rr.ent) - rr.hu
	w := rr.ent[head]
	rr.hu--
	// The first parked entry moves into the head's slot, making room for
	// the winner at the end of the started heap.
	rr.ent[head] = rr.ent[rr.hs]
	w.val = 1 / rr.eff[w.i]
	w.at = rr.arrivals
	w.assign = 1
	rr.hs++
	rr.siftUp(0, rr.hs-1, w)
	return w.i
}

// before is the selection order: smaller next counter first, then
// tieBefore. It compares val + at exactly.
func (rr *RoundRobin) before(a, b *rrEntry) bool {
	// Rounding is monotone, so the rounded a.val − b.val decides unless it
	// equals b.at − a.at.
	s, d := a.val-b.val, float64(b.at-a.at)
	return s < d || s == d && rr.beforeTied(a, b)
}

// beforeTied is before where a.val − b.val rounds to b.at − a.at. With
// equal anchors that means equal counters.
func (rr *RoundRobin) beforeTied(a, b *rrEntry) bool {
	if a.at != b.at {
		if c := cmpSum(a.val, a.at, b.val, b.at); c != 0 {
			return c < 0
		}
	}
	return rr.tieBefore(a, b)
}

// cmpSum returns the sign of (x + a) − (y + b), computed exactly for
// integers a and b less than 2^53 apart.
func cmpSum(x float64, a int64, y float64, b int64) int {
	d := float64(b - a)
	s := x - y // rounding is monotone: s < d implies x − y < d
	switch {
	case s < d:
		return -1
	case s > d:
		return 1
	}
	// x − y rounded to d: the sign of its rounding error decides (Knuth's
	// TwoSum gives x − y == s + e exactly).
	z := s - x
	e := (x - (s - z)) + (-y - z)
	switch {
	case e < 0:
		return -1
	case e > 0:
		return 1
	}
	return 0
}

// tieBefore orders two entries with equal next counters: the smaller
// normalized assignment (assign+1)/α first, then the lower index.
func (rr *RoundRobin) tieBefore(a, b *rrEntry) bool {
	na := float64(a.assign+1) / rr.eff[a.i]
	nb := float64(b.assign+1) / rr.eff[b.i]
	if na != nb {
		return na < nb
	}
	return a.i < b.i
}

// siftDown restores the started heap's order below position p. It walks
// the hole at p down to a leaf along the smaller children and then moves
// the displaced entry back up. A winner's next counter grows by a whole
// period, so it belongs near the leaves, and this takes about half the
// comparisons of sifting it down level by level.
func (rr *RoundRobin) siftDown(p int) {
	e := rr.ent[:rr.hs]
	x := e[p]
	top := p
	for {
		c := 2*p + 1
		if c >= len(e) {
			break
		}
		if c+1 < len(e) {
			// rr.before(r, l), written out: the compiler does not inline
			// before, and this loop is Next's hot path. Adding the
			// comparison's result takes no branch on the counters; only an
			// exact tie jumps to beforeTied.
			l, r := &e[c], &e[c+1]
			if s, d := r.val-l.val, float64(l.at-r.at); s != d {
				c += b2i(s < d)
			} else if rr.beforeTied(r, l) {
				c++
			}
		}
		e[p] = e[c]
		p = c
	}
	rr.siftUp(top, p, x)
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// siftUp stores x in the started heap's hole at position p, moving it up
// toward position top while it precedes its parent.
func (rr *RoundRobin) siftUp(top, p int, x rrEntry) {
	e := rr.ent
	for p > top {
		q := (p - 1) / 2
		if !rr.before(&x, &e[q]) {
			break
		}
		e[p] = e[q]
		p = q
	}
	e[p] = x
}

// counter returns e's next counter as of the current arrival.
func (rr *RoundRobin) counter(e *rrEntry) float64 {
	if e.assign != 0 && rr.isUp(e.i) {
		return e.val - float64(rr.arrivals-e.at)
	}
	return e.val
}

// settle stores every computer's current next counter in val, as of the
// current arrival, so the up-set can change without moving any counter.
func (rr *RoundRobin) settle() {
	for k := range rr.ent {
		e := &rr.ent[k]
		e.val, e.at = rr.counter(e), rr.arrivals
	}
}

// rebuild sorts every computer into the started heap, the parked region
// or the unstarted queue for the current mask, heapifies the started
// heap in O(n) and orders the queue in O(n log n).
func (rr *RoundRobin) rebuild() {
	e := rr.ent
	lo, hi := 0, len(e)
	for k := 0; k < hi; {
		switch {
		case rr.eff[e[k].i] == 0 || !rr.isUp(e[k].i):
			k++
		case e[k].assign != 0:
			e[lo], e[k] = e[k], e[lo]
			lo++
			k++
		default:
			hi--
			e[k], e[hi] = e[hi], e[k]
		}
	}
	rr.hs, rr.hu = lo, len(e)-hi
	for p := rr.hs/2 - 1; p >= 0; p-- {
		rr.siftDown(p)
	}
	// An unstarted computer's tie key (assign+1)/α is 1/α. It is computed
	// once per entry and kept in at, which the queue does not otherwise
	// use: positive floats order as their bits.
	q := e[hi:]
	for k := range q {
		q[k].at = int64(math.Float64bits(1 / rr.eff[q[k].i]))
	}
	slices.SortFunc(q, cmpUnstarted)
}

// cmpUnstarted is the selection order between two unstarted entries:
// smaller counter, then smaller tie key, then lower index. Their counters
// are frozen, so it is before with every anchor equal.
func cmpUnstarted(a, b rrEntry) int {
	switch {
	case a.val < b.val:
		return -1
	case a.val > b.val:
		return 1
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	}
	return a.i - b.i
}

// CyclicWRR is the classic cyclic weighted round-robin: weights are
// converted to integer quotas over a cycle and each computer receives its
// whole quota consecutively before the pointer advances. It deliberately
// lacks Algorithm 2's interleaving and is included as a baseline to
// quantify the smoothing benefit.
type CyclicWRR struct {
	quota []int64 // per-cycle quota
	sent  []int64 // sent in current cycle
	ptr   int
	name  string

	up      []bool // availability mask (nil = all up)
	upQuota int64  // Σ quota over the up computers
}

// NewCyclicWRR builds a cyclic WRR dispatcher whose integer quotas
// approximate fractions over a cycle of the given length (e.g. 100).
func NewCyclicWRR(fractions []float64, cycle int) (*CyclicWRR, error) {
	fr, err := checkFractions(fractions)
	if err != nil {
		return nil, err
	}
	if cycle <= 0 {
		return nil, fmt.Errorf("dispatch: cycle must be positive, got %d", cycle)
	}
	// Largest-remainder apportionment of the cycle among computers.
	quota := make([]int64, len(fr))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(fr))
	assigned := int64(0)
	for i, f := range fr {
		exact := f * float64(cycle)
		quota[i] = int64(math.Floor(exact))
		assigned += quota[i]
		rems[i] = rem{i, exact - math.Floor(exact)}
	}
	for int64(cycle)-assigned > 0 {
		best := 0
		for j := 1; j < len(rems); j++ {
			if rems[j].frac > rems[best].frac {
				best = j
			}
		}
		quota[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return &CyclicWRR{quota: quota, sent: make([]int64, len(fr))}, nil
}

func (c *CyclicWRR) Name() string { return "cyclicWRR" }
func (c *CyclicWRR) N() int       { return len(c.quota) }

func (c *CyclicWRR) Next() int {
	if c.up != nil {
		return c.nextMasked()
	}
	for tries := 0; tries < len(c.quota)+1; tries++ {
		if c.sent[c.ptr] < c.quota[c.ptr] {
			c.sent[c.ptr]++
			return c.ptr
		}
		c.ptr = (c.ptr + 1) % len(c.quota)
		if c.ptr == 0 {
			allDone := true
			for i := range c.sent {
				if c.sent[i] < c.quota[i] {
					allDone = false
					break
				}
			}
			if allDone {
				for i := range c.sent {
					c.sent[i] = 0
				}
			}
		}
	}
	// Unreachable: some quota is always positive because Σα=1 and
	// cycle ≥ 1.
	panic("dispatch: cyclic WRR found no eligible computer")
}

// Deviation computes the paper's workload allocation deviation
// (footnote 4): Σ_i (expected_i − actual_i)², where expected is the target
// fraction vector and actual is the observed fraction of jobs per computer
// in an interval. counts holds per-computer job counts for the interval.
// An interval with no arrivals has zero deviation by convention.
func Deviation(expected []float64, counts []int64) (float64, error) {
	if len(expected) != len(counts) {
		return 0, fmt.Errorf("dispatch: deviation length mismatch (%d vs %d)", len(expected), len(counts))
	}
	total := int64(0)
	for _, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("dispatch: negative count %d", c)
		}
		total += c
	}
	if total == 0 {
		return 0, nil
	}
	dev := 0.0
	for i, c := range counts {
		d := expected[i] - float64(c)/float64(total)
		dev += d * d
	}
	return dev, nil
}

// IntervalDeviation observes a dispatcher's decisions over fixed-length
// time intervals and records the deviation of each interval, reproducing
// the measurement of Figure 2.
type IntervalDeviation struct {
	expected []float64
	length   float64
	counts   []int64
	boundary float64
	devs     []float64
}

// NewIntervalDeviation creates a tracker with the given expected fractions
// and interval length (seconds).
func NewIntervalDeviation(expected []float64, length float64) (*IntervalDeviation, error) {
	fr, err := checkFractions(expected)
	if err != nil {
		return nil, err
	}
	if length <= 0 {
		return nil, fmt.Errorf("dispatch: interval length must be positive, got %v", length)
	}
	return &IntervalDeviation{
		expected: fr,
		length:   length,
		counts:   make([]int64, len(fr)),
		boundary: length,
	}, nil
}

// Observe records that a job arrived at the given time and was dispatched
// to computer target. Times must be non-decreasing.
func (iv *IntervalDeviation) Observe(t float64, target int) {
	for t >= iv.boundary {
		iv.closeInterval()
	}
	iv.counts[target]++
}

func (iv *IntervalDeviation) closeInterval() {
	dev, err := Deviation(iv.expected, iv.counts)
	if err != nil {
		panic(err) // lengths are fixed at construction; unreachable
	}
	iv.devs = append(iv.devs, dev)
	for i := range iv.counts {
		iv.counts[i] = 0
	}
	iv.boundary += iv.length
}

// Flush closes every interval whose end lies at or before time t, so the
// final observation window is included even if no arrival lands past it.
func (iv *IntervalDeviation) Flush(t float64) {
	for iv.boundary <= t {
		iv.closeInterval()
	}
}

// Deviations returns the deviations of all completed intervals.
func (iv *IntervalDeviation) Deviations() []float64 {
	out := make([]float64, len(iv.devs))
	copy(out, iv.devs)
	return out
}
