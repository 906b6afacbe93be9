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
	"cmp"
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
// Each decision costs O(1). Step 2.h's decrement of every started
// computer is one increment of a global arrival count: a started, up
// computer stores its next counter as of an earlier arrival, and the
// arrivals since are subtracted only when the counter is read. That
// counter reaches zero during a known arrival, its bucket, and the
// started, selectable computers sit in a ring with one bucket per
// arrival; the few whose bucket lies outside the ring's window sit in a
// far heap. The unstarted ones, whose guard values do not move, sit in a
// queue sorted once per mask change. Every winner is the least entry of
// the ring's least non-empty bucket, the far heap's root or the queue's
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

	// ent holds one entry per computer in three regions: ent[:hs] are the
	// started computers, each in the ring or the far heap,
	// ent[len(ent)-hu:] the unstarted queue in selection order (its head
	// is ent[len(ent)-hu]), and the entries in between are parked: down,
	// or with a zero effective fraction. A started entry keeps its
	// position until the next rebuild.
	ent    []rrEntry
	hs, hu int
	// arrivals counts the jobs dispatched: step 2.h's clock.
	arrivals int64

	// ring[b&mask] lists the ring's entries in bucket b, for every b in
	// the window [lo, lo+len(ring)): it holds the position+1 of the
	// bucket's first entry, or 0. No ring entry lies in a bucket below
	// cursor, and cursor ≥ lo.
	ring       []int32
	mask       int64
	lo, cursor int64
	// far is a binary min-heap, in selection order, of the positions of
	// the started entries filed outside the window. Every other started
	// entry is in the ring.
	far []int32
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
	rrRef
}

// rrRef is an entry's computer index and ring link. Nesting them keeps
// rrEntry at four fields, the most the compiler keeps in registers: with
// five, every comparison of the queue's sort spills both entries to the
// stack, which made a rebuild ~25% slower.
type rrRef struct {
	i int32
	// link is, in the ring, the position+1 of the next entry in the same
	// bucket, or 0; in the far heap it is −1.
	link int32
}

// ringSlack is how far below the current arrival a rebuild may open the
// window; the ring leaves room for it above the longest stride.
const ringSlack = 8

// NewRoundRobin returns a smoothed round-robin dispatcher over the given
// fractions (Algorithm 2 step 1 initialization).
func NewRoundRobin(fractions []float64) (*RoundRobin, error) {
	fr, err := checkFractions(fractions)
	if err != nil {
		return nil, err
	}
	w := ringSize(fr)
	rr := &RoundRobin{fractions: fr, eff: fr, ent: make([]rrEntry, len(fr)),
		ring: make([]int32, w), mask: int64(w - 1)}
	for i := range rr.ent {
		rr.ent[i] = rrEntry{val: 1, rrRef: rrRef{i: int32(i)}} // guard value (step 1.b)
	}
	rr.rebuild()
	return rr, nil
}

// ringSize returns the ring's bucket count: the least power of two that
// is at least 16 and at least the longest finite stride 1/α plus
// ringSlack, but no more than the least power of two at least 8n, so the
// ring stays O(n) whatever the fractions. A mask shortens strides, except
// where maskWeights falls back to an equal split; a stride longer than
// the ring lives in the far heap.
func ringSize(fr []float64) int {
	least := math.Inf(1)
	for _, f := range fr {
		if f > 0 {
			least = min(least, f)
		}
	}
	w := 16
	for float64(w) < 1/least+ringSlack && w < 8*len(fr) {
		w *= 2
	}
	return w
}

// isUp reports whether computer i is selectable (no mask means all up).
func (rr *RoundRobin) isUp(i int32) bool { return rr.up == nil || rr.up[i] }

func (rr *RoundRobin) Name() string { return "RR" }
func (rr *RoundRobin) N() int       { return len(rr.fractions) }

func (rr *RoundRobin) Next() int {
	// Steps 2.b–2.c: select the computer with minimum next, breaking ties
	// by the smaller normalized assignment count, from the ring's least
	// bucket, the far heap's root and the queue's head. Down and
	// zero-fraction computers are in none of them (step 2.c.1).
	e := rr.ent
	p, pl := int32(-1), (*int32)(nil) // the winner, and the link to it
	// Every started entry outside the far heap is in the ring.
	if rr.hs > len(rr.far) {
		for rr.ring[rr.cursor&rr.mask] == 0 {
			rr.cursor++
		}
		// A lower bucket holds smaller counters; within the bucket, before
		// decides.
		pl = &rr.ring[rr.cursor&rr.mask]
		p = *pl - 1
		for q := &e[p].link; *q != 0; q = &e[*q-1].link {
			if rr.before(&e[*q-1], &e[p]) {
				p, pl = *q-1, q
			}
		}
		// A first job lands at arrivals+1 or later.
		rr.lo = min(rr.cursor, rr.arrivals+1)
	} else {
		rr.lo, rr.cursor = rr.arrivals+1, rr.arrivals+1
	}
	fromFar := len(rr.far) > 0 && (p < 0 || rr.before(&e[rr.far[0]], &e[p]))
	if fromFar {
		p = rr.far[0]
	}
	if rr.hu > 0 {
		// An unstarted counter is frozen: anchored at the current arrival
		// it reads as its guard value.
		u := e[len(e)-rr.hu]
		u.at = rr.arrivals
		if p < 0 || rr.before(&u, &e[p]) {
			p = -1
		}
	}
	var sel int
	if p < 0 {
		sel = rr.start()
	} else {
		if fromFar {
			rr.popFar()
		} else {
			*pl = e[p].link
		}
		// Steps 2.e–2.f: schedule the winner's next turn 1/α ahead; count
		// the job.
		w := &e[p]
		sel = int(w.i)
		w.val = w.val - float64(rr.arrivals-w.at) + 1/rr.eff[sel]
		w.at = rr.arrivals
		w.assign++
		rr.file(p)
	}
	// Step 2.h: one system arrival has elapsed for every started computer.
	rr.arrivals++
	return sel
}

// start selects the unstarted queue's head: step 2.d resets its guard
// value, steps 2.e–2.f give it its first job, and it joins the started
// region.
func (rr *RoundRobin) start() int {
	if rr.hu == 0 {
		panic("dispatch: all fractions zero") // impossible: Σα = 1 over the up-set
	}
	head := len(rr.ent) - rr.hu
	w := rr.ent[head]
	rr.hu--
	// The first parked entry moves into the head's slot, making room for
	// the winner at the end of the started region.
	rr.ent[head] = rr.ent[rr.hs]
	w.val = 1 / rr.eff[w.i]
	w.at = rr.arrivals
	w.assign = 1
	rr.ent[rr.hs] = w
	rr.file(int32(rr.hs))
	rr.hs++
	return int(w.i)
}

// bucket returns floor(val) + at, the arrival during which a started
// counter reaches zero. Bucket order is counter order: a lower bucket
// holds a smaller val + at. It needs |val| < 2^52.
func bucket(e *rrEntry) int64 { return int64(math.Floor(e.val)) + e.at }

// file puts the started entry at position p into its bucket when the
// bucket lies in the window, lowering the cursor to it, and into the far
// heap otherwise.
func (rr *RoundRobin) file(p int32) {
	e := &rr.ent[p]
	if math.Abs(e.val) < 1<<52 {
		if b := bucket(e); uint64(b-rr.lo) < uint64(len(rr.ring)) {
			s := &rr.ring[b&rr.mask]
			e.link, *s = *s, p+1
			rr.cursor = min(rr.cursor, b)
			return
		}
	}
	e.link = -1
	rr.pushFar(p)
}

// pushFar adds the started entry at position p to the far heap, which
// takes its capacity, one slot per computer, on first use.
func (rr *RoundRobin) pushFar(p int32) {
	if rr.far == nil {
		rr.far = make([]int32, 0, len(rr.ent))
	}
	h := append(rr.far, p)
	k := len(h) - 1
	for k > 0 {
		q := (k - 1) / 2
		if !rr.before(&rr.ent[p], &rr.ent[h[q]]) {
			break
		}
		h[k] = h[q]
		k = q
	}
	h[k] = p
	rr.far = h
}

// popFar removes the far heap's root.
func (rr *RoundRobin) popFar() {
	n := len(rr.far) - 1
	h, x := rr.far[:n], rr.far[n]
	rr.far = h
	if n == 0 {
		return
	}
	k := 0
	for {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && rr.before(&rr.ent[h[c+1]], &rr.ent[h[c]]) {
			c++
		}
		if !rr.before(&rr.ent[h[c]], &rr.ent[x]) {
			break
		}
		h[k] = h[c]
		k = c
	}
	h[k] = x
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

// clearRing empties the ring and the far heap ahead of a rebuild. It
// touches only the buckets that hold entries, so a rebuild costs O(n)
// whatever the ring's size.
func (rr *RoundRobin) clearRing() {
	for k := range rr.ent[:rr.hs] {
		if e := &rr.ent[k]; e.link >= 0 {
			rr.ring[bucket(e)&rr.mask] = 0
		}
	}
	rr.far = rr.far[:0]
}

// rebuild sorts every computer into the started region, the parked
// region or the unstarted queue for the current mask, files the started
// entries, and orders the queue in O(n log n). The ring must be empty.
func (rr *RoundRobin) rebuild() {
	e := rr.ent
	active := func(k int) bool { return rr.eff[e[k].i] != 0 && rr.isUp(e[k].i) }
	// The queue keeps its entries' relative order, so a queue still in
	// selection order, as after a mask change before the first jobs,
	// sorts in linear time.
	hi := len(e)
	for k := hi - 1; k >= 0; k-- {
		if active(k) && e[k].assign == 0 {
			hi--
			e[k], e[hi] = e[hi], e[k]
		}
	}
	lo := 0
	for k := range hi {
		if active(k) {
			e[lo], e[k] = e[k], e[lo]
			lo++
		}
	}
	rr.hs, rr.hu = lo, len(e)-hi
	// Every started counter is anchored at the current arrival. The window
	// opens at the least bucket among them, but no more than ringSlack − 1
	// below that arrival, and no later than a first job can land.
	least := 1.0
	for k := range e[:rr.hs] {
		if v := e[k].val; v < least {
			least = max(v, 1-ringSlack)
		}
	}
	rr.lo = rr.arrivals + int64(math.Floor(least))
	rr.cursor = rr.lo
	for k := range rr.hs {
		rr.file(int32(k))
	}
	// An unstarted computer's tie key (assign+1)/α is 1/α. It is computed
	// once per entry and kept in at, which the queue does not otherwise
	// use: positive floats order as their bits.
	q := e[hi:]
	for k := range q {
		q[k].at = int64(math.Float64bits(1 / rr.eff[q[k].i]))
	}
	sortUnstarted(q)
}

// sortUnstarted puts the unstarted queue in selection order: smaller
// counter, then smaller tie key, then lower index, which is before with
// every anchor equal, since their counters are frozen. Entries equal in
// counter and tie key differ only in their index (assign is 0 and link is
// unused in the queue), so the sort compares the first two alone, and
// pdqsort splits a run of equal keys off in linear time; each run's
// indices are then sorted as plain int32s, unless already in order.
func sortUnstarted(q []rrEntry) {
	slices.SortFunc(q, func(a, b rrEntry) int {
		switch {
		case a.val < b.val:
			return -1
		case a.val > b.val:
			return 1
		}
		return cmp.Compare(a.at, b.at)
	})
	var idx []int32
	for lo, hi := 0, 0; lo < len(q); lo = hi {
		ordered := true
		for hi = lo + 1; hi < len(q) && q[hi].val == q[lo].val && q[hi].at == q[lo].at; hi++ {
			ordered = ordered && q[hi-1].i < q[hi].i
		}
		if ordered {
			continue
		}
		if idx == nil {
			idx = make([]int32, 0, len(q))
		}
		idx = idx[:0]
		for _, e := range q[lo:hi] {
			idx = append(idx, e.i)
		}
		slices.Sort(idx)
		for k, i := range idx {
			q[lo+k].i = i
		}
	}
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
