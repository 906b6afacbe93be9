package dispatch

import (
	"math"
	"math/big"
	"slices"
	"testing"

	"heterosched/internal/alloc"
	"heterosched/internal/rng"
)

// table3Speeds are the paper's Table 3 computer speeds.
var table3Speeds = []float64{1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 2, 2, 2, 5, 10, 12}

// TestRoundRobinMatchesReferenceTable3 runs the paper's own system — the
// Table 3 speeds under Algorithm 1's fractions at ρ = 0.7 — for 4M
// arrivals and requires every decision to equal the scan-based
// reference. The paper's 4e6-second replications are about 1.6M
// arrivals, so precision that decays as the arrival count grows would
// show here.
func TestRoundRobinMatchesReferenceTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("4M-arrival lockstep; run without -short")
	}
	fr, err := alloc.Optimized{}.Allocate(table3Speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefRR(fr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRoundRobin(fr)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 4_000_000; step++ {
		if a, b := ref.Next(), got.Next(); a != b {
			t.Fatalf("arrival %d: reference chose %d, RoundRobin %d", step, a, b)
		}
	}
}

// TestRoundRobinMatchesReferenceFleetStartUp runs Algorithm 1's fractions
// of the Table 3 speeds tiled to n = 3200 at ρ = 0.7 on two hash-routed
// replicas for 3n decisions, with a mask change and a counter sync
// while computers are still taking their first jobs, and requires every
// decision to equal the scan's. The randomized lockstep stops at n ≤ 40,
// where the unstarted set empties within a few dozen arrivals. Here
// thousands of unstarted computers tie on their guard values and, about
// 213 to a speed, on their tie keys, so the unstarted queue's order
// decides; the sync's means leave computers started on one replica
// unstarted again at counters other than the guard.
func TestRoundRobinMatchesReferenceFleetStartUp(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 3200 lockstep against the O(n) scan; run without -short")
	}
	const n, k = 3200, 2
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = table3Speeds[i%len(table3Speeds)]
	}
	fr, err := alloc.Optimized{}.Allocate(speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSharded(k, ShardHash, func(int) (Dispatcher, error) { return newRefRR(fr) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSharded(k, ShardHash, func(int) (Dispatcher, error) { return NewRoundRobin(fr) })
	if err != nil {
		t.Fatal(err)
	}
	up := make([]bool, n)
	for i := range up {
		up[i] = i%7 != 3
	}
	// requireStarting fails unless every replica still has unstarted
	// computers to move onto its started heap.
	requireStarting := func(what string) {
		t.Helper()
		for r := 0; r < k; r++ {
			if hu := got.Replica(r).(*RoundRobin).hu; hu == 0 {
				t.Fatalf("%s: replica %d has no unstarted computer left", what, r)
			}
		}
	}
	for step := 0; step < 3*n; step++ {
		switch step {
		case n / 2:
			requireStarting("mask change")
			if e1, e2 := ref.SetUp(up), got.SetUp(up); e1 != nil || e2 != nil {
				t.Fatalf("SetUp: reference error %v, RoundRobin error %v", e1, e2)
			}
		case n:
			requireStarting("counter sync")
			ref.SyncNow()
			got.SyncNow()
			compareShares(t, ref, got, step)
			rr := got.Replica(0).(*RoundRobin)
			if !slices.ContainsFunc(rr.ent[len(rr.ent)-rr.hu:], func(e rrEntry) bool { return e.val != 1 }) {
				t.Fatal("counter sync: no unstarted computer holds a counter other than the guard")
			}
		case 2 * n:
			if e1, e2 := ref.SetUp(nil), got.SetUp(nil); e1 != nil || e2 != nil {
				t.Fatalf("SetUp(nil): reference error %v, RoundRobin error %v", e1, e2)
			}
		}
		if a, b := ref.NextFor(int64(step)), got.NextFor(int64(step)); a != b {
			t.Fatalf("decision %d: reference chose %d, RoundRobin %d", step, a, b)
		}
	}
	compareShares(t, ref, got, 3*n)
}

// commensurateFractions draws a fraction vector whose weights stand in
// exact ratios — powers of two, small integers, all equal, or a few
// repeated random values — with an occasional zero. Such vectors make
// Algorithm 2's next counters tie exactly, so ties decide selections.
func commensurateFractions(st *rng.Stream, n int) []float64 {
	kind := st.Intn(4)
	pool := []float64{st.Float64() + 0.01, st.Float64() + 0.01, st.Float64() + 0.01}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		switch kind {
		case 0:
			w[i] = math.Ldexp(1, st.Intn(5))
		case 1:
			w[i] = float64(1 + st.Intn(4))
		case 2:
			w[i] = 1
		default:
			w[i] = pool[st.Intn(len(pool))]
		}
		if st.Float64() < 0.05 {
			w[i] = 0
		}
		sum += w[i]
	}
	if sum == 0 {
		w[0], sum = 1, 1
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// lockstepClass is one class of the randomized RoundRobin-vs-reference
// lockstep.
type lockstepClass struct {
	name string
	// fractions draws the trial's fraction vector.
	fractions func(st *rng.Stream, n int) []float64
	// perturb injects masks and counter syncs mid-run.
	perturb bool
	// tiesMayDiffer lets a decision differ where the reference's next
	// counters of the two candidates are within 1e-9; the trial stops
	// there, since the two dispatchers then hold different state.
	tiesMayDiffer bool
}

// TestRoundRobinLockstepRandomized drives the scan-based reference and
// RoundRobin through identical operations — Next on K ∈ {1,2,3} replicas,
// masks (including rejected all-down ones), SyncNow rounds and pairwise
// SyncBlend frames — with n up to 40 and up to 20k steps per trial:
//
//   - generic fractions (distinct random weights) with masks and syncs:
//     every decision is equal;
//   - commensurate fractions (duplicates, powers of two, zeros) with no
//     mask or sync: every decision is equal;
//   - commensurate fractions with masks and syncs: a decision may differ
//     only at a tie of the reference's next counters (within 1e-9).
//
// Whenever decisions agree, every replica's shared counters agree too:
// assign exactly and next within 1e-9.
func TestRoundRobinLockstepRandomized(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 150
	}
	classes := []lockstepClass{
		{name: "generic/masks+sync", fractions: randomFractions, perturb: true},
		{name: "commensurate/plain", fractions: commensurateFractions},
		{name: "commensurate/masks+sync", fractions: commensurateFractions, perturb: true, tiesMayDiffer: true},
	}
	for ci, c := range classes {
		st := rng.New(uint64(9100 + ci))
		tieStops, steps := 0, 0
		for trial := 0; trial < trials; trial++ {
			n := 1 + st.Intn(40)
			k := 1
			if c.perturb {
				k = 1 + st.Intn(3)
			}
			fr := c.fractions(st, n)
			length := int(math.Exp(st.Float64() * math.Log(20000)))
			done, tie := lockstep(t, c, st, fr, k, length)
			steps += done
			if tie {
				tieStops++
			}
			if t.Failed() {
				t.Fatalf("%s: trial %d failed (n=%d, K=%d, fractions %v)", c.name, trial, n, k, fr)
			}
		}
		t.Logf("%s: %d trials, %d steps, %d stopped at a tie", c.name, trials, steps, tieStops)
	}
}

// lockstep runs one trial and returns the number of steps taken and
// whether it stopped at a tolerated tie.
func lockstep(t *testing.T, c lockstepClass, st *rng.Stream, fr []float64, k, length int) (int, bool) {
	t.Helper()
	n := len(fr)
	ref, err := NewSharded(k, ShardRR, func(int) (Dispatcher, error) { return newRefRR(fr) })
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSharded(k, ShardRR, func(int) (Dispatcher, error) { return NewRoundRobin(fr) })
	if err != nil {
		t.Fatal(err)
	}
	snap := make([]float64, n)
	for step := 0; step < length; step++ {
		if c.perturb && st.Float64() < 0.002 {
			perturb(t, st, ref, got, n)
			compareShares(t, ref, got, step)
			continue
		}
		r := st.Intn(k)
		rr := ref.Replica(r).(*refRR)
		copy(snap, rr.next)
		a, b := rr.Next(), got.Replica(r).Next()
		if a == b {
			continue
		}
		if !c.tiesMayDiffer {
			t.Errorf("step %d, replica %d: reference chose %d, RoundRobin %d", step, r, a, b)
			return step, false
		}
		if b < 0 || b >= n || rr.eff[b] == 0 || !rr.isUp(b) || math.Abs(snap[a]-snap[b]) > 1e-9 {
			t.Errorf("step %d, replica %d: reference chose %d (next %v), RoundRobin %d (next %v): not a tie",
				step, r, a, snap[a], b, snap[b])
		}
		return step, true
	}
	compareShares(t, ref, got, length)
	return length, false
}

// perturb applies one random mask or counter-sync operation to both
// sharded dispatchers, which must agree on whether a mask is accepted.
func perturb(t *testing.T, st *rng.Stream, ref, got *Sharded, n int) {
	t.Helper()
	switch op := st.Intn(4); {
	case op == 0:
		var up []bool // clears the mask
		switch st.Intn(5) {
		case 0:
		case 1:
			up = make([]bool, n) // all down: rejected, previous mask kept
		default:
			up = randomMask(st, n)
		}
		if e1, e2 := ref.SetUp(up), got.SetUp(up); (e1 == nil) != (e2 == nil) {
			t.Errorf("SetUp(%v): reference error %v, RoundRobin error %v", up, e1, e2)
		}
	case op == 1:
		ref.SyncNow()
		got.SyncNow()
	default:
		from, to := st.Intn(ref.K()), st.Intn(ref.K())
		a, nx, _ := ref.SyncShareOf(from)
		ref.SyncBlend(to, a, nx)
		a, nx, _ = got.SyncShareOf(from)
		got.SyncBlend(to, a, nx)
	}
}

// compareShares requires every replica's counters to agree: assign
// exactly, next within 1e-9.
func compareShares(t *testing.T, ref, got *Sharded, step int) {
	t.Helper()
	for r := 0; r < ref.K(); r++ {
		ra, rn, _ := ref.SyncShareOf(r)
		ga, gn, _ := got.SyncShareOf(r)
		for i := range ra {
			if ra[i] != ga[i] || math.Abs(rn[i]-gn[i]) > 1e-9 {
				t.Errorf("step %d, replica %d, computer %d: reference (assign %d, next %v), RoundRobin (assign %d, next %v)",
					step, r, i, ra[i], rn[i], ga[i], gn[i])
				return
			}
		}
	}
}

// TestHeapOrderMatchesExactArithmetic checks the order of RoundRobin's
// heaps against rational arithmetic: an entry (val, at) precedes another
// when val + at is smaller, and equal sums fall to the scan's tie-break.
// Random pairs include exact ties and near-ties, where x − y rounds to
// exactly b − a and only the rounding error tells the sums apart.
func TestHeapOrderMatchesExactArithmetic(t *testing.T) {
	exact := func(x float64, a int64, y float64, b int64) int {
		l := new(big.Rat).SetFloat64(x)
		l.Add(l, new(big.Rat).SetInt64(a))
		r := new(big.Rat).SetFloat64(y)
		r.Add(r, new(big.Rat).SetInt64(b))
		return l.Cmp(r)
	}
	st := rng.New(31)
	rr := &RoundRobin{eff: make([]float64, 2)}
	for k := 0; k < 20000; k++ {
		a, b := int64(st.Intn(1<<20)), int64(st.Intn(1<<20))
		x := math.Ldexp(st.Float64()-0.5, st.Intn(40)-20)
		y := x + float64(a-b)
		switch k % 3 {
		case 0: // a near-tie: nudge y by a few ulps of x or less
			y += math.Ldexp(st.Float64()-0.5, st.Intn(60)-70)
		case 1: // an exact tie
		default:
			y = math.Ldexp(st.Float64()-0.5, st.Intn(40)-20)
		}
		sign := exact(x, a, y, b)
		if got := cmpSum(x, a, y, b); got != sign {
			t.Fatalf("cmpSum(%v, %d, %v, %d) = %d, exact sign %d", x, a, y, b, got, sign)
		}
		rr.eff[0], rr.eff[1] = st.Float64()+0.01, st.Float64()+0.01
		p := rrEntry{val: x, at: a, assign: int64(st.Intn(3)), i: 0}
		q := rrEntry{val: y, at: b, assign: int64(st.Intn(3)), i: 1}
		want := sign < 0
		if sign == 0 {
			np, nq := float64(p.assign+1)/rr.eff[0], float64(q.assign+1)/rr.eff[1]
			want = np < nq || np == nq // equal normalized assignments: lower index
		}
		if got := rr.before(&p, &q); got != want {
			t.Fatalf("before(%+v, %+v) = %v with eff %v, want %v", p, q, got, rr.eff, want)
		}
	}
	// 1 − 2^-60 rounds to 1: the sums differ only in the rounding error,
	// against the tie-break's preference.
	rr.eff[0], rr.eff[1] = 0.5, 0.5
	p := rrEntry{val: math.Ldexp(1, -60), at: 1, assign: 0, i: 0}
	q := rrEntry{val: 1, at: 0, assign: 5, i: 1}
	if rr.before(&p, &q) || !rr.before(&q, &p) {
		t.Errorf("%+v and %+v: the sum 1 must precede the sum 1 + 2^-60", q, p)
	}
}
