package dispatch

import (
	"cmp"
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
	// computers waiting for their first job.
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

// farFractions draws weights log-uniform over seven decades, so at
// n ≤ 40 (a ring of at most 512 buckets) a trial's strides 1/α run from
// a few arrivals to ~10^7: some computers live in the far heap and never
// win again, and some win from it within the trial.
func farFractions(st *rng.Stream, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(10, -7*st.Float64())
	}
	return normalize(w)
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
	// checkRing verifies the ring's invariants after every operation.
	checkRing bool
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
//     only at a tie of the reference's next counters (within 1e-9);
//   - fractions down to ~1e-7, whose strides outrun the ring, with masks
//     and syncs: every decision is equal, and the ring's invariants hold
//     after every operation.
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
		{name: "far/masks+sync", fractions: farFractions, perturb: true, checkRing: true},
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
			for r := 0; c.checkRing && r < k; r++ {
				checkRing(t, got.Replica(r).(*RoundRobin))
			}
			continue
		}
		r := st.Intn(k)
		rr := ref.Replica(r).(*refRR)
		copy(snap, rr.next)
		g := got.Replica(r).(*RoundRobin)
		lo := g.lo
		a, b := rr.Next(), g.Next()
		if c.checkRing {
			if g.lo < lo {
				t.Errorf("step %d, replica %d: Next lowered the window from %d to %d", step, r, lo, g.lo)
			}
			checkRing(t, g)
			if t.Failed() {
				return step, false
			}
		}
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

// TestHeapOrderMatchesExactArithmetic checks RoundRobin's selection
// order, which a bucket's scan and the far heap follow, against rational
// arithmetic: an entry (val, at) precedes another when val + at is
// smaller, and equal sums fall to the scan's tie-break. Random pairs
// include exact ties and near-ties, where x − y rounds to exactly b − a
// and only the rounding error tells the sums apart.
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
		p := rrEntry{val: x, at: a, assign: int64(st.Intn(3)), rrRef: rrRef{i: 0}}
		q := rrEntry{val: y, at: b, assign: int64(st.Intn(3)), rrRef: rrRef{i: 1}}
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
	p := rrEntry{val: math.Ldexp(1, -60), at: 1, assign: 0, rrRef: rrRef{i: 0}}
	q := rrEntry{val: 1, at: 0, assign: 5, rrRef: rrRef{i: 1}}
	if rr.before(&p, &q) || !rr.before(&q, &p) {
		t.Errorf("%+v and %+v: the sum 1 must precede the sum 1 + 2^-60", q, p)
	}
}

// checkRing verifies the ring's invariants: every started entry is filed
// once, in the ring or the far heap; a ring entry's bucket lies in the
// window [lo, lo+W), at or above the cursor, and it is listed under its
// own bucket; the window opens no later than the next first job can
// land; and the far heap is in selection order.
func checkRing(t *testing.T, rr *RoundRobin) {
	t.Helper()
	w := int64(len(rr.ring))
	if rr.cursor < rr.lo || rr.lo > rr.arrivals+1 {
		t.Errorf("arrival %d: window opens at %d, cursor %d", rr.arrivals, rr.lo, rr.cursor)
	}
	listed := 0
	for s, h := range rr.ring {
		for q := h; q != 0 && listed <= rr.hs; q = rr.ent[q-1].link {
			listed++
			e := &rr.ent[q-1]
			if int(q-1) >= rr.hs || math.Abs(e.val) >= 1<<52 {
				t.Errorf("arrival %d: bucket slot %d lists %+v at position %d (%d started)", rr.arrivals, s, *e, q-1, rr.hs)
				return
			}
			if b := bucket(e); b < rr.cursor || b-rr.lo >= w || b&rr.mask != int64(s) {
				t.Errorf("arrival %d: %+v in bucket %d, listed in slot %d; window [%d, %d), cursor %d",
					rr.arrivals, *e, b, s, rr.lo, rr.lo+w, rr.cursor)
				return
			}
		}
	}
	far := 0
	for k := range rr.ent[:rr.hs] {
		if rr.ent[k].link < 0 {
			far++
		}
	}
	if far != len(rr.far) || listed+far != rr.hs {
		t.Errorf("arrival %d: %d entries listed in the ring, %d marked far (heap %d), %d started",
			rr.arrivals, listed, far, len(rr.far), rr.hs)
	}
	for k := 1; k < len(rr.far); k++ {
		if rr.before(&rr.ent[rr.far[k]], &rr.ent[rr.far[(k-1)/2]]) {
			t.Errorf("arrival %d: far heap out of order at %d", rr.arrivals, k)
			return
		}
	}
}

// TestRoundRobinSyncApplyEdges installs counters at the ring's edges and
// makes 10n decisions after each sync, every one equal to the scan's:
//
//   - far above the window: filed in the far heap, whose root every
//     decision compares and passes over;
//   - far below it: far-heap winners for the whole stretch;
//   - negative beside positive: a computer keeps val −0.5 anchored one
//     arrival after another's 0.5 < val < 1, so a bucket computed by
//     truncating val would file the smaller counter a bucket higher;
//   - a first job below the cursor: the sync leaves the computer with the
//     shortest stride unstarted while every started counter is high, so
//     its first job lands below the cursor, which must move back;
//   - at or beyond 2^52: no bucket holds these counters; one computer at
//     −2^52 wins the stretch from the far heap.
func TestRoundRobinSyncApplyEdges(t *testing.T) {
	edges := []struct {
		name string
		// install rewrites the synced counters; fr are the fractions.
		install func(st *rng.Stream, fr []float64, assign []int64, next []float64)
	}{
		{"far above", func(st *rng.Stream, _ []float64, _ []int64, next []float64) {
			for i := 0; i < len(next); i += 3 {
				next[i] = 6e5 + 4e5*st.Float64()
			}
		}},
		{"far below", func(st *rng.Stream, _ []float64, _ []int64, next []float64) {
			for i := 1; i < len(next); i += 4 {
				next[i] = -6e5 - 4e5*st.Float64()
			}
		}},
		{"negative beside positive", func(st *rng.Stream, fr []float64, assign []int64, next []float64) {
			x, y, z := strideOrder(fr)
			for i := range next {
				assign[i] = max(assign[i], 1)
				next[i] = 1 + st.Float64()
			}
			// z wins first and leaves; x wins next at −0.5 − 1/α_x, keeping
			// val −0.5 anchored one arrival after y's 0.9.
			s := 1 / fr[x]
			next[x], next[y], next[z] = 0.5-s, 0.9, 0.4-s
		}},
		{"first job below the cursor", func(st *rng.Stream, fr []float64, assign []int64, next []float64) {
			x, _, _ := strideOrder(fr)
			for i := range next {
				assign[i] = max(assign[i], 1)
				next[i] = 20 + st.Float64()
			}
			assign[x], next[x] = 0, 1
		}},
		{"2^52 and beyond", func(st *rng.Stream, _ []float64, _ []int64, next []float64) {
			for i := 0; i < len(next); i += 5 {
				next[i] = math.Ldexp(1, 52)
				if i+2 < len(next) {
					next[i+2] = math.Ldexp(1+st.Float64(), 53+st.Intn(10))
				}
			}
			next[4] = -math.Ldexp(1, 52)
		}},
	}
	st := rng.New(2407)
	for _, n := range []int{15, 200} {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = table3Speeds[i%len(table3Speeds)]
		}
		fr, err := alloc.Optimized{}.Allocate(speeds, 0.7)
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
		step := 0
		decide := func(what string, count int) {
			t.Helper()
			for k := 0; k < count; k, step = k+1, step+1 {
				if a, b := ref.Next(), got.Next(); a != b {
					t.Fatalf("n = %d, %s, decision %d: reference chose %d, RoundRobin %d", n, what, step, a, b)
				}
			}
			checkRing(t, got)
		}
		decide("warm-up", 3*n)
		for _, edge := range edges {
			assign, next := ref.SyncShare()
			edge.install(st, fr, assign, next)
			ref.SyncApply(assign, next)
			got.SyncApply(assign, next)
			checkRing(t, got)
			decide(edge.name, 10*n)
		}
	}
}

// strideOrder returns the computers with the shortest, second-shortest
// and longest finite stride 1/α.
func strideOrder(fr []float64) (x, y, z int) {
	idx := make([]int, 0, len(fr))
	for i, f := range fr {
		if f > 0 {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(fr[b], fr[a]) })
	return idx[0], idx[1], idx[len(idx)-1]
}

// TestRoundRobinRingSteadyState locks the O(1) path without a timer. On
// Algorithm 1's fractions of the Table 3 speeds tiled to n ∈ {15, 200,
// 3200} at ρ = 0.7, once every computer has started, 10^5 decisions
// file nothing in the far heap, never move the cursor back, and move it
// at most 1.01 buckets per decision. A window that slid the wrong way
// would keep every decision right and push keys into the far heap; only
// this test would see it.
func TestRoundRobinRingSteadyState(t *testing.T) {
	for _, n := range []int{15, 200, 3200} {
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = table3Speeds[i%len(table3Speeds)]
		}
		fr, err := alloc.Optimized{}.Allocate(speeds, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := NewRoundRobin(fr)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20*n; k++ {
			rr.Next()
		}
		if rr.hu != 0 {
			t.Fatalf("n = %d: %d computers unstarted after %d decisions", n, rr.hu, 20*n)
		}
		const steps = 100_000
		start := rr.cursor
		for k := 0; k < steps; k++ {
			c := rr.cursor
			rr.Next()
			if rr.cursor < c || len(rr.far) != 0 {
				t.Fatalf("n = %d, decision %d: cursor %d → %d, %d entries in the far heap",
					n, k, c, rr.cursor, len(rr.far))
			}
		}
		per := float64(rr.cursor-start) / steps
		if per > 1.01 {
			t.Errorf("n = %d: the cursor moved %.4f buckets per decision, want ≤ 1.01", n, per)
		}
		t.Logf("n = %d: W = %d, cursor %.4f buckets per decision", n, len(rr.ring), per)
	}
}
