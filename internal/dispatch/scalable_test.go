package dispatch

import (
	"errors"
	"math"
	"testing"

	"heterosched/internal/rng"
)

// fakeView is a mutable queue-length table for driving the
// state-querying dispatchers without a simulation behind them.
type fakeView []int

func (v fakeView) QueueLen(i int) int { return v[i] }

// TestJSQDNeverPicksLongerThanSampled is the defining JSQ(d) property:
// the returned computer's queue is no longer than any other sampled
// queue. With d = n every computer is sampled, so the pick must hold the
// global minimum; randomized queue states across many rounds make this a
// property test of the full sampling path.
func TestJSQDNeverPicksLongerThanSampled(t *testing.T) {
	const n = 12
	st := rng.New(11).Derive("jsqd")
	qst := rng.New(12).Derive("queues")
	j, err := NewSampler(n, Sampling{D: n}, st)
	if err != nil {
		t.Fatal(err)
	}
	view := make(fakeView, n)
	j.Bind(view)
	for round := 0; round < 2000; round++ {
		minLen := math.MaxInt
		for i := range view {
			view[i] = qst.Intn(20)
			if view[i] < minLen {
				minLen = view[i]
			}
		}
		if got := j.Next(); view[got] != minLen {
			t.Fatalf("round %d: picked computer %d with queue %d, global min is %d", round, got, view[got], minLen)
		}
	}
}

// TestJSQDPrefersShortQueues checks the d < n case statistically: with
// one empty computer among loaded ones, jsq(2) must pick the empty one
// whenever it lands in the sample, so its share is far above uniform.
func TestJSQDPrefersShortQueues(t *testing.T) {
	const n, d = 10, 2
	j, err := NewSampler(n, Sampling{D: d}, rng.New(21).Derive("jsqd"))
	if err != nil {
		t.Fatal(err)
	}
	view := make(fakeView, n)
	for i := range view {
		view[i] = 5
	}
	view[3] = 0
	j.Bind(view)
	const rounds = 20000
	hits := 0
	for i := 0; i < rounds; i++ {
		if j.Next() == 3 {
			hits++
		}
	}
	// P(computer 3 in a 2-sample) = 1 - (9/10)(8/9) = 0.2, and it wins
	// every sample it joins. Uniform dispatch would give 0.1.
	got := float64(hits) / rounds
	if got < 0.17 || got > 0.23 {
		t.Errorf("empty computer won %.3f of dispatches, want ~0.2", got)
	}
}

// TestJSQDMaskedSamplingAvoidsDownComputers verifies masked sampling
// never returns a down computer and that an all-down mask is rejected
// with keep-previous semantics, mirroring mask_edge_test.go.
func TestJSQDMaskedSamplingAvoidsDownComputers(t *testing.T) {
	const n = 6
	j, err := NewSampler(n, Sampling{D: 3}, rng.New(31).Derive("jsqd"))
	if err != nil {
		t.Fatal(err)
	}
	view := make(fakeView, n)
	j.Bind(view)
	mask := []bool{true, false, true, false, true, false}
	if err := j.SetUp(mask); err != nil {
		t.Fatal(err)
	}
	if err := j.SetUp(make([]bool, n)); !errors.Is(err, ErrNoComputerUp) {
		t.Errorf("SetUp(all-down) = %v, want ErrNoComputerUp", err)
	}
	if err := j.SetUp([]bool{true}); err == nil || errors.Is(err, ErrNoComputerUp) {
		t.Errorf("SetUp(short mask) = %v, want a length-mismatch error", err)
	}
	for i := 0; i < 2000; i++ {
		if got := j.Next(); !mask[got] {
			t.Fatalf("draw %d selected down computer %d", i, got)
		}
	}
	// Fewer up computers than d: the sample narrows to the up-set.
	if err := j.SetUp([]bool{false, false, true, false, false, false}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := j.Next(); got != 2 {
			t.Fatalf("single-up mask: selected %d, want 2", got)
		}
	}
}

// TestSamplerScanLeastNormalizedLoad covers the other corner of the two
// rules, Dynamic Least-Load's: d = 0 queries every up computer in index
// order without drawing, and the job joins the least (q+1)/speed, ties
// to the earlier index.
func TestSamplerScanLeastNormalizedLoad(t *testing.T) {
	s, err := NewSampler(3, Sampling{Speeds: []float64{1, 4, 2}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := fakeView{0, 3, 1}
	s.Bind(view)
	// Keys 1, 1, 1: the tie goes to computer 0.
	if got := s.Next(); got != 0 {
		t.Errorf("all tied: picked %d, want 0", got)
	}
	view[0] = 1 // keys 2, 1, 1
	if got := s.Next(); got != 1 {
		t.Errorf("picked %d, want 1", got)
	}
	if err := s.SetUp([]bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	if got := s.Next(); got != 2 {
		t.Errorf("computer 1 down: picked %d, want 2", got)
	}
	if err := s.SetUp(make([]bool, 3)); !errors.Is(err, ErrNoComputerUp) {
		t.Errorf("SetUp(all-down) = %v, want ErrNoComputerUp", err)
	}
	if got := s.Next(); got != 2 {
		t.Errorf("after a rejected all-down mask: picked %d, want 2 (previous mask kept)", got)
	}
}

// TestBiasedPodSamplingConvergesToWeights is the chi-squared check that
// the weighted draws converge to the bias weights. With d = 1 each
// decision is one draw, so the dispatch counts are the draw counts.
// Seeded, so the statistic is deterministic.
func TestBiasedPodSamplingConvergesToWeights(t *testing.T) {
	weights := []float64{1, 1, 2, 10}
	b, err := NewSampler(len(weights), Sampling{D: 1, Weights: weights}, rng.New(41).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	b.Bind(make(fakeView, len(weights)))
	const rounds = 100000
	counts := make([]int64, len(weights))
	for i := 0; i < rounds; i++ {
		counts[b.Next()]++
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	chi2 := 0.0
	for i, c := range counts {
		exp := rounds * weights[i] / sum
		chi2 += (float64(c) - exp) * (float64(c) - exp) / exp
	}
	// df = 3; chi2 above 16.3 would reject matching frequencies at
	// p = 0.001. A seeded healthy sampler sits far below.
	if chi2 > 16.3 {
		t.Errorf("chi-squared %v over draw counts %v, want < 16.3 (weights %v)", chi2, counts, weights)
	}
}

// TestBiasedPodShortestQueueWins verifies the post-sampling decision:
// among sampled computers the shortest queue wins, with queue-length
// ties resolved toward the heavier weight.
func TestBiasedPodShortestQueueWins(t *testing.T) {
	weights := []float64{1, 8}
	b, err := NewSampler(len(weights), Sampling{D: 2, Weights: weights}, rng.New(51).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	view := fakeView{0, 3}
	b.Bind(view)
	// d = n = 2: both computers are always sampled, so the empty slow
	// computer must win every round despite its 8x lighter weight.
	for i := 0; i < 500; i++ {
		if got := b.Next(); got != 0 {
			t.Fatalf("round %d: picked %d, want the empty computer 0", i, got)
		}
	}
	// Equal queues: the tie must go to the heavier weight.
	view[0], view[1] = 2, 2
	for i := 0; i < 500; i++ {
		if got := b.Next(); got != 1 {
			t.Fatalf("tie round %d: picked %d, want the heavier computer 1", i, got)
		}
	}
}

// TestBiasedPodMaskEdgeCases mirrors the mask edge cases: rejected
// all-down masks keep the previous mask, zero-weight survivors fall back
// to equal-split renormalization, down computers are never sampled.
func TestBiasedPodMaskEdgeCases(t *testing.T) {
	weights := []float64{0, 1, 2, 5}
	b, err := NewSampler(len(weights), Sampling{D: 2, Weights: weights}, rng.New(61).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	view := make(fakeView, len(weights))
	b.Bind(view)
	// Unmasked, computer 0 has zero weight and must never be drawn.
	for i := 0; i < 1000; i++ {
		if got := b.Next(); got == 0 {
			t.Fatal("zero-weight computer sampled")
		}
	}
	mask := []bool{false, true, true, false}
	if err := b.SetUp(mask); err != nil {
		t.Fatal(err)
	}
	if err := b.SetUp(make([]bool, 4)); !errors.Is(err, ErrNoComputerUp) {
		t.Errorf("SetUp(all-down) = %v, want ErrNoComputerUp", err)
	}
	for i := 0; i < 1000; i++ {
		if got := b.Next(); !mask[got] {
			t.Fatalf("draw %d selected down computer %d", i, got)
		}
	}
	// Only the zero-weight computer survives: equal-split fallback makes
	// it sampleable rather than leaving the sampler stuck.
	if err := b.SetUp([]bool{true, false, false, false}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := b.Next(); got != 0 {
			t.Fatalf("zero-weight sole survivor: selected %d, want 0", got)
		}
	}
}

// TestJIQDispatchesToIdleToken is the defining JIQ property: whenever
// any computer holds an idle token, the dispatch goes to a token holder
// (FIFO), and the token is spent by the dispatch.
func TestJIQDispatchesToIdleToken(t *testing.T) {
	const n = 5
	fb, err := NewSampler(n, Sampling{D: 2, Weights: []float64{1, 1, 1, 1, 1}}, rng.New(71).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewJIQ(n, fb)
	if err != nil {
		t.Fatal(err)
	}
	view := make(fakeView, n)
	q.Bind(view)
	q.ReportIdle(3)
	q.ReportIdle(1)
	q.ReportIdle(3) // duplicate: must be a no-op
	if q.IdleTokens() != 2 {
		t.Fatalf("IdleTokens() = %d, want 2", q.IdleTokens())
	}
	if got := q.Next(); got != 3 {
		t.Errorf("first dispatch = %d, want the oldest token holder 3", got)
	}
	if q.HasToken(3) {
		t.Error("token 3 not spent by the dispatch")
	}
	if got := q.Next(); got != 1 {
		t.Errorf("second dispatch = %d, want token holder 1", got)
	}
	// Idle list empty: the fallback decides, and it can pick anyone.
	for i := range view {
		view[i] = 1
	}
	for i := 0; i < 100; i++ {
		if got := q.Next(); got < 0 || got >= n {
			t.Fatalf("fallback returned out-of-range computer %d", got)
		}
	}
}

// TestJIQMaskDiscardsTokens verifies down computers' tokens are
// discarded at pop time and that SetUp itself issues no tokens —
// repair re-issue is the policy layer's job (one token per fleet, not
// one per replica), covered by TestScalableJIQRepairReissue in
// internal/sched.
func TestJIQMaskDiscardsTokens(t *testing.T) {
	const n = 3
	fb, err := NewSampler(n, Sampling{D: 2, Weights: []float64{1, 1, 1}}, rng.New(81).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewJIQ(n, fb)
	if err != nil {
		t.Fatal(err)
	}
	view := fakeView{0, 4, 4}
	q.Bind(view)
	q.ReportIdle(0)
	q.ReportIdle(1)
	if err := q.SetUp([]bool{false, true, true}); err != nil {
		t.Fatal(err)
	}
	// Computer 0's token is stale; the pop must skip it and use 1's.
	if got := q.Next(); got != 1 {
		t.Errorf("dispatch with down token holder = %d, want 1", got)
	}
	if err := q.SetUp(make([]bool, n)); !errors.Is(err, ErrNoComputerUp) {
		t.Errorf("SetUp(all-down) = %v, want ErrNoComputerUp", err)
	}
	// Repair: the mask change alone must NOT conjure tokens — each
	// replica doing so independently would duplicate them fleet-wide.
	if err := q.SetUp([]bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	if q.HasToken(0) {
		t.Error("SetUp issued a token; re-issue belongs to the policy layer")
	}
	// The policy layer re-issues explicitly.
	q.ReportIdle(0)
	if got := q.Next(); got != 0 {
		t.Errorf("dispatch after repair = %d, want 0", got)
	}
}

// TestJIQLeases exercises lease expiry, dedup refresh, and the pop-time
// outcome hooks.
func TestJIQLeases(t *testing.T) {
	const n = 3
	fb, err := NewSampler(n, Sampling{D: 2, Weights: []float64{1, 1, 1}}, rng.New(17).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewJIQ(n, fb)
	if err != nil {
		t.Fatal(err)
	}
	q.Bind(fakeView{4, 4, 4})
	now := 0.0
	q.SetClock(func() float64 { return now })
	var spent, expired []int
	q.SetTokenHooks(
		func(i int, expiry float64) { spent = append(spent, i) },
		func(i int, expiry float64) { expired = append(expired, i) },
		nil,
	)

	if !q.ReportIdleLease(0, 10) {
		t.Fatal("first report must install a token")
	}
	if q.ReportIdleLease(0, 20) {
		t.Fatal("duplicate report must dedup")
	}
	if !q.ReportIdleLease(1, 5) {
		t.Fatal("report for a second computer must install")
	}

	// Computer 1's lease (5) is expired at t=7; computer 0's was
	// refreshed to 20 by the dedup, so it survives.
	now = 7
	if got := q.Next(); got != 0 {
		t.Fatalf("Next = %d, want 0 (token 1 expired... order is FIFO: 0 first anyway)", got)
	}
	if got := q.Next(); got < 0 || got >= n || q.IdleTokens() != 0 {
		t.Fatalf("second pop = %d tokens=%d; token 1 must have expired to fallback", got, q.IdleTokens())
	}
	if len(spent) != 1 || spent[0] != 0 {
		t.Fatalf("spent = %v, want [0]", spent)
	}
	if len(expired) != 1 || expired[0] != 1 {
		t.Fatalf("expired = %v, want [1]", expired)
	}

	// An unexpired lease dispatches normally; a zero lease never expires.
	q.ReportIdleLease(2, 0)
	now = 1e9
	if got := q.Next(); got != 2 {
		t.Fatalf("zero-lease token = %d, want 2", got)
	}
}

// TestJIQTokenListCompaction drives many token cycles to exercise the
// consumed-prefix compaction and FIFO order across compactions.
func TestJIQTokenListCompaction(t *testing.T) {
	const n = 8
	fb, err := NewSampler(n, Sampling{D: 2, Weights: make([]float64, n)}, rng.New(91).Derive("pod"))
	if err == nil {
		t.Fatal("zero-sum weights accepted")
	}
	fb, err = NewSampler(n, Sampling{D: 2, Weights: []float64{1, 1, 1, 1, 1, 1, 1, 1}}, rng.New(91).Derive("pod"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewJIQ(n, fb)
	if err != nil {
		t.Fatal(err)
	}
	q.Bind(make(fakeView, n))
	for cycle := 0; cycle < 500; cycle++ {
		for i := 0; i < n; i++ {
			q.ReportIdle((cycle + i) % n)
		}
		for i := 0; i < n; i++ {
			if got, want := q.Next(), (cycle+i)%n; got != want {
				t.Fatalf("cycle %d: dispatch %d = %d, want FIFO order %d", cycle, i, got, want)
			}
		}
	}
	if q.IdleTokens() != 0 {
		t.Errorf("IdleTokens() = %d after draining, want 0", q.IdleTokens())
	}
}

// TestScalableConstructorValidation covers the d/n/width/weight checks
// of the sampler and the JIQ fallback invariants.
func TestScalableConstructorValidation(t *testing.T) {
	st := rng.New(1).Derive("v")
	for _, c := range []struct {
		label string
		n     int
		s     Sampling
	}{
		{"sampler over zero computers", 0, Sampling{D: 1}},
		{"negative sample width", 4, Sampling{D: -1}},
		{"jsq(3) over 2 computers", 2, Sampling{D: 3}},
		{"jsq(65) beyond MaxSampleWidth", 100, Sampling{D: 65}},
		{"negative weight", 2, Sampling{D: 1, Weights: []float64{1, -1}}},
		{"weights of the wrong length", 3, Sampling{D: 1, Weights: []float64{1, 1}}},
		{"speeds of the wrong length", 3, Sampling{Speeds: []float64{1, 1}}},
	} {
		if _, err := NewSampler(c.n, c.s, st); err == nil {
			t.Errorf("%s accepted", c.label)
		}
	}
	if _, err := NewJIQ(3, nil); err == nil {
		t.Error("jiq without fallback accepted")
	}
	fb, err := NewSampler(2, Sampling{D: 1}, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJIQ(3, fb); err == nil {
		t.Error("jiq fallback width mismatch accepted")
	}
}
