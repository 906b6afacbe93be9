package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"heterosched/internal/rng"
	"heterosched/internal/stats"
)

// sampleMoments draws n variates and returns their accumulator.
func sampleMoments(t *testing.T, d Distribution, n int, seed uint64) *stats.Accumulator {
	t.Helper()
	st := rng.New(seed)
	var acc stats.Accumulator
	for i := 0; i < n; i++ {
		x := d.Sample(st)
		if math.IsNaN(x) || x < 0 {
			t.Fatalf("%s produced invalid sample %v", d, x)
		}
		acc.Add(x)
	}
	return &acc
}

// checkMeanVar verifies sample mean/variance against analytic moments
// within relative tolerance tol.
func checkMeanVar(t *testing.T, d Distribution, n int, tol float64) {
	t.Helper()
	acc := sampleMoments(t, d, n, 12345)
	if m := d.Mean(); math.Abs(acc.Mean()-m)/m > tol {
		t.Errorf("%s: sample mean %v vs analytic %v", d, acc.Mean(), m)
	}
	if v := d.Variance(); v > 0 {
		if math.Abs(acc.Variance()-v)/v > 3*tol {
			t.Errorf("%s: sample variance %v vs analytic %v", d, acc.Variance(), v)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	checkMeanVar(t, NewExponential(2.5), 400000, 0.02)
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewExponential(0)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 4.2}
	st := rng.New(1)
	for i := 0; i < 10; i++ {
		if d.Sample(st) != 4.2 {
			t.Fatal("deterministic sample changed")
		}
	}
	if d.Mean() != 4.2 || d.Variance() != 0 {
		t.Error("deterministic moments wrong")
	}
}

func TestUniformMoments(t *testing.T) {
	checkMeanVar(t, Uniform{Lo: 1, Hi: 9}, 400000, 0.01)
}

func TestUniformSupport(t *testing.T) {
	u := Uniform{Lo: 3, Hi: 7}
	st := rng.New(2)
	for i := 0; i < 100000; i++ {
		x := u.Sample(st)
		if x < 3 || x >= 7 {
			t.Fatalf("uniform sample %v out of [3,7)", x)
		}
	}
}

func TestPaperJobSizeMean(t *testing.T) {
	// The paper states the default B(10, 21600, 1.0) has mean 76.8 s.
	b := PaperJobSize()
	if math.Abs(b.Mean()-76.8) > 0.1 {
		t.Errorf("paper job size analytic mean = %v, want 76.8", b.Mean())
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	b := PaperJobSize()
	st := rng.New(3)
	for i := 0; i < 200000; i++ {
		x := b.Sample(st)
		if x < b.K || x > b.P {
			t.Fatalf("bounded pareto sample %v outside [%v,%v]", x, b.K, b.P)
		}
	}
}

// TestBoundedParetoSampleMatchesPow holds Sample to the two-power
// inversion at every α, including α = 1, where Sample skips both powers:
// the same draw must give the same float.
func TestBoundedParetoSampleMatchesPow(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 1.5, 2} {
		b := NewBoundedPareto(10, 21600, alpha)
		st, ref := rng.New(5), rng.New(5)
		for i := 0; i < 100000; i++ {
			u := ref.Float64()
			want := b.K / math.Pow(1-u*(1-math.Pow(b.K/b.P, alpha)), 1/alpha)
			want = min(max(want, b.K), b.P)
			if got := b.Sample(st); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("α=%v draw %d (u=%v): Sample %v, inversion %v", alpha, i, u, got, want)
			}
		}
	}
}

func TestBoundedParetoSampleMean(t *testing.T) {
	// α=1 heavy tail: needs many samples; tolerate 5%.
	b := PaperJobSize()
	acc := sampleMoments(t, b, 2000000, 99)
	if math.Abs(acc.Mean()-76.8)/76.8 > 0.05 {
		t.Errorf("sample mean %v, want ~76.8", acc.Mean())
	}
}

func TestBoundedParetoMomentsAlphaNot1(t *testing.T) {
	checkMeanVar(t, NewBoundedPareto(1, 100, 2.5), 500000, 0.02)
}

func TestBoundedParetoRawMomentDegenerate(t *testing.T) {
	// r == α hits the logarithmic branch.
	b := NewBoundedPareto(10, 21600, 2.0)
	m2 := b.RawMoment(2)
	if !(m2 > 0) || math.IsInf(m2, 0) {
		t.Errorf("RawMoment(α) = %v, want finite positive", m2)
	}
	// Compare against a direct numeric integral of x^2 f(x).
	numeric := numericMoment(b, 2)
	if math.Abs(m2-numeric)/numeric > 1e-3 {
		t.Errorf("RawMoment(2) = %v, numeric integral %v", m2, numeric)
	}
}

// numericMoment integrates x^r f(x) for a BoundedPareto via log-spaced
// trapezoids (accurate enough for test tolerance).
func numericMoment(b BoundedPareto, r float64) float64 {
	const n = 200000
	f := func(x float64) float64 {
		c := b.Alpha * math.Pow(b.K, b.Alpha) / (1 - math.Pow(b.K/b.P, b.Alpha))
		return c * math.Pow(x, -b.Alpha-1) * math.Pow(x, r)
	}
	lo, hi := math.Log(b.K), math.Log(b.P)
	h := (hi - lo) / n
	sum := 0.0
	for i := 0; i <= n; i++ {
		x := math.Exp(lo + float64(i)*h)
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * f(x) * x // dx = x d(log x)
	}
	return sum * h
}

func TestBoundedParetoPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBoundedPareto(0, 1, 1) },
		func() { NewBoundedPareto(2, 1, 1) },
		func() { NewBoundedPareto(1, 2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestHyperExp2Moments(t *testing.T) {
	checkMeanVar(t, HyperExp2{P1: 0.3, R1: 2.0, R2: 0.25}, 500000, 0.02)
}

func TestFitHyperExp2PaperSetting(t *testing.T) {
	// The paper's arrival process: CV = 3, arbitrary mean.
	for _, mean := range []float64{0.5, 2.2, 76.8} {
		h := FitHyperExp2(mean, 3.0)
		if math.Abs(h.Mean()-mean)/mean > 1e-12 {
			t.Errorf("fitted mean %v, want %v", h.Mean(), mean)
		}
		if cv := CV(h); math.Abs(cv-3.0) > 1e-9 {
			t.Errorf("fitted CV %v, want 3", cv)
		}
	}
}

func TestFitHyperExp2SampledCV(t *testing.T) {
	h := FitHyperExp2(2.2, 3.0)
	acc := sampleMoments(t, h, 2000000, 7)
	if math.Abs(acc.Mean()-2.2)/2.2 > 0.02 {
		t.Errorf("sample mean %v, want 2.2", acc.Mean())
	}
	if cv := acc.StdDev() / acc.Mean(); math.Abs(cv-3.0) > 0.1 {
		t.Errorf("sample CV %v, want ~3", cv)
	}
}

func TestFitHyperExp2CV1IsExponential(t *testing.T) {
	h := FitHyperExp2(5, 1)
	if math.Abs(CV(h)-1) > 1e-9 {
		t.Errorf("CV(h)=%v, want 1", CV(h))
	}
	if math.Abs(h.Mean()-5) > 1e-12 {
		t.Errorf("mean %v, want 5", h.Mean())
	}
}

func TestFitHyperExp2Panics(t *testing.T) {
	for _, f := range []func(){
		func() { FitHyperExp2(0, 3) },
		func() { FitHyperExp2(1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: FitHyperExp2 reproduces the requested two moments for any
// valid (mean, cv).
func TestQuickFitHyperExp2(t *testing.T) {
	f := func(m, c float64) bool {
		mean := 0.01 + math.Mod(math.Abs(m), 100)
		cv := 1 + math.Mod(math.Abs(c), 9)
		if math.IsNaN(mean) || math.IsNaN(cv) {
			return true
		}
		h := FitHyperExp2(mean, cv)
		return math.Abs(h.Mean()-mean)/mean < 1e-9 &&
			math.Abs(CV(h)-cv)/cv < 1e-9 &&
			h.P1 >= 0 && h.P1 <= 1 && h.R1 > 0 && h.R2 > 0
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestCVEdgeCases(t *testing.T) {
	if CV(Deterministic{Value: 0}) != 0 {
		t.Error("CV with zero mean should be 0")
	}
}

// Property: samples of every bounded-support distribution stay in support.
func TestQuickBoundedParetoSupport(t *testing.T) {
	f := func(seed uint64, kRaw, ratioRaw, aRaw float64) bool {
		k := 0.1 + math.Mod(math.Abs(kRaw), 100)
		p := k * (1.5 + math.Mod(math.Abs(ratioRaw), 1000))
		a := 0.2 + math.Mod(math.Abs(aRaw), 4)
		if math.IsNaN(k) || math.IsNaN(p) || math.IsNaN(a) {
			return true
		}
		b := NewBoundedPareto(k, p, a)
		st := rng.New(seed)
		for i := 0; i < 100; i++ {
			x := b.Sample(st)
			if x < k || x > p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBoundedParetoSample(b *testing.B) {
	d := PaperJobSize()
	st := rng.New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = d.Sample(st)
	}
	_ = sink
}

func BenchmarkHyperExp2Sample(b *testing.B) {
	d := FitHyperExp2(2.2, 3)
	st := rng.New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = d.Sample(st)
	}
	_ = sink
}
