package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	approx(t, a.Mean(), 5, 1e-12, "mean")
	approx(t, a.PopStdDev(), 2, 1e-12, "pop stddev")
	approx(t, a.Variance(), 32.0/7.0, 1e-12, "variance")
	approx(t, a.Max(), 9, 0, "max")
	if a.N() != 8 {
		t.Errorf("N = %d, want 8", a.N())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdDev() != 0 || a.N() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	approx(t, a.Mean(), 3, 0, "mean")
	if a.Variance() != 0 {
		t.Error("single-element variance should be 0")
	}
}

func TestAccumulatorReset(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(2)
	a.Reset()
	if a.N() != 0 || a.Mean() != 0 {
		t.Error("Reset did not clear accumulator")
	}
}

// Property: variance is never negative.
func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				continue // avoid float64 overflow in sums of squares
			}
			a.Add(x)
		}
		return a.Variance() >= 0 && a.PopVariance() >= 0
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestSampleStats(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	approx(t, s.Mean(), 5, 1e-12, "mean")
	approx(t, s.StdDev(), math.Sqrt(32.0/7.0), 1e-12, "stddev")
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSampleCI95(t *testing.T) {
	// 10 replications, known values: CI = t(9) * sd/sqrt(10).
	s := sampleOf(10, 12, 9, 11, 10, 10, 13, 8, 10, 11)
	wantHW := 2.262 * s.StdDev() / math.Sqrt(10)
	approx(t, s.CI95(), wantHW, 1e-9, "CI95 half-width")
}

func TestSampleCIEdge(t *testing.T) {
	if sampleOf().CI95() != 0 || sampleOf(1).CI95() != 0 {
		t.Error("CI95 of <2 values should be 0")
	}
}

func TestTCritical(t *testing.T) {
	approx(t, tCritical95(1), 12.706, 1e-3, "t(1)")
	approx(t, tCritical95(9), 2.262, 1e-3, "t(9)")
	approx(t, tCritical95(30), 2.042, 1e-3, "t(30)")
	approx(t, tCritical95(100), 1.984, 5e-3, "t(100)")
	approx(t, tCritical95(1000000), 1.96, 1e-3, "t(inf)")
	if !math.IsNaN(tCritical95(0)) {
		t.Error("t(0) should be NaN")
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 1) // value 1 on [0,2)
	tw.Update(2, 3) // value 3 on [2,5)
	tw.Update(5, 0) // value 0 on [5,10)
	tw.Finish(10)
	// integral = 1*2 + 3*3 + 0*5 = 11 over 10.
	approx(t, tw.Mean(), 1.1, 1e-12, "time-weighted mean")
	approx(t, tw.Area(), 11, 1e-12, "area")
	approx(t, tw.Duration(), 10, 1e-12, "duration")
}

// TestTimeWeightedEqualTimestamps: updates at the same instant are legal
// zero-length segments — the last value set at t wins from t onward, and
// neither area nor duration changes.
func TestTimeWeightedEqualTimestamps(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 1)
	tw.Update(2, 0) // failure at t=2...
	tw.Update(2, 1) // ...repaired in the same event batch
	tw.Finish(4)
	// The zero-length down segment contributes nothing: value 1 on [0,4).
	approx(t, tw.Area(), 4, 1e-12, "area with zero-length segment")
	approx(t, tw.Duration(), 4, 1e-12, "duration with zero-length segment")
	approx(t, tw.Mean(), 1, 1e-12, "mean with zero-length segment")

	// Finish at the last update time is also a zero-length segment.
	var tw2 TimeWeighted
	tw2.Update(0, 3)
	tw2.Update(5, 7)
	tw2.Finish(5)
	approx(t, tw2.Mean(), 3, 1e-12, "mean when Finish coincides with last update")
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	var tw TimeWeighted
	tw.Update(5, 1)
	tw.Update(3, 2)
}

func TestHistogramLogBins(t *testing.T) {
	h := NewLogHistogram(1, 10000, 4)
	for _, x := range []float64{2, 20, 200, 2000} {
		h.Add(x)
	}
	for i := 0; i < 4; i++ {
		if h.Bin(i) != 1 {
			t.Errorf("log bin %d = %d, want 1", i, h.Bin(i))
		}
	}
	lo, hi := h.BinBounds(1)
	approx(t, lo, 10, 1e-9, "bin1 lo")
	approx(t, hi, 100, 1e-9, "bin1 hi")
}

func TestHistogramQuantile(t *testing.T) {
	h := NewLogHistogram(1, 101, 100)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%100 + 1))
	}
	q := h.Quantile(0.5)
	if q < 45 || q > 55 {
		t.Errorf("median estimate %v not near 50", q)
	}
}

func TestHistogramUpperEdge(t *testing.T) {
	h := NewLogHistogram(1, 2, 3)
	h.Add(math.Nextafter(2, 0)) // just below hi; must not panic or overflow
	if h.Overflow() != 0 {
		t.Error("value below hi counted as overflow")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { NewLogHistogram(2, 1, 5) },
		func() { NewLogHistogram(1, 2, 0) },
		func() { NewLogHistogram(0, 1, 5) },
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

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i))
	}
}

func BenchmarkTimeWeightedUpdate(b *testing.B) {
	var tw TimeWeighted
	for i := 0; i < b.N; i++ {
		tw.Update(float64(i), float64(i%7))
	}
}

func TestKSStatisticExactUniform(t *testing.T) {
	// Empirical CDF of {0.5} vs U(0,1): D = 0.5.
	d := KSStatistic([]float64{0.5}, func(x float64) float64 { return x })
	approx(t, d, 0.5, 1e-12, "KS single point")
}

func TestKSDetectsWrongDistribution(t *testing.T) {
	// Samples from U(0,1) tested against U(0,2): D ≈ 0.5, clear reject.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i) / 1000
	}
	_, _, ok, err := KSTest(xs, func(x float64) float64 {
		if x > 2 {
			return 1
		}
		return x / 2
	}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("KS failed to reject a doubled-scale CDF")
	}
}

func TestKSAcceptsMatchingDistribution(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / 1000
	}
	d, crit, ok, err := KSTest(xs, func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("KS rejected the true CDF: D=%v crit=%v", d, crit)
	}
}

func TestKSCriticalValues(t *testing.T) {
	for _, c := range []struct {
		n     int
		alpha float64
		want  float64
	}{
		{100, 0.05, 0.1358},
		{100, 0.01, 0.1628},
		{400, 0.10, 0.0612},
	} {
		got, err := KSCritical(c.n, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, got, c.want, 1e-3, "KS critical")
	}
	if _, err := KSCritical(0, 0.05); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := KSCritical(10, 0.5); err == nil {
		t.Error("unsupported alpha accepted")
	}
}

func TestKSEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KSStatistic(nil, func(float64) float64 { return 0 })
}

func TestMSERDetectsTransient(t *testing.T) {
	// Series with an obvious initial transient: level 100 for 20 points,
	// then stationary noise around 10. MSER should truncate near 20.
	series := make([]float64, 200)
	for i := range series {
		if i < 20 {
			series[i] = 100 - float64(i) // decaying transient
		} else {
			series[i] = 10 + float64(i%5) // small stationary wiggle
		}
	}
	d, err := MSER(series)
	if err != nil {
		t.Fatal(err)
	}
	if d < 15 || d > 30 {
		t.Errorf("MSER truncation = %d, want ~20", d)
	}
}

func TestMSERStationarySeries(t *testing.T) {
	// A stationary series needs little or no truncation.
	series := make([]float64, 100)
	for i := range series {
		series[i] = 5 + float64(i%3)
	}
	d, err := MSER(series)
	if err != nil {
		t.Fatal(err)
	}
	if d > 10 {
		t.Errorf("MSER truncated %d points of a stationary series", d)
	}
}

func TestMSERValidation(t *testing.T) {
	if _, err := MSER([]float64{1, 2, 3}); err == nil {
		t.Error("too-short series accepted")
	}
	if _, err := MSERBatch([]float64{1, 2, 3, 4}, 0); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := MSERBatch(make([]float64, 10), 5); err == nil {
		t.Error("too few batches accepted")
	}
}

func TestMSERBatchScalesTruncation(t *testing.T) {
	series := make([]float64, 500)
	for i := range series {
		if i < 50 {
			series[i] = 50
		} else {
			series[i] = 1
		}
	}
	d, err := MSERBatch(series, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d < 40 || d > 75 {
		t.Errorf("MSER-5 truncation = %d, want ~50", d)
	}
	if d%5 != 0 {
		t.Errorf("truncation %d not a multiple of the batch size", d)
	}
}

func sampleOf(xs ...float64) *Sample {
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}
