package stats

import (
	"math"
	"testing"
)

func TestWindowMeanBasics(t *testing.T) {
	e := NewWindowMean(4)
	if !math.IsNaN(e.Mean()) {
		t.Errorf("empty Mean = %v, want NaN", e.Mean())
	}
	if !math.IsInf(e.RelHalfWidth(), 1) {
		t.Errorf("empty RelHalfWidth = %v, want +Inf", e.RelHalfWidth())
	}
	for _, x := range []float64{1, 2, 3, 4} {
		e.Observe(x)
	}
	if got := e.Mean(); got != 2.5 {
		t.Errorf("Mean = %v, want 2.5", got)
	}
	// Ring wraps: the window is now {5, 2, 3, 4} -> mean 3.5.
	e.Observe(5)
	if got := e.Mean(); got != 3.5 {
		t.Errorf("Mean after wrap = %v, want 3.5", got)
	}
	if e.N() != 5 {
		t.Errorf("N = %d, want 5", e.N())
	}
	if eff := e.EffN(); eff != 4 {
		t.Errorf("EffN = %v, want 4 (window fill)", eff)
	}
}

func TestWindowMeanForgetsOldRegime(t *testing.T) {
	e := NewWindowMean(8)
	for i := 0; i < 100; i++ {
		e.Observe(10)
	}
	for i := 0; i < 8; i++ {
		e.Observe(20)
	}
	if got := e.Mean(); got != 20 {
		t.Errorf("Mean = %v, want 20 (old regime fully evicted)", got)
	}
}

func TestEWMAMeanTracksStep(t *testing.T) {
	e := NewEWMAMean(0.1)
	for i := 0; i < 500; i++ {
		e.Observe(10)
	}
	if got := e.Mean(); math.Abs(got-10) > 1e-9 {
		t.Errorf("steady Mean = %v, want 10", got)
	}
	if rhw := e.RelHalfWidth(); rhw > 1e-6 {
		t.Errorf("constant-stream RelHalfWidth = %v, want ~0", rhw)
	}
	for i := 0; i < 500; i++ {
		e.Observe(20)
	}
	if got := e.Mean(); math.Abs(got-20) > 1e-6 {
		t.Errorf("post-step Mean = %v, want 20", got)
	}
	// EffN is the variance-matched equivalent window, capped by N.
	if eff := e.EffN(); math.Abs(eff-(2-0.1)/0.1) > 1e-12 {
		t.Errorf("EffN = %v, want %v", eff, (2-0.1)/0.1)
	}
}

func TestRelHalfWidthShrinks(t *testing.T) {
	// Deterministic alternating stream: the relative half-width must
	// shrink as the window widens over the same spread.
	narrow, wide := NewWindowMean(8), NewWindowMean(128)
	for i := 0; i < 256; i++ {
		x := 10.0
		if i%2 == 0 {
			x = 20
		}
		narrow.Observe(x)
		wide.Observe(x)
	}
	if nw, ww := narrow.RelHalfWidth(), wide.RelHalfWidth(); !(ww < nw) {
		t.Errorf("wide RelHalfWidth %v not below narrow %v", ww, nw)
	}
}

func TestRateEstimator(t *testing.T) {
	r := NewWindowRate(16)
	if !math.IsNaN(r.Rate()) {
		t.Errorf("empty Rate = %v, want NaN", r.Rate())
	}
	for i := 0; i <= 20; i++ {
		r.ObserveAt(float64(i) * 0.5) // 2 events/s
	}
	if got := r.Rate(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Rate = %v, want 2", got)
	}
	if r.N() != 20 {
		t.Errorf("N = %d gaps, want 20", r.N())
	}
	if rhw := r.RelHalfWidth(); rhw > 1e-6 {
		t.Errorf("constant-gap RelHalfWidth = %v, want ~0", rhw)
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewEWMAMean(0) },
		func() { NewEWMAMean(1.5) },
		func() { NewWindowMean(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor accepted invalid parameter")
				}
			}()
			f()
		}()
	}
}

// TestObserveZeroAlloc locks the hot-path promise: the estimator hooks
// sit on the simulator's arrival/departure path, which is benchmarked
// at zero allocations per steady-state job.
func TestObserveZeroAlloc(t *testing.T) {
	wm := NewWindowMean(64)
	em := NewEWMAMean(0.05)
	wr := NewWindowRate(64)
	x, tm := 0.0, 0.0
	if n := testing.AllocsPerRun(1000, func() {
		x += 1.25
		tm += 0.5
		wm.Observe(x)
		em.Observe(x)
		wr.ObserveAt(tm)
	}); n != 0 {
		t.Errorf("Observe/ObserveAt allocate %v allocs/op, want 0", n)
	}
}

// BenchmarkEstimatorSteadyState drives the exact per-job estimator work
// the adaptive layer performs (one rate observation and one size
// observation per arrival) and is tracked by benchreg for allocs/op.
func BenchmarkEstimatorSteadyState(b *testing.B) {
	rate := NewWindowRate(256)
	size := NewWindowMean(256)
	rate.ObserveAt(0) // arm, so every iteration observes one gap
	b.ReportAllocs()
	t, x := 0.0, 0.0
	for i := 0; i < b.N; i++ {
		t += 0.125
		x = float64(i%97) + 1
		rate.ObserveAt(t)
		size.Observe(x)
	}
	if rate.N() != int64(b.N) || size.N() != int64(b.N) {
		b.Fatalf("estimators unused (%d/%d gaps, %d sizes)", rate.N(), b.N, size.N())
	}
}
