package dist

import (
	"math"
	"testing"

	"heterosched/internal/rng"
	"heterosched/internal/stats"
)

// ksCheck draws n samples and runs a KS test at the 1% level.
func ksCheck(t *testing.T, d Distribution, n int, seed uint64) {
	t.Helper()
	c, ok := d.(CDFer)
	if !ok {
		t.Fatalf("%s has no CDF", d)
	}
	st := rng.New(seed)
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = d.Sample(st)
	}
	stat, crit, pass, err := stats.KSTest(samples, c.CDF, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !pass {
		t.Errorf("%s failed KS test: D=%v, critical=%v", d, stat, crit)
	}
}

// Every sampler with a closed-form CDF passes a Kolmogorov–Smirnov
// goodness-of-fit test — the strongest distribution-level validation
// available (moments only check two numbers; KS checks the whole curve).
func TestKSGoodnessOfFit(t *testing.T) {
	cases := []Distribution{
		NewExponential(2.5),
		Uniform{Lo: 1, Hi: 9},
		PaperJobSize(),
		NewBoundedPareto(1, 100, 2.5),
		FitHyperExp2(2.2, 3.0),
		HyperExp2{P1: 0.3, R1: 2.0, R2: 0.25},
	}
	for i, d := range cases {
		ksCheck(t, d, 20000, uint64(1000+i))
	}
}

func TestCDFBoundaries(t *testing.T) {
	cases := []struct {
		c      CDFer
		lo, hi float64 // points where CDF must be 0 and 1
	}{
		{NewExponential(1), -1, 100},
		{Uniform{Lo: 2, Hi: 4}, 1.5, 4.5},
		{Deterministic{Value: 3}, 2.999, 3},
		{PaperJobSize(), 5, 30000},
		{FitHyperExp2(1, 2), -0.5, 1e6},
	}
	for _, cse := range cases {
		if got := cse.c.CDF(cse.lo); got != 0 {
			t.Errorf("%T.CDF(%v) = %v, want 0", cse.c, cse.lo, got)
		}
		if got := cse.c.CDF(cse.hi); math.Abs(got-1) > 1e-6 {
			t.Errorf("%T.CDF(%v) = %v, want ~1", cse.c, cse.hi, got)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	dists := []CDFer{
		NewExponential(2),
		PaperJobSize(),
		FitHyperExp2(2.2, 3),
	}
	for _, c := range dists {
		prev := -1.0
		for x := 0.0; x < 1000; x += 7.3 {
			f := c.CDF(x)
			if f < prev-1e-12 || f < 0 || f > 1 {
				t.Errorf("%T.CDF not monotone in [0,1] at x=%v: %v after %v", c, x, f, prev)
				break
			}
			prev = f
		}
	}
}
