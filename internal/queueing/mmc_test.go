package queueing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestErlangCSingleServer(t *testing.T) {
	// c=1: C = ρ (the M/M/1 probability of waiting).
	for _, a := range []float64{0.1, 0.5, 0.9} {
		got, err := ErlangC(1, a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-a) > 1e-12 {
			t.Errorf("ErlangC(1, %v) = %v, want %v", a, got, a)
		}
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Classic tabulated value: c=5, a=4 Erlangs → C ≈ 0.5541.
	got, err := ErlangC(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5541) > 5e-4 {
		t.Errorf("ErlangC(5,4) = %v, want ~0.5541", got)
	}
}

func TestErlangCEdges(t *testing.T) {
	if got, err := ErlangC(3, 0); err != nil || got != 0 {
		t.Errorf("zero load: %v, %v", got, err)
	}
	if got, err := ErlangC(3, 3); err != nil || got != 1 {
		t.Errorf("saturated: %v, %v", got, err)
	}
	if _, err := ErlangC(0, 1); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := ErlangC(2, -1); err == nil {
		t.Error("negative load accepted")
	}
}

// Property: Erlang-C is a probability and increases with offered load.
func TestQuickErlangCMonotone(t *testing.T) {
	f := func(cRaw, aRaw uint8) bool {
		c := int(cRaw%20) + 1
		a1 := float64(aRaw%100) / 100 * float64(c) * 0.95
		a2 := a1 * 1.05
		if a2 >= float64(c) {
			return true
		}
		p1, err1 := ErlangC(c, a1)
		p2, err2 := ErlangC(c, a2)
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 >= 0 && p1 <= 1 && p2+1e-12 >= p1
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestMMcMeanResponse(t *testing.T) {
	// c=1 reduces to M/M/1.
	got, err := MMcMeanResponseTime(1, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("M/M/1 via M/M/c = %v, want 2", got)
	}
	// More servers at the same total capacity serve better than fewer
	// only for waits, worse for service: compare sensibly — M/M/2 with
	// per-server μ=1 at λ=1: E[T] = 1 + C(2,1)/(2−1); C(2,1) = 1/3 → 4/3.
	got2, err := MMcMeanResponseTime(2, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got2-4.0/3) > 1e-9 {
		t.Errorf("M/M/2 = %v, want 4/3", got2)
	}
	// Saturation.
	inf, err := MMcMeanResponseTime(2, 2.0, 1.0)
	if err != nil || !math.IsInf(inf, 1) {
		t.Errorf("saturated M/M/c = %v, %v", inf, err)
	}
	if _, err := MMcMeanResponseTime(1, 1, 0); err == nil {
		t.Error("mu=0 accepted")
	}
}

func TestPooledBound(t *testing.T) {
	sys := mustSystem(t, []float64{1, 1, 10}, 1.0, 6.0)
	// Pooled capacity 12, λ=6: E[T] = 1/(12−6).
	if got := sys.PooledMeanResponseTime(); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("pooled T = %v, want 1/6", got)
	}
	if got := sys.PooledMeanResponseRatio(); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("pooled R = %v (mu=1)", got)
	}
}

func TestPooledBoundBelowOptimizedStatic(t *testing.T) {
	// The pooled bound must lower-bound the Theorem 1 optimum for every
	// configuration (pooling dominates any split).
	configs := []struct {
		speeds []float64
		rho    float64
	}{
		{[]float64{1, 1, 1, 1}, 0.6},
		{[]float64{1, 2, 4, 8}, 0.7},
		{[]float64{1, 1.5, 2, 3, 5, 9, 10}, 0.9},
	}
	for _, c := range configs {
		total := 0.0
		for _, s := range c.speeds {
			total += s
		}
		sys := mustSystem(t, c.speeds, 1.0, c.rho*total)
		fstar, err := sys.TheoremOneMinimum()
		if err != nil {
			t.Fatal(err)
		}
		tStar := sys.ObjectiveToMeanResponseTime(fstar)
		if pooled := sys.PooledMeanResponseTime(); pooled > tStar+1e-12 {
			t.Errorf("speeds %v rho %v: pooled bound %v above static optimum %v",
				c.speeds, c.rho, pooled, tStar)
		}
	}
}

func TestPooledBoundSaturated(t *testing.T) {
	sys := mustSystem(t, []float64{1}, 1.0, 2.0)
	if !math.IsInf(sys.PooledMeanResponseTime(), 1) {
		t.Error("saturated pooled bound should be +Inf")
	}
}
