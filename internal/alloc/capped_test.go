package alloc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"heterosched/internal/numeric"
	"heterosched/internal/queueing"
)

func TestCappedUncappedMatchesOptimized(t *testing.T) {
	// With ρmax = 1 the cap never binds strictly inside the stability
	// region, so the result must match Algorithm 1.
	configs := []struct {
		speeds []float64
		rho    float64
	}{
		{[]float64{1, 2, 4, 8}, 0.7},
		{[]float64{1, 1, 20}, 0.3},
		{[]float64{1, 1.5, 2, 3, 5, 9, 10}, 0.7},
	}
	for _, c := range configs {
		capped, err := CappedOptimized{}.Allocate(c.speeds, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := Optimized{}.Allocate(c.speeds, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			if math.Abs(capped[i]-exact[i]) > 1e-6 {
				t.Errorf("speeds %v rho %v: capped[%d]=%v vs optimized %v",
					c.speeds, c.rho, i, capped[i], exact[i])
			}
		}
	}
}

func TestCappedRespectsCeiling(t *testing.T) {
	speeds := []float64{1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 2, 2, 2, 5, 10, 12}
	const rho = 0.7
	const rhoMax = 0.75
	alpha, err := CappedOptimized{MaxUtilization: rhoMax}.Allocate(speeds, rho)
	if err != nil {
		t.Fatal(err)
	}
	lambda := rho * sumOf(speeds)
	sum := 0.0
	for i, a := range alpha {
		util := a * lambda / speeds[i]
		if util > rhoMax+1e-9 {
			t.Errorf("computer %d utilization %v exceeds cap %v", i, util, rhoMax)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("allocation sums to %v", sum)
	}
	// The uncapped optimum pushes the fastest machine above 0.75, so at
	// least one cap must bind here.
	exact, err := Optimized{}.Allocate(speeds, rho)
	if err != nil {
		t.Fatal(err)
	}
	fastest := len(speeds) - 1
	if exact[fastest]*lambda/speeds[fastest] <= rhoMax {
		t.Fatal("test premise wrong: uncapped optimum does not exceed the cap")
	}
	if got := alpha[fastest] * lambda / speeds[fastest]; math.Abs(got-rhoMax) > 1e-6 {
		t.Errorf("fastest machine utilization %v, want capped at %v", got, rhoMax)
	}
}

func TestCappedMatchesNumericOracle(t *testing.T) {
	// The water-filling solution must agree with projected-gradient
	// descent on the same capped program.
	speeds := []float64{1, 1, 2, 5, 10}
	const rho = 0.6
	const rhoMax = 0.7
	capped, err := CappedOptimized{MaxUtilization: rhoMax}.Allocate(speeds, rho)
	if err != nil {
		t.Fatal(err)
	}
	lambda := rho * sumOf(speeds)
	sys, err := queueing.NewSystem(speeds, 1.0, lambda)
	if err != nil {
		t.Fatal(err)
	}
	fCapped, err := sys.Objective(capped)
	if err != nil {
		t.Fatal(err)
	}
	// Numeric oracle with the same caps via the generic solver in
	// NumericOptimized semantics: reuse ProjectedGradient through a tiny
	// local run of the closed-form-free optimizer.
	oracle, err := cappedNumericOracle(speeds, rho, rhoMax)
	if err != nil {
		t.Fatal(err)
	}
	fOracle, err := sys.Objective(oracle)
	if err != nil {
		t.Fatal(err)
	}
	if fCapped > fOracle+1e-6*math.Abs(fOracle) {
		t.Errorf("water-filling F=%v worse than numeric oracle F=%v", fCapped, fOracle)
	}
	if fOracle < fCapped-1e-4*math.Abs(fCapped) {
		t.Errorf("numeric oracle F=%v beat water-filling F=%v — closed form wrong", fOracle, fCapped)
	}
}

func TestCappedInfeasible(t *testing.T) {
	_, err := CappedOptimized{MaxUtilization: 0.5}.Allocate([]float64{1, 2}, 0.7)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	if _, err := (CappedOptimized{MaxUtilization: 1.5}).Allocate([]float64{1}, 0.3); err == nil {
		t.Error("cap > 1 accepted")
	}
}

func TestCappedCapEqualsRho(t *testing.T) {
	// ρmax == ρ forces every computer to exactly ρ utilization — the
	// proportional allocation.
	speeds := []float64{1, 3, 8}
	const rho = 0.6
	alpha, err := CappedOptimized{MaxUtilization: rho}.Allocate(speeds, rho)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Proportional{}.Allocate(speeds, rho)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prop {
		if math.Abs(alpha[i]-prop[i]) > 1e-6 {
			t.Errorf("alpha[%d]=%v, want proportional %v", i, alpha[i], prop[i])
		}
	}
}

func TestCappedZeroLoad(t *testing.T) {
	alpha, err := CappedOptimized{MaxUtilization: 0.9}.Allocate([]float64{1, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alpha[1] != 1 {
		t.Errorf("zero-load allocation = %v", alpha)
	}
}

func TestCappedName(t *testing.T) {
	if got := (CappedOptimized{}).Name(); got != "Ocap" {
		t.Errorf("name = %q", got)
	}
	if got := (CappedOptimized{MaxUtilization: 0.8}).Name(); got != "Ocap(0.8)" {
		t.Errorf("name = %q", got)
	}
}

// Property: for random configurations, the capped allocation is feasible,
// respects caps, and its objective is between the uncapped optimum and
// the proportional allocation's objective.
func TestQuickCappedBetweenOptimalAndProportional(t *testing.T) {
	f := func(raw []uint8, rhoRaw, capRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		speeds := make([]float64, len(raw))
		for i, r := range raw {
			speeds[i] = 1 + float64(r%20)
		}
		rho := 0.1 + float64(rhoRaw%80)/100.0            // 0.1..0.89
		rhoMax := rho + (1-rho)*float64(capRaw%100)/100. // in [rho, 1)
		if rhoMax <= rho {
			rhoMax = rho
		}
		alpha, err := CappedOptimized{MaxUtilization: rhoMax}.Allocate(speeds, rho)
		if err != nil {
			return false
		}
		lambda := rho * sumOf(speeds)
		sum := 0.0
		for i, a := range alpha {
			if a < -1e-12 || a*lambda > rhoMax*speeds[i]+1e-6 {
				return false
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-6 {
			return false
		}
		sys, err := queueing.NewSystem(speeds, 1.0, lambda)
		if err != nil {
			return false
		}
		fCap, err := sys.Objective(alpha)
		if err != nil {
			return false
		}
		opt, err := Optimized{}.Allocate(speeds, rho)
		if err != nil {
			return false
		}
		fOpt, err := sys.Objective(opt)
		if err != nil {
			return false
		}
		prop, err := Proportional{}.Allocate(speeds, rho)
		if err != nil {
			return false
		}
		fProp, err := sys.Objective(prop)
		if err != nil {
			return false
		}
		return fCap >= fOpt-1e-6 && fCap <= fProp+1e-6
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// cappedNumericOracle solves the capped program with projected gradient
// descent, mirroring NumericOptimized but with utilization caps.
func cappedNumericOracle(speeds []float64, rho, rhoMax float64) ([]float64, error) {
	lambda := rho * sumOf(speeds)
	f := func(x []float64) float64 {
		v := 0.0
		for i := range x {
			d := speeds[i] - x[i]*lambda
			if d <= 0 {
				return math.Inf(1)
			}
			v += speeds[i] / d
		}
		return v
	}
	grad := func(x []float64) []float64 {
		g := make([]float64, len(x))
		for i := range x {
			d := speeds[i] - x[i]*lambda
			if d <= 0 {
				g[i] = math.Inf(1)
				continue
			}
			g[i] = speeds[i] * lambda / (d * d)
		}
		return g
	}
	caps := make([]float64, len(speeds))
	for i, s := range speeds {
		caps[i] = rhoMax * s / lambda
	}
	start, err := Proportional{}.Allocate(speeds, rho)
	if err != nil {
		return nil, err
	}
	res, err := numericProjectedGradient(f, grad, start, caps)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// numericProjectedGradient is a thin adapter over numeric.ProjectedGradient
// used only by the oracle above.
func numericProjectedGradient(f func([]float64) float64, grad func([]float64) []float64, start, caps []float64) ([]float64, error) {
	res, err := numeric.ProjectedGradient(f, grad, start, caps, 1, 1e-12, 50000)
	if err != nil && !errors.Is(err, numeric.ErrNoConvergence) {
		return nil, err
	}
	return res.X, nil
}
