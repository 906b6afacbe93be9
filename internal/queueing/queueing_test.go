package queueing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustSystem(t *testing.T, speeds []float64, mu, lambda float64) *System {
	t.Helper()
	sys, err := NewSystem(speeds, mu, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemValidation(t *testing.T) {
	cases := []struct {
		speeds []float64
		mu, la float64
	}{
		{nil, 1, 1},
		{[]float64{1, 0}, 1, 1},
		{[]float64{1, -2}, 1, 1},
		{[]float64{1}, 0, 1},
		{[]float64{1}, 1, -1},
		{[]float64{math.Inf(1)}, 1, 1},
	}
	for _, c := range cases {
		if _, err := NewSystem(c.speeds, c.mu, c.la); err == nil {
			t.Errorf("NewSystem(%v,%v,%v) accepted invalid input", c.speeds, c.mu, c.la)
		}
	}
}

func TestSystemFromUtilization(t *testing.T) {
	// Paper base config: aggregate speed 44, mean job size 76.8 s, ρ=0.7.
	speeds := []float64{1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 2, 2, 2, 5, 10, 12}
	sys, err := SystemFromUtilization(speeds, 76.8, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.TotalSpeed()-44) > 1e-12 {
		t.Errorf("total speed = %v, want 44", sys.TotalSpeed())
	}
	if math.Abs(sys.Utilization()-0.7) > 1e-12 {
		t.Errorf("utilization = %v, want 0.7", sys.Utilization())
	}
	if !sys.Stable() {
		t.Error("system at 70% load should be stable")
	}
}

func TestSingleServerMatchesMM1(t *testing.T) {
	// One speed-1 computer: T̄ = 1/(μ−λ).
	sys := mustSystem(t, []float64{1}, 1.0, 0.5)
	got, err := sys.MeanResponseTime([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	want := MM1MeanResponseTime(0.5, 1.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("T̄ = %v, want %v", got, want)
	}
}

func TestMeanResponseRatioIsMuT(t *testing.T) {
	sys := mustSystem(t, []float64{1, 2, 4}, 0.1, 0.4)
	alpha := []float64{0.2, 0.3, 0.5}
	tbar, err := sys.MeanResponseTime(alpha)
	if err != nil {
		t.Fatal(err)
	}
	rbar, err := sys.MeanResponseRatio(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rbar-sys.Mu*tbar) > 1e-12 {
		t.Errorf("R̄ = %v, μT̄ = %v", rbar, sys.Mu*tbar)
	}
}

func TestObjectiveIdentity(t *testing.T) {
	// T̄ = (F − n)/λ must hold for any feasible allocation (paper §2.3).
	sys := mustSystem(t, []float64{1, 3, 5}, 0.5, 2.0)
	alpha := []float64{0.1, 0.35, 0.55}
	f, err := sys.Objective(alpha)
	if err != nil {
		t.Fatal(err)
	}
	tbar, err := sys.MeanResponseTime(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sys.ObjectiveToMeanResponseTime(f)-tbar) > 1e-12 {
		t.Errorf("identity violated: (F-n)/λ = %v, T̄ = %v", sys.ObjectiveToMeanResponseTime(f), tbar)
	}
}

func TestSaturatedServerRejected(t *testing.T) {
	sys := mustSystem(t, []float64{1, 10}, 1.0, 5.0)
	// alpha[0]*λ = 2.5 > s_0 μ = 1: saturated.
	_, err := sys.MeanResponseTime([]float64{0.5, 0.5})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

func TestAllocationSumChecked(t *testing.T) {
	sys := mustSystem(t, []float64{1, 1}, 1.0, 0.5)
	if _, err := sys.MeanResponseTime([]float64{0.3, 0.3}); err == nil {
		t.Error("allocation summing to 0.6 accepted")
	}
	if _, err := sys.MeanResponseTime([]float64{0.3}); err == nil {
		t.Error("wrong-length allocation accepted")
	}
	if _, err := sys.MeanResponseTime([]float64{-0.1, 1.1}); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestZeroAllocationEntrySkipped(t *testing.T) {
	// A computer with α=0 contributes nothing to T̄.
	sys := mustSystem(t, []float64{1, 1}, 1.0, 0.5)
	one, err := sys.MeanResponseTime([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := MM1MeanResponseTime(0.5, 1.0)
	if math.Abs(one-want) > 1e-12 {
		t.Errorf("T̄ = %v, want %v", one, want)
	}
}

func TestServerUtilization(t *testing.T) {
	sys := mustSystem(t, []float64{1, 4}, 1.0, 2.0)
	rho, err := sys.ServerUtilization([]float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho[0]-0.5) > 1e-12 || math.Abs(rho[1]-0.375) > 1e-12 {
		t.Errorf("rho = %v, want [0.5 0.375]", rho)
	}
}

func TestPerServerMeanResponseTime(t *testing.T) {
	sys := mustSystem(t, []float64{1, 2}, 1.0, 1.0)
	ts, err := sys.PerServerMeanResponseTime([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ts[0]-1/(1.0-0.5)) > 1e-12 {
		t.Errorf("T̄_0 = %v", ts[0])
	}
	if math.Abs(ts[1]-1/(2.0-0.5)) > 1e-12 {
		t.Errorf("T̄_1 = %v", ts[1])
	}
	ts2, err := sys.PerServerMeanResponseTime([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ts2[0]) {
		t.Error("idle server should report NaN mean response time")
	}
}

func TestTheoremOneMinimumHomogeneous(t *testing.T) {
	// n identical computers: F* = n²μ/(nμ−λ); the equal split achieves it.
	sys := mustSystem(t, []float64{1, 1, 1, 1}, 1.0, 2.0)
	fstar, err := sys.TheoremOneMinimum()
	if err != nil {
		t.Fatal(err)
	}
	want := 16.0 / (4 - 2)
	if math.Abs(fstar-want) > 1e-12 {
		t.Errorf("F* = %v, want %v", fstar, want)
	}
	fEqual, err := sys.Objective([]float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fEqual-fstar) > 1e-12 {
		t.Errorf("equal split F = %v, want F* = %v", fEqual, fstar)
	}
}

func TestTheoremOneMinimumSaturated(t *testing.T) {
	sys := mustSystem(t, []float64{1}, 1.0, 2.0)
	if _, err := sys.TheoremOneMinimum(); !errors.Is(err, ErrSaturated) {
		t.Errorf("err = %v, want ErrSaturated", err)
	}
}

// Property: F* from Theorem 1 lower-bounds F(α) for feasible allocations
// without zero entries (Theorem 1 is the unconstrained-sign optimum, so
// every non-negative feasible allocation has F ≥ F*).
func TestQuickTheoremOneIsLowerBound(t *testing.T) {
	f := func(seedA, seedB, seedC uint8) bool {
		speeds := []float64{
			1 + float64(seedA%10),
			1 + float64(seedB%10),
			1 + float64(seedC%10),
		}
		sys, err := NewSystem(speeds, 1.0, 0.6*(speeds[0]+speeds[1]+speeds[2]))
		if err != nil {
			return false
		}
		fstar, err := sys.TheoremOneMinimum()
		if err != nil {
			return false
		}
		// A few hand-rolled feasible allocations.
		tot := sys.TotalSpeed()
		allocs := [][]float64{
			{speeds[0] / tot, speeds[1] / tot, speeds[2] / tot},
			{1.0 / 3, 1.0 / 3, 1.0 / 3},
		}
		for _, a := range allocs {
			fa, err := sys.Objective(a)
			if err != nil {
				continue // may saturate a slow machine; skip
			}
			if fa < fstar-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestMM1Helpers(t *testing.T) {
	if got := MM1PSResponseTime(10, 0.5); math.Abs(got-20) > 1e-12 {
		t.Errorf("PS response = %v, want 20", got)
	}
	if !math.IsInf(MM1PSResponseTime(1, 1), 1) {
		t.Error("saturated PS response should be +Inf")
	}
	if got := MM1MeanQueueLength(0.5, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("queue length = %v, want 1", got)
	}
	if !math.IsInf(MM1MeanResponseTime(2, 1), 1) {
		t.Error("saturated M/M/1 response should be +Inf")
	}
	if !math.IsInf(MM1MeanQueueLength(1, 1), 1) {
		t.Error("saturated M/M/1 queue should be +Inf")
	}
}

func TestCapacityAndUtilization(t *testing.T) {
	sys := mustSystem(t, []float64{2, 3}, 0.5, 1.0)
	if math.Abs(sys.Capacity()-2.5) > 1e-12 {
		t.Errorf("capacity = %v, want 2.5", sys.Capacity())
	}
	if math.Abs(sys.Utilization()-0.4) > 1e-12 {
		t.Errorf("utilization = %v, want 0.4", sys.Utilization())
	}
	if sys.N() != 2 {
		t.Errorf("N = %d", sys.N())
	}
}

func TestMG1FCFSPollaczekKhinchine(t *testing.T) {
	// Exponential service (E[S²] = 2 E[S]²) reduces P-K to the M/M/1
	// formula: E[T] = 1/(μ−λ).
	lambda, mean := 0.5, 1.0
	got := MG1FCFSMeanResponseTime(lambda, mean, 2*mean*mean)
	want := 1 / (1.0 - 0.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("P-K exponential = %v, want %v", got, want)
	}
	// Deterministic service (E[S²] = E[S]²) halves the waiting time.
	wExp := MG1FCFSMeanWait(lambda, mean, 2*mean*mean)
	wDet := MG1FCFSMeanWait(lambda, mean, mean*mean)
	if math.Abs(wDet-wExp/2) > 1e-12 {
		t.Errorf("deterministic wait %v, want half of exponential %v", wDet, wExp)
	}
	// Saturation.
	if !math.IsInf(MG1FCFSMeanWait(2, 1, 2), 1) || !math.IsInf(MG1FCFSMeanResponseTime(2, 1, 2), 1) {
		t.Error("saturated P-K should be +Inf")
	}
}

func TestMG1FCFSSecondMomentSensitivity(t *testing.T) {
	// Larger E[S²] at fixed mean strictly increases FCFS waiting — the
	// heavy-tail hazard that PS avoids.
	w1 := MG1FCFSMeanWait(0.5, 1, 2)
	w2 := MG1FCFSMeanWait(0.5, 1, 50)
	if w2 <= w1 {
		t.Errorf("wait did not grow with variance: %v vs %v", w1, w2)
	}
}

func TestMM1ResponseTimeQuantile(t *testing.T) {
	// Median of Exp(rate 0.5) = ln2/0.5.
	got := MM1ResponseTimeQuantile(0.5, 1.0, 0.5)
	want := math.Ln2 / 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("median = %v, want %v", got, want)
	}
	if MM1ResponseTimeQuantile(0.5, 1.0, 0) != 0 {
		t.Error("q=0 should be 0")
	}
	if !math.IsInf(MM1ResponseTimeQuantile(2, 1, 0.5), 1) {
		t.Error("saturated quantile should be +Inf")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("q=1 did not panic")
		}
	}()
	MM1ResponseTimeQuantile(0.5, 1, 1)
}
