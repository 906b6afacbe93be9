package alloc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"heterosched/internal/queueing"
)

// checkFeasible asserts α is a valid allocation for (speeds, rho):
// non-negative, sums to 1, and saturates no computer.
func checkFeasible(t *testing.T, speeds, alpha []float64, rho float64) {
	t.Helper()
	if len(alpha) != len(speeds) {
		t.Fatalf("allocation length %d, want %d", len(alpha), len(speeds))
	}
	total := 0.0
	for _, s := range speeds {
		total += s
	}
	lambda := rho * total // μ = 1 normalization
	sum := 0.0
	for i, a := range alpha {
		if a < 0 {
			t.Errorf("alpha[%d] = %v negative", i, a)
		}
		if a*lambda >= speeds[i] {
			t.Errorf("alpha[%d] = %v saturates computer (speed %v, lambda %v)", i, a, speeds[i], lambda)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("allocation sums to %v, want 1", sum)
	}
}

func TestEqualAllocator(t *testing.T) {
	a, err := Equal{}.Allocate([]float64{1, 2, 5}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("alpha[%d] = %v, want 1/3", i, v)
		}
	}
}

func TestEqualAllocatorSaturates(t *testing.T) {
	// Equal share overloads the slow machine at high utilization:
	// speeds {1, 9}, ρ=0.9 ⇒ λ=9, slow machine gets 4.5 > 1.
	_, err := Equal{}.Allocate([]float64{1, 9}, 0.9)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestProportionalAllocator(t *testing.T) {
	a, err := Proportional{}.Allocate([]float64{1, 3}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0]-0.25) > 1e-12 || math.Abs(a[1]-0.75) > 1e-12 {
		t.Errorf("alpha = %v, want [0.25 0.75]", a)
	}
	checkFeasible(t, []float64{1, 3}, a, 0.7)
}

func TestProportionalNeverSaturates(t *testing.T) {
	// Proportional equalizes utilizations at ρ < 1, so it is always
	// feasible.
	speeds := []float64{1, 1.5, 2, 3, 5, 9, 10}
	for _, rho := range []float64{0.1, 0.5, 0.9, 0.99} {
		a, err := Proportional{}.Allocate(speeds, rho)
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		checkFeasible(t, speeds, a, rho)
	}
}

func TestOptimizedHomogeneousIsEqual(t *testing.T) {
	// For identical speeds the optimized scheme degenerates to equal split.
	a, err := Optimized{}.Allocate([]float64{2, 2, 2, 2}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a {
		if math.Abs(v-0.25) > 1e-12 {
			t.Errorf("alpha[%d] = %v, want 0.25", i, v)
		}
	}
}

func TestOptimizedFeasibleAcrossLoads(t *testing.T) {
	speeds := []float64{1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 2, 2, 2, 5, 10, 12}
	for _, rho := range []float64{0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		a, err := Optimized{}.Allocate(speeds, rho)
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		checkFeasible(t, speeds, a, rho)
	}
}

func TestOptimizedSkewsTowardFastMachines(t *testing.T) {
	// §2.3: fast computers get a disproportionately higher share than
	// their speed fraction; slow ones get less (possibly zero).
	speeds := []float64{1, 10}
	aOpt, err := Optimized{}.Allocate(speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	aProp, err := Proportional{}.Allocate(speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !(aOpt[1] > aProp[1]) {
		t.Errorf("optimized fast share %v not above proportional %v", aOpt[1], aProp[1])
	}
	if !(aOpt[0] < aProp[0]) {
		t.Errorf("optimized slow share %v not below proportional %v", aOpt[0], aProp[0])
	}
}

func TestOptimizedDropsVerySlowMachinesAtLowLoad(t *testing.T) {
	// At low load with high skew, slow machines should receive zero.
	a, err := Optimized{}.Allocate([]float64{1, 1, 20}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != 0 || a[1] != 0 {
		t.Errorf("slow machines got %v, %v; want 0", a[0], a[1])
	}
	if math.Abs(a[2]-1) > 1e-12 {
		t.Errorf("fast machine got %v, want 1", a[2])
	}
}

func TestOptimizedApproachesProportionalAtHighLoad(t *testing.T) {
	// §2.3: as ρ→1 the optimized scheme degenerates to simple weighted.
	speeds := []float64{1, 2, 8}
	aOpt, err := Optimized{}.Allocate(speeds, 0.99999)
	if err != nil {
		t.Fatal(err)
	}
	aProp, _ := Proportional{}.Allocate(speeds, 0.99999)
	for i := range speeds {
		if math.Abs(aOpt[i]-aProp[i]) > 1e-3 {
			t.Errorf("alpha[%d]: optimized %v vs proportional %v", i, aOpt[i], aProp[i])
		}
	}
}

func TestOptimizedZeroLoadSplitsFastest(t *testing.T) {
	a, err := Optimized{}.Allocate([]float64{1, 5, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 0.5}
	for i := range a {
		if math.Abs(a[i]-want[i]) > 1e-12 {
			t.Errorf("alpha = %v, want %v", a, want)
		}
	}
}

func TestOptimizedMatchesTheoremOneWhenAllIncluded(t *testing.T) {
	// With mild skew and high load no computer is excluded, so F(α*)
	// should equal the Theorem 1 minimum exactly.
	speeds := []float64{4, 5, 6}
	rho := 0.8
	a, err := Optimized{}.Allocate(speeds, rho)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range a {
		if v == 0 {
			t.Fatal("test premise violated: a computer was excluded")
		}
	}
	sys, err := queueing.NewSystem(speeds, 1.0, rho*15)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sys.Objective(a)
	if err != nil {
		t.Fatal(err)
	}
	fstar, err := sys.TheoremOneMinimum()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-fstar) > 1e-9 {
		t.Errorf("F(α*) = %.12f, Theorem 1 minimum = %.12f", f, fstar)
	}
}

func TestOptimizedBeatsProportionalObjective(t *testing.T) {
	// The closed form must never do worse than simple weighted.
	configs := []struct {
		speeds []float64
		rho    float64
	}{
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 20, 20}, 0.7},
		{[]float64{1, 10, 1, 10, 1, 10}, 0.5},
		{[]float64{1, 1.5, 2, 3, 5, 9, 10}, 0.7},
		{[]float64{1, 2}, 0.9},
	}
	for _, c := range configs {
		sys, err := queueing.NewSystem(c.speeds, 1.0, c.rho*sumOf(c.speeds))
		if err != nil {
			t.Fatal(err)
		}
		aO, err := Optimized{}.Allocate(c.speeds, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		aP, err := Proportional{}.Allocate(c.speeds, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		fO, err := sys.Objective(aO)
		if err != nil {
			t.Fatal(err)
		}
		fP, err := sys.Objective(aP)
		if err != nil {
			t.Fatal(err)
		}
		if fO > fP+1e-9 {
			t.Errorf("speeds %v rho %v: optimized F=%v worse than proportional F=%v",
				c.speeds, c.rho, fO, fP)
		}
	}
}

func TestOptimizedAgreesWithNumericOptimizer(t *testing.T) {
	// Cross-validate Algorithm 1 against the projected-gradient solver on
	// several configurations, including ones with excluded machines.
	configs := []struct {
		speeds []float64
		rho    float64
	}{
		{[]float64{1, 1, 1, 1}, 0.6},
		{[]float64{1, 2, 4, 8}, 0.7},
		{[]float64{1, 1, 20}, 0.3}, // slow machines excluded
		{[]float64{1, 1.5, 2, 3, 5, 9, 10}, 0.7},
		{[]float64{3, 7}, 0.95},
	}
	for _, c := range configs {
		closed, err := Optimized{}.Allocate(c.speeds, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		num, err := NumericOptimized{}.Allocate(c.speeds, c.rho)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := queueing.NewSystem(c.speeds, 1.0, c.rho*sumOf(c.speeds))
		if err != nil {
			t.Fatal(err)
		}
		fClosed, err := sys.Objective(closed)
		if err != nil {
			t.Fatal(err)
		}
		fNum, err := sys.Objective(num)
		if err != nil {
			t.Fatal(err)
		}
		// The closed form is the true optimum; numeric must come within
		// tolerance but never beat it meaningfully.
		if fNum < fClosed-1e-6 {
			t.Errorf("speeds %v rho %v: numeric F=%v beat closed form F=%v",
				c.speeds, c.rho, fNum, fClosed)
		}
		if fNum > fClosed+1e-4*math.Abs(fClosed) {
			t.Errorf("speeds %v rho %v: numeric F=%v far from closed form F=%v",
				c.speeds, c.rho, fNum, fClosed)
		}
	}
}

// Property: Algorithm 1 always returns a feasible allocation at least as
// good as proportional, for random speed sets and loads.
func TestQuickOptimizedFeasibleAndOptimal(t *testing.T) {
	f := func(raw []uint8, rhoRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		speeds := make([]float64, len(raw))
		for i, r := range raw {
			speeds[i] = 0.5 + float64(r%40)*0.5 // 0.5 .. 20
		}
		rho := 0.05 + float64(rhoRaw%90)/100.0 // 0.05 .. 0.94
		a, err := Optimized{}.Allocate(speeds, rho)
		if err != nil {
			return false
		}
		lambda := rho * sumOf(speeds)
		sum := 0.0
		for i, v := range a {
			if v < 0 || v*lambda >= speeds[i] {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		sys, err := queueing.NewSystem(speeds, 1.0, lambda)
		if err != nil {
			return false
		}
		fO, err := sys.Objective(a)
		if err != nil {
			return false
		}
		aP, err := Proportional{}.Allocate(speeds, rho)
		if err != nil {
			return false
		}
		fP, err := sys.Objective(aP)
		if err != nil {
			return false
		}
		return fO <= fP+1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: faster computers always receive at least as much workload.
func TestQuickOptimizedMonotoneInSpeed(t *testing.T) {
	f := func(raw []uint8, rhoRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		speeds := make([]float64, len(raw))
		for i, r := range raw {
			speeds[i] = 1 + float64(r%30)
		}
		rho := 0.05 + float64(rhoRaw%90)/100.0
		a, err := Optimized{}.Allocate(speeds, rho)
		if err != nil {
			return false
		}
		for i := range speeds {
			for j := range speeds {
				if speeds[i] < speeds[j] && a[i] > a[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestInfeasibleUtilization(t *testing.T) {
	for _, alloc := range []Allocator{Equal{}, Proportional{}, Optimized{}, NumericOptimized{}} {
		if _, err := alloc.Allocate([]float64{1, 2}, 1.0); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", alloc.Name(), err)
		}
		if _, err := alloc.Allocate([]float64{1, 2}, -0.1); err == nil {
			t.Errorf("%s accepted negative rho", alloc.Name())
		}
		if _, err := alloc.Allocate(nil, 0.5); err == nil {
			t.Errorf("%s accepted empty speeds", alloc.Name())
		}
		if _, err := alloc.Allocate([]float64{0}, 0.5); err == nil {
			t.Errorf("%s accepted zero speed", alloc.Name())
		}
	}
}

func TestWithEstimationErrorOverestimate(t *testing.T) {
	speeds := []float64{1, 10}
	exact, err := Optimized{}.Allocate(speeds, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	over := WithEstimationError{Base: Optimized{}, Err: +0.10}
	a, err := over.Allocate(speeds, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, speeds, a, 0.5)
	// Overestimation makes the scheme more conservative (closer to
	// proportional): the slow machine gets at least its exact-load share.
	if a[0] < exact[0]-1e-12 {
		t.Errorf("overestimate slow share %v below exact %v", a[0], exact[0])
	}
}

func TestWithEstimationErrorUnderestimate(t *testing.T) {
	speeds := []float64{1, 10}
	exact, err := Optimized{}.Allocate(speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	under := WithEstimationError{Base: Optimized{}, Err: -0.10}
	a, err := under.Allocate(speeds, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	// Underestimation skews more toward fast machines.
	if a[1] < exact[1]-1e-12 {
		t.Errorf("underestimate fast share %v below exact %v", a[1], exact[1])
	}
}

func TestWithEstimationErrorClampsAboveOne(t *testing.T) {
	// +15% at ρ=0.9 would assume 1.035; it must clamp below 1 and still
	// produce a feasible allocation (the paper substitutes WRR there).
	w := WithEstimationError{Base: Optimized{}, Err: +0.15}
	a, err := w.Allocate([]float64{1, 10}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	checkFeasible(t, []float64{1, 10}, a, 0.9)
}

func TestWithEstimationErrorCanSaturateUnderTrueLoad(t *testing.T) {
	// Extreme underestimation at very high true load returns the
	// allocation planned for the assumed load even though it overloads
	// the fast computer (§5.4's unstable regime).
	speeds := []float64{1, 1, 1, 10}
	w := WithEstimationError{Base: Optimized{}, Err: -0.5}
	a, err := w.Allocate(speeds, 0.98)
	if err != nil {
		t.Fatal(err)
	}
	if rho3 := a[3] * 0.98 * 13 / 10; rho3 < 1 {
		t.Errorf("fast computer's true utilization %v, want >= 1", rho3)
	}
}

func TestWithEstimationErrorName(t *testing.T) {
	w := WithEstimationError{Base: Optimized{}, Err: -0.05}
	if w.Name() != "O(-5%)" {
		t.Errorf("name = %q", w.Name())
	}
}

func TestNames(t *testing.T) {
	for _, c := range []struct {
		a    Allocator
		want string
	}{
		{Equal{}, "EQ"},
		{Proportional{}, "W"},
		{Optimized{}, "O"},
		{NumericOptimized{}, "Onum"},
	} {
		if got := c.a.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

func BenchmarkOptimizedClosedForm(b *testing.B) {
	speeds := make([]float64, 64)
	for i := range speeds {
		speeds[i] = 1 + float64(i%13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Optimized{}).Allocate(speeds, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNumericOptimizer(b *testing.B) {
	speeds := []float64{1, 1.5, 2, 3, 5, 9, 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (NumericOptimized{Tol: 1e-10}).Allocate(speeds, 0.7); err != nil {
			b.Fatal(err)
		}
	}
}
