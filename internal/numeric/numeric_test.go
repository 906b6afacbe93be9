package numeric

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBisectSqrt2(t *testing.T) {
	x, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Errorf("bisect sqrt(2) = %v", x)
	}
}

func TestBisectExactEndpoints(t *testing.T) {
	f := func(x float64) float64 { return x }
	if x, err := Bisect(f, 0, 1, 1e-12, 100); err != nil || x != 0 {
		t.Errorf("root at lo: x=%v err=%v", x, err)
	}
	if x, err := Bisect(f, -1, 0, 1e-12, 100); err != nil || x != 0 {
		t.Errorf("root at hi: x=%v err=%v", x, err)
	}
}

func TestBisectBadBracket(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12, 100)
	if !errors.Is(err, ErrBadBracket) {
		t.Errorf("err = %v, want ErrBadBracket", err)
	}
}

func TestBisectNoConvergence(t *testing.T) {
	_, err := Bisect(func(x float64) float64 { return x - 1.0/3 }, -1, 1, 0, 3)
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestNewtonCubeRoot(t *testing.T) {
	f := func(x float64) float64 { return x*x*x - 27 }
	df := func(x float64) float64 { return 3 * x * x }
	x, err := Newton(f, df, 1, 0, 10, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-9 {
		t.Errorf("newton cbrt(27) = %v", x)
	}
}

func TestNewtonFallsBackToBisection(t *testing.T) {
	// Flat derivative near start forces bisection fallback.
	f := func(x float64) float64 { return math.Tanh(10*(x-0.7)) + 1e-6 }
	df := func(x float64) float64 {
		c := math.Cosh(10 * (x - 0.7))
		return 10 / (c * c)
	}
	x, err := Newton(f, df, -50, -100, 100, 1e-10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f(x)) > 1e-6 {
		t.Errorf("newton residual %v at x=%v", f(x), x)
	}
}

func TestNewtonBadBracket(t *testing.T) {
	_, err := Newton(func(x float64) float64 { return 1 }, func(float64) float64 { return 0 }, 0, -1, 1, 1e-9, 10)
	if !errors.Is(err, ErrBadBracket) {
		t.Errorf("err = %v, want ErrBadBracket", err)
	}
}

func TestGoldenSectionQuadratic(t *testing.T) {
	x := GoldenSection(func(x float64) float64 { return (x - 1.3) * (x - 1.3) }, -10, 10, 1e-10)
	if math.Abs(x-1.3) > 1e-8 {
		t.Errorf("golden section min = %v, want 1.3", x)
	}
}

func TestGoldenSectionBoundaryMin(t *testing.T) {
	x := GoldenSection(func(x float64) float64 { return x }, 2, 5, 1e-10)
	if math.Abs(x-2) > 1e-8 {
		t.Errorf("boundary min = %v, want 2", x)
	}
}

func TestProjectSimplexAlreadyFeasible(t *testing.T) {
	x := []float64{0.2, 0.3, 0.5}
	ProjectSimplex(x, 1)
	want := []float64{0.2, 0.3, 0.5}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestProjectSimplexKnown(t *testing.T) {
	// Projection of (1,1) onto the unit simplex is (0.5, 0.5).
	x := []float64{1, 1}
	ProjectSimplex(x, 1)
	if math.Abs(x[0]-0.5) > 1e-12 || math.Abs(x[1]-0.5) > 1e-12 {
		t.Errorf("projection = %v", x)
	}
	// Projection of (2, 0) onto the unit simplex is (1, 0).
	y := []float64{2, 0}
	ProjectSimplex(y, 1)
	if math.Abs(y[0]-1) > 1e-12 || math.Abs(y[1]) > 1e-12 {
		t.Errorf("projection = %v", y)
	}
}

func TestProjectSimplexNegativeInput(t *testing.T) {
	x := []float64{-5, 0.5, 3}
	ProjectSimplex(x, 1)
	sum := 0.0
	for _, v := range x {
		if v < -1e-12 {
			t.Errorf("negative coordinate %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v", sum)
	}
}

// Property: ProjectSimplex output is feasible for arbitrary input.
func TestQuickProjectSimplexFeasible(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				continue
			}
			x = append(x, v)
		}
		if len(x) == 0 {
			return true
		}
		ProjectSimplex(x, 1)
		sum := 0.0
		for _, v := range x {
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestProjectCappedSimplexBasic(t *testing.T) {
	x := []float64{0.9, 0.9, 0.9}
	caps := []float64{1, 1, 1}
	if err := ProjectCappedSimplex(x, caps, 1); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range x {
		sum += v
		if v < 0 || v > 1 {
			t.Errorf("coordinate %v out of [0,1]", v)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum = %v", sum)
	}
	// Symmetric input: expect equal split.
	for _, v := range x {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Errorf("expected 1/3, got %v", v)
		}
	}
}

func TestProjectCappedSimplexBindingCap(t *testing.T) {
	x := []float64{10, 0, 0}
	caps := []float64{0.4, 1, 1}
	if err := ProjectCappedSimplex(x, caps, 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.4) > 1e-9 {
		t.Errorf("capped coordinate = %v, want 0.4", x[0])
	}
	if math.Abs(x[1]+x[2]-0.6) > 1e-9 {
		t.Errorf("remaining mass = %v, want 0.6", x[1]+x[2])
	}
}

func TestProjectCappedSimplexInfeasible(t *testing.T) {
	x := []float64{0.5, 0.5}
	if err := ProjectCappedSimplex(x, []float64{0.2, 0.2}, 1); err == nil {
		t.Error("expected infeasibility error")
	}
}

func TestProjectCappedSimplexLengthMismatch(t *testing.T) {
	if err := ProjectCappedSimplex([]float64{1}, []float64{1, 1}, 1); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestProjectCappedSimplexNegativeCap(t *testing.T) {
	if err := ProjectCappedSimplex([]float64{1}, []float64{-1}, 0); err == nil {
		t.Error("expected negative-cap error")
	}
}

// Property: capped projection is feasible whenever the caps admit a
// solution.
func TestQuickProjectCappedFeasible(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			x = append(x, v)
		}
		if len(x) == 0 {
			return true
		}
		caps := make([]float64, len(x))
		for i := range caps {
			caps[i] = 2.0 / float64(len(x)) // sum = 2 >= total = 1
		}
		if err := ProjectCappedSimplex(x, caps, 1); err != nil {
			return false
		}
		sum := 0.0
		for i, v := range x {
			if v < -1e-9 || v > caps[i]+1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestProjectedGradientQuadratic(t *testing.T) {
	// min Σ (x_i − t_i)² over unit simplex; t = (0.7, 0.2, 0.1) is interior
	// feasible so the solution is t itself.
	target := []float64{0.7, 0.2, 0.1}
	f := func(x []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - target[i]
			s += d * d
		}
		return s
	}
	grad := func(x []float64) []float64 {
		g := make([]float64, len(x))
		for i := range x {
			g[i] = 2 * (x[i] - target[i])
		}
		return g
	}
	res, err := ProjectedGradient(f, grad, []float64{1. / 3, 1. / 3, 1. / 3},
		[]float64{1, 1, 1}, 1, 1e-12, 10000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range target {
		if math.Abs(res.X[i]-target[i]) > 1e-6 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], target[i])
		}
	}
	if !res.Converged {
		t.Error("did not report convergence")
	}
}

func TestProjectedGradientRespectsCaps(t *testing.T) {
	// Pull everything toward coordinate 0, but cap it at 0.3.
	f := func(x []float64) float64 { return -x[0] }
	grad := func(x []float64) []float64 { return []float64{-1, 0, 0} }
	res, err := ProjectedGradient(f, grad, []float64{1. / 3, 1. / 3, 1. / 3},
		[]float64{0.3, 1, 1}, 1, 1e-12, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.3) > 1e-9 {
		t.Errorf("x[0] = %v, want cap 0.3", res.X[0])
	}
}

func TestNumericalGradient(t *testing.T) {
	f := func(x []float64) float64 { return x[0]*x[0] + 3*x[1] }
	g := NumericalGradient(f, []float64{2, 5}, 1e-6)
	if math.Abs(g[0]-4) > 1e-4 || math.Abs(g[1]-3) > 1e-4 {
		t.Errorf("gradient = %v, want [4 3]", g)
	}
}

func BenchmarkProjectCappedSimplex(b *testing.B) {
	x := make([]float64, 64)
	caps := make([]float64, 64)
	for i := range x {
		x[i] = float64(i%7) * 0.1
		caps[i] = 0.5
	}
	work := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, x)
		if err := ProjectCappedSimplex(work, caps, 1); err != nil {
			b.Fatal(err)
		}
	}
}
