// Package numeric provides the small numerical-optimization toolkit the
// project needs: root finding (bisection, Newton with bisection fallback),
// one-dimensional minimization (golden section), Euclidean projection onto
// the probability simplex (optionally with per-coordinate upper bounds),
// and projected-gradient descent for constrained minimization.
//
// The paper solves its workload-allocation problem in closed form
// (Theorems 1–3). This package supplies an independent numerical solver for
// the same constrained program, used to cross-validate the closed form in
// tests and benchmarks, and as a fallback for objective functions with no
// closed form (e.g. non-M/M/1 extensions).
package numeric

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoConvergence is returned when an iterative method exhausts its
// iteration budget without meeting its tolerance.
var ErrNoConvergence = errors.New("numeric: no convergence")

// ErrBadBracket is returned when a bracketing method is given an interval
// that does not bracket a root.
var ErrBadBracket = errors.New("numeric: interval does not bracket a root")

// Bisect finds x in [lo, hi] with f(x) = 0 by bisection. f(lo) and f(hi)
// must have opposite signs. It stops when the bracket is narrower than tol
// or after maxIter iterations (returning ErrNoConvergence in that case,
// along with the best midpoint found).
func Bisect(f func(float64) float64, lo, hi, tol float64, maxIter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrBadBracket, lo, flo, hi, fhi)
	}
	for i := 0; i < maxIter; i++ {
		mid := lo + (hi-lo)/2
		if hi-lo < tol {
			return mid, nil
		}
		fm := f(mid)
		if fm == 0 {
			return mid, nil
		}
		if math.Signbit(fm) == math.Signbit(flo) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2, ErrNoConvergence
}

// Newton finds a root of f near x0 using Newton's method with derivative
// df, falling back to bisection steps whenever a Newton step leaves the
// bracket [lo, hi] (which must bracket a root). This is the standard
// safeguarded Newton ("rtsafe").
func Newton(f, df func(float64) float64, x0, lo, hi, tol float64, maxIter int) (float64, error) {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo, nil
	}
	if fhi == 0 {
		return hi, nil
	}
	if math.Signbit(flo) == math.Signbit(fhi) {
		return 0, fmt.Errorf("%w: f(%g)=%g, f(%g)=%g", ErrBadBracket, lo, flo, hi, fhi)
	}
	// Orient so that f(lo) < 0.
	if flo > 0 {
		lo, hi = hi, lo
	}
	x := math.Min(math.Max(x0, math.Min(lo, hi)), math.Max(lo, hi))
	for i := 0; i < maxIter; i++ {
		fx := f(x)
		if math.Abs(fx) == 0 {
			return x, nil
		}
		d := df(x)
		var next float64
		if d != 0 {
			next = x - fx/d
		}
		inBracket := d != 0 && next > math.Min(lo, hi) && next < math.Max(lo, hi)
		if !inBracket {
			next = lo + (hi-lo)/2 // bisection fallback
		}
		if math.Abs(next-x) < tol {
			return next, nil
		}
		if f(next) < 0 {
			lo = next
		} else {
			hi = next
		}
		x = next
	}
	return x, ErrNoConvergence
}

// GoldenSection minimizes a unimodal function f on [lo, hi], returning the
// minimizing x. It always converges for unimodal f; for non-unimodal f it
// returns some local minimizer.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949 // (sqrt(5)-1)/2
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return a + (b-a)/2
}

// ProjectSimplex overwrites x with its Euclidean projection onto the
// probability simplex {x : x_i >= 0, Σx_i = total}. It implements the
// O(n log n) sort-based algorithm of Held/Wolfe/Crowder (popularized by
// Duchi et al.).
func ProjectSimplex(x []float64, total float64) {
	n := len(x)
	if n == 0 {
		return
	}
	u := make([]float64, n)
	copy(u, x)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	cum := 0.0
	theta := 0.0
	k := 0
	for i := 0; i < n; i++ {
		cum += u[i]
		t := (cum - total) / float64(i+1)
		if u[i]-t > 0 {
			theta = t
			k = i + 1
		}
	}
	if k == 0 { // all mass forced to the largest coordinate
		theta = (u[0] - total)
	}
	for i := range x {
		x[i] = math.Max(0, x[i]-theta)
	}
}

// ProjectCappedSimplex overwrites x with its Euclidean projection onto
// {x : 0 <= x_i <= cap_i, Σx_i = total}. It requires Σcap_i >= total and
// returns an error otherwise. The projection is computed by bisection on
// the dual variable θ of g(θ) = Σ clip(x_i − θ, 0, cap_i) − total, which is
// monotone in θ.
func ProjectCappedSimplex(x, caps []float64, total float64) error {
	if len(x) != len(caps) {
		return fmt.Errorf("numeric: len(x)=%d != len(caps)=%d", len(x), len(caps))
	}
	sumCaps := 0.0
	for i, c := range caps {
		if c < 0 {
			return fmt.Errorf("numeric: negative cap %g at index %d", c, i)
		}
		sumCaps += c
	}
	if sumCaps < total-1e-12 {
		return fmt.Errorf("numeric: caps sum %g < total %g: infeasible", sumCaps, total)
	}
	clipSum := func(theta float64) float64 {
		s := 0.0
		for i := range x {
			v := x[i] - theta
			if v < 0 {
				v = 0
			} else if v > caps[i] {
				v = caps[i]
			}
			s += v
		}
		return s - total
	}
	// Bracket θ: at θ = min(x)−maxCap all coordinates are at their caps
	// (sum ≥ total); at θ = max(x) the sum is 0 (≤ total).
	lo, hi := math.Inf(1), math.Inf(-1)
	maxCap := 0.0
	for i := range x {
		lo = math.Min(lo, x[i])
		hi = math.Max(hi, x[i])
		maxCap = math.Max(maxCap, caps[i])
	}
	lo -= maxCap + 1
	hi += 1
	theta, err := Bisect(clipSum, lo, hi, 1e-14*(1+math.Abs(hi-lo)), 200)
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		return err
	}
	for i := range x {
		v := x[i] - theta
		if v < 0 {
			v = 0
		} else if v > caps[i] {
			v = caps[i]
		}
		x[i] = v
	}
	// Repair the (tiny) residual mass from bisection tolerance on an
	// interior coordinate so the constraint holds exactly.
	residual := total
	for _, v := range x {
		residual -= v
	}
	if residual != 0 {
		for i := range x {
			v := x[i] + residual
			if v >= 0 && v <= caps[i] {
				x[i] = v
				break
			}
		}
	}
	return nil
}

// GradientResult reports the outcome of ProjectedGradient.
type GradientResult struct {
	X          []float64 // minimizer found
	F          float64   // objective value at X
	Iterations int       // iterations used
	Converged  bool      // true if the stopping tolerance was met
}

// ProjectedGradient minimizes f over the capped simplex
// {x : 0 <= x_i <= caps_i, Σ x_i = total} starting from x0, using
// projected-gradient descent with Armijo backtracking line search. grad
// must return the gradient of f. It stops when the projected step moves
// less than tol in L∞ norm, or after maxIter iterations.
func ProjectedGradient(
	f func([]float64) float64,
	grad func([]float64) []float64,
	x0, caps []float64,
	total, tol float64,
	maxIter int,
) (GradientResult, error) {
	n := len(x0)
	x := make([]float64, n)
	copy(x, x0)
	if err := ProjectCappedSimplex(x, caps, total); err != nil {
		return GradientResult{}, err
	}
	fx := f(x)
	trial := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		g := grad(x)
		step := 1.0
		improved := false
		var fTrial float64
		for ls := 0; ls < 60; ls++ {
			for i := range trial {
				trial[i] = x[i] - step*g[i]
			}
			if err := ProjectCappedSimplex(trial, caps, total); err != nil {
				return GradientResult{}, err
			}
			fTrial = f(trial)
			if fTrial < fx-1e-12*math.Abs(fx) {
				improved = true
				break
			}
			step /= 2
		}
		if !improved {
			return GradientResult{X: x, F: fx, Iterations: iter, Converged: true}, nil
		}
		move := 0.0
		for i := range x {
			move = math.Max(move, math.Abs(trial[i]-x[i]))
		}
		copy(x, trial)
		fx = fTrial
		if move < tol {
			return GradientResult{X: x, F: fx, Iterations: iter + 1, Converged: true}, nil
		}
	}
	return GradientResult{X: x, F: fx, Iterations: maxIter, Converged: false}, ErrNoConvergence
}

// NumericalGradient returns a central-difference approximation of the
// gradient of f at x with step h (per coordinate, scaled by 1+|x_i|).
func NumericalGradient(f func([]float64) float64, x []float64, h float64) []float64 {
	g := make([]float64, len(x))
	xx := make([]float64, len(x))
	copy(xx, x)
	for i := range x {
		step := h * (1 + math.Abs(x[i]))
		xx[i] = x[i] + step
		fp := f(xx)
		xx[i] = x[i] - step
		fm := f(xx)
		xx[i] = x[i]
		g[i] = (fp - fm) / (2 * step)
	}
	return g
}
