// Package alloc implements workload allocation schemes for static job
// scheduling on heterogeneous computers — the first of the paper's two
// optimization techniques (§2).
//
// An Allocator maps (computer speeds, system utilization) to a fraction
// vector α with Σα_i = 1, where α_i is the share of all arriving jobs sent
// to computer i. Three schemes are provided:
//
//   - Equal: α_i = 1/n, the naive baseline ignoring heterogeneity.
//   - Proportional: α_i = s_i/Σs_j, the "simple weighted" scheme (§2.1).
//   - Optimized: the paper's Algorithm 1, the closed-form minimizer of the
//     mean response time derived via Lagrange multipliers (Theorems 1–3).
//     Slow computers whose speed falls below the water level receive zero
//     workload; the cutoff is located by binary search.
//
// A NumericOptimized allocator solves the same constrained program by
// projected gradient descent (internal/numeric); it exists to cross-check
// the closed form and to handle objective variants with no closed form.
// WithEstimationError wraps any allocator to study mis-estimated system
// load (the paper's §5.4).
package alloc

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"heterosched/internal/numeric"
	"heterosched/internal/queueing"
)

// ErrInfeasible is returned when no feasible allocation exists (the system
// is saturated: ρ >= 1).
var ErrInfeasible = errors.New("alloc: system saturated (utilization >= 1)")

// ErrBadInput is returned (wrapped) when the inputs themselves are
// malformed — no computers, non-positive/non-finite speeds, a NaN or
// negative utilization, or a speed vector whose sum over- or underflows
// float64 so the closed form would silently produce NaN fractions.
// Callers iterating over generated parameter grids (cmd/sweep) match it
// with errors.Is to skip-and-report the cell instead of emitting
// garbage rows.
var ErrBadInput = errors.New("alloc: invalid input")

// Allocator computes a workload allocation for computers with the given
// relative speeds at overall system utilization rho = λ/(μ Σ s_i).
//
// Implementations must return α with α_i >= 0, Σα_i = 1, and
// α_i λ < s_i μ for every i (no saturated computer) whenever rho < 1, and
// an error otherwise.
type Allocator interface {
	Allocate(speeds []float64, rho float64) ([]float64, error)
	Name() string
}

// validate checks common preconditions shared by all allocators.
func validate(speeds []float64, rho float64) error {
	if len(speeds) == 0 {
		return fmt.Errorf("%w: no computers", ErrBadInput)
	}
	total := 0.0
	for i, s := range speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("%w: speed[%d] = %v, must be positive and finite", ErrBadInput, i, s)
		}
		total += s
	}
	// Per-element checks don't catch a sum that over- or underflows:
	// β = 1/(ρ Σ s) then degenerates to 0 or +Inf and the closed form
	// yields NaN fractions deep inside a sweep.
	if math.IsInf(total, 0) {
		return fmt.Errorf("%w: speed sum overflows float64", ErrBadInput)
	}
	if rho > 0 && math.IsInf(1/(rho*total), 0) {
		return fmt.Errorf("%w: speed sum %v too small (1/(rho·Σs) overflows)", ErrBadInput, total)
	}
	if math.IsNaN(rho) || rho < 0 {
		return fmt.Errorf("%w: utilization %v, must be in [0,1)", ErrBadInput, rho)
	}
	if rho >= 1 {
		return fmt.Errorf("%w: rho = %v", ErrInfeasible, rho)
	}
	return nil
}

// Equal allocates an identical share to every computer regardless of
// speed. At high utilization it may saturate slow computers, in which case
// Allocate returns an error.
type Equal struct{}

func (Equal) Name() string { return "EQ" }

func (Equal) Allocate(speeds []float64, rho float64) ([]float64, error) {
	if err := validate(speeds, rho); err != nil {
		return nil, err
	}
	n := len(speeds)
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / float64(n)
	}
	if err := checkNoSaturation(speeds, rho, alpha); err != nil {
		return nil, err
	}
	return alpha, nil
}

// Proportional is the simple weighted allocation of §2.1: each computer
// receives workload proportional to its speed, equalizing utilizations.
type Proportional struct{}

func (Proportional) Name() string { return "W" }

func (Proportional) Allocate(speeds []float64, rho float64) ([]float64, error) {
	if err := validate(speeds, rho); err != nil {
		return nil, err
	}
	total := 0.0
	for _, s := range speeds {
		total += s
	}
	alpha := make([]float64, len(speeds))
	for i, s := range speeds {
		alpha[i] = s / total
	}
	return alpha, nil
}

// Optimized is the paper's Algorithm 1: the closed-form minimizer of the
// system mean response time (equivalently mean response ratio) under the
// M/M/1-PS model.
//
// Writing β = μ/λ = 1/(ρ Σ s_j), the unconstrained solution (Theorem 1) is
//
//	α_i = s_i β − √s_i · (β Σ s_j − 1) / Σ √s_j .
//
// Computers whose α_i would be negative are excluded (set to zero,
// Theorem 2) and the formula re-applied to the remainder; the maximal
// excluded prefix (in order of increasing speed) is located by binary
// search exactly as in the paper's Algorithm 1 (Theorem 3 proves the
// indices are contiguous).
type Optimized struct{}

func (Optimized) Name() string { return "O" }

func (Optimized) Allocate(speeds []float64, rho float64) ([]float64, error) {
	if err := validate(speeds, rho); err != nil {
		return nil, err
	}
	n := len(speeds)
	if rho == 0 {
		// ρ→0 limit of the formula: all computers slower than the maximum
		// are excluded and the tied-fastest ones split the workload
		// equally.
		return fastestSplit(speeds), nil
	}

	// Step 1–2: β = 1/(ρ Σ s_i); sort speeds ascending, remembering the
	// original positions.
	totalSpeed := 0.0
	for _, s := range speeds {
		totalSpeed += s
	}
	beta := 1 / (rho * totalSpeed)

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return speeds[idx[a]] < speeds[idx[b]] })
	sorted := make([]float64, n)
	for i, j := range idx {
		sorted[i] = speeds[j]
	}

	// Suffix sums of s_j and √s_j over the sorted order, so the predicate
	// of step 4.b is O(1) per probe.
	sufS := make([]float64, n+1)
	sufSqrt := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		sufS[i] = sufS[i+1] + sorted[i]
		sufSqrt[i] = sufSqrt[i+1] + math.Sqrt(sorted[i])
	}

	// Step 3–5: binary search for the largest m (0-based count of excluded
	// computers) such that computer m−1 (sorted) fails the inclusion test
	//   √(s_i μ) >= (Σ_{j>=i} s_j μ − λ) / (Σ_{j>=i} √(s_j μ)).
	// Dividing through by √μ and then by λ gives the β-form used here:
	//   √s_i >= (β Σ_{j>=i} s_j − 1) / Σ_{j>=i} √s_j  (after ×β trick),
	// concretely: excluded ⇔ √(s_i) · β^{1/2}... — to avoid μ, multiply
	// the paper's test by 1/λ: √(s_i μ)/λ ... Simpler and exactly
	// equivalent: compare s_i-side and remainder-side in units of λ:
	//   lhs = √(s_i μ)·Σ√(s_j μ) = μ·√s_i·Σ√s_j,
	//   rhs = Σ s_j μ − λ = λ(β Σ s_j − 1).
	// With μ = λβ: excluded ⇔ β·√s_i·Σ√s_j < β Σ s_j − 1.
	excluded := func(i int) bool {
		return beta*math.Sqrt(sorted[i])*sufSqrt[i] < beta*sufS[i]-1
	}
	lo, hi := 0, n-1
	m := 0 // number of excluded computers
	for lo <= hi {
		mid := (lo + hi) / 2
		if excluded(mid) {
			m = mid + 1
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}

	// Steps 6–7: zero out the excluded prefix; closed form on the rest.
	alpha := make([]float64, n)
	denomSqrt := sufSqrt[m]
	water := (beta*sufS[m] - 1) / denomSqrt
	sum := 0.0
	for i := m; i < n; i++ {
		a := sorted[i]*beta - math.Sqrt(sorted[i])*water
		if a < 0 { // numerical guard; Theorem 3 ensures a >= 0 exactly
			a = 0
		}
		alpha[idx[i]] = a
		sum += a
	}
	// Σα = 1 holds analytically; renormalize away float drift so callers
	// can rely on the invariant bit-for-bit. A degenerate sum means an
	// input slipped past validate — refuse rather than return garbage.
	if !(sum > 0) || math.IsNaN(sum) || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("%w: allocation degenerated (Σα = %v)", ErrBadInput, sum)
	}
	if math.Abs(sum-1) > 1e-15 {
		for i := range alpha {
			alpha[i] /= sum
		}
	}
	return alpha, nil
}

// fastestSplit returns the allocation that divides all workload equally
// among the computers tied for the maximum speed.
func fastestSplit(speeds []float64) []float64 {
	max := speeds[0]
	for _, s := range speeds {
		if s > max {
			max = s
		}
	}
	count := 0
	for _, s := range speeds {
		if s == max {
			count++
		}
	}
	alpha := make([]float64, len(speeds))
	for i, s := range speeds {
		if s == max {
			alpha[i] = 1 / float64(count)
		}
	}
	return alpha
}

// checkNoSaturation verifies α_i λ < s_i μ for all i, using the
// normalization μ = 1 (only the ratio matters): λ = ρ Σ s_j.
func checkNoSaturation(speeds []float64, rho float64, alpha []float64) error {
	total := 0.0
	for _, s := range speeds {
		total += s
	}
	lambda := rho * total
	for i, a := range alpha {
		if a*lambda >= speeds[i] {
			return fmt.Errorf("%w: computer %d saturated (alpha=%.4g, speed=%.4g, rho=%.4g)",
				ErrInfeasible, i, a, speeds[i], rho)
		}
	}
	return nil
}

// NumericOptimized minimizes the same objective as Optimized using
// projected-gradient descent instead of the closed form. It is orders of
// magnitude slower and exists to validate Optimized and to support
// objective variants with no closed form.
type NumericOptimized struct {
	// Tol is the stopping tolerance (default 1e-12).
	Tol float64
	// MaxIter bounds iterations (default 20000).
	MaxIter int
}

func (NumericOptimized) Name() string { return "Onum" }

func (o NumericOptimized) Allocate(speeds []float64, rho float64) ([]float64, error) {
	if err := validate(speeds, rho); err != nil {
		return nil, err
	}
	tol := o.Tol
	if tol == 0 {
		tol = 1e-12
	}
	maxIter := o.MaxIter
	if maxIter == 0 {
		maxIter = 20000
	}
	n := len(speeds)
	if rho == 0 {
		return fastestSplit(speeds), nil
	}
	// Normalize μ = 1 (Allocate is scale-free): λ = ρ Σ s.
	sys, err := queueing.NewSystem(speeds, 1.0, rho*sumOf(speeds))
	if err != nil {
		return nil, err
	}
	f := func(x []float64) float64 {
		v, err := sys.Objective(x)
		if err != nil {
			return math.Inf(1) // infeasible points repel the line search
		}
		return v
	}
	grad := func(x []float64) []float64 {
		// dF/dα_i = s_i μ λ / (s_i μ − α_i λ)².
		g := make([]float64, n)
		for i := range x {
			d := speeds[i] - x[i]*sys.Lambda
			if d <= 0 {
				g[i] = math.Inf(1)
				continue
			}
			g[i] = speeds[i] * sys.Lambda / (d * d)
		}
		return g
	}
	// Caps keep iterates strictly inside the stability region:
	// α_i <= (1−ε) s_i/λ.
	caps := make([]float64, n)
	for i, s := range speeds {
		caps[i] = (1 - 1e-9) * s / sys.Lambda
		if caps[i] > 1 {
			caps[i] = 1
		}
	}
	start, err := Proportional{}.Allocate(speeds, rho)
	if err != nil {
		return nil, err
	}
	res, err := numeric.ProjectedGradient(f, grad, start, caps, 1, tol, maxIter)
	if err != nil && !errors.Is(err, numeric.ErrNoConvergence) {
		return nil, err
	}
	return res.X, nil
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// WithEstimationError wraps an allocator so that it sees the utilization
// scaled by (1+Err) instead of the true value, modeling inaccurate load
// estimation (paper §5.4). Err = −0.10 means the scheduler underestimates
// the load by 10%; Err = +0.05 overestimates by 5%.
//
// The assumed utilization is clamped to [0, 0.999999] because the
// allocation formula requires ρ < 1; the paper makes the same adjustment
// ("ORR converges with WRR as utilization approaches 100%"). The result is
// not checked against the true load: §5.4 observes that large
// underestimation "may even ... make the system unstable", and simulating
// that regime takes allocations that saturate individual computers.
type WithEstimationError struct {
	Base Allocator
	Err  float64
}

func (w WithEstimationError) Name() string {
	return fmt.Sprintf("%s(%+.0f%%)", w.Base.Name(), 100*w.Err)
}

func (w WithEstimationError) Allocate(speeds []float64, rho float64) ([]float64, error) {
	assumed := min(max(rho*(1+w.Err), 0), 0.999999)
	return w.Base.Allocate(speeds, assumed)
}
