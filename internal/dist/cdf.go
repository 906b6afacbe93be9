package dist

import "math"

// CDFer is implemented by distributions with a closed-form cumulative
// distribution function, enabling goodness-of-fit validation of samplers
// (see stats.KSTest).
type CDFer interface {
	// CDF returns P(X <= x).
	CDF(x float64) float64
}

// CDF of the exponential distribution: 1 − e^{−x/mean} for x ≥ 0.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 - math.Exp(-x/e.MeanVal)
}

// CDF of the uniform distribution on [Lo, Hi).
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// CDF of the deterministic distribution: a step at Value.
func (d Deterministic) CDF(x float64) float64 {
	if x < d.Value {
		return 0
	}
	return 1
}

// CDF of the Bounded Pareto distribution:
// F(x) = (1 − (k/x)^α) / (1 − (k/p)^α) on [k, p].
func (b BoundedPareto) CDF(x float64) float64 {
	switch {
	case x <= b.K:
		return 0
	case x >= b.P:
		return 1
	default:
		return (1 - math.Pow(b.K/x, b.Alpha)) / (1 - math.Pow(b.K/b.P, b.Alpha))
	}
}

// CDF of the two-stage hyperexponential distribution: the probability
// mixture of the two exponential CDFs.
func (h HyperExp2) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return h.P1*(1-math.Exp(-h.R1*x)) + (1-h.P1)*(1-math.Exp(-h.R2*x))
}

// Static interface checks.
var (
	_ CDFer = Exponential{}
	_ CDFer = Uniform{}
	_ CDFer = Deterministic{}
	_ CDFer = BoundedPareto{}
	_ CDFer = HyperExp2{}
)
