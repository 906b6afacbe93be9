// Package dist implements the random-variate distributions the simulator
// samples.
//
// The paper (§4.1) draws job sizes from a Bounded Pareto distribution
// B(k=10 s, p=21600 s, α=1.0) whose mean is 76.8 s, and inter-arrival
// times from a two-stage hyperexponential distribution fitted to a
// coefficient of variation of 3.0. Both are implemented here with analytic
// moments so tests can verify samplers against closed forms, together with
// Exponential (the M/M/1 analysis case; also failure, repair and link
// latency times), Uniform and Deterministic (per-job deadlines).
//
// All samplers draw from an *rng.Stream so every stochastic process in a
// simulation owns an independent reproducible stream.
package dist

import (
	"fmt"
	"math"

	"heterosched/internal/rng"
)

// Distribution is a positive-valued random variate generator with known
// first and second moments.
type Distribution interface {
	// Sample draws one variate using the given stream.
	Sample(st *rng.Stream) float64
	// Mean returns the distribution's analytic mean.
	Mean() float64
	// Variance returns the analytic variance.
	Variance() float64
	// String describes the distribution and its parameters.
	String() string
}

// CV returns the coefficient of variation of d (stddev/mean). It returns
// 0 when the mean is 0.
func CV(d Distribution) float64 {
	m := d.Mean()
	if m == 0 {
		return 0
	}
	return math.Sqrt(d.Variance()) / m
}

// Exponential is the exponential distribution with the given mean
// (rate = 1/mean).
type Exponential struct {
	MeanVal float64
}

// NewExponential returns an exponential distribution with the given mean.
// It panics if mean <= 0.
func NewExponential(mean float64) Exponential {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: exponential mean must be positive, got %v", mean))
	}
	return Exponential{MeanVal: mean}
}

func (e Exponential) Sample(st *rng.Stream) float64 { return st.Exp(e.MeanVal) }
func (e Exponential) Mean() float64                 { return e.MeanVal }
func (e Exponential) Variance() float64             { return e.MeanVal * e.MeanVal }
func (e Exponential) String() string                { return fmt.Sprintf("Exp(mean=%g)", e.MeanVal) }

// Deterministic always returns Value.
type Deterministic struct {
	Value float64
}

func (d Deterministic) Sample(*rng.Stream) float64 { return d.Value }
func (d Deterministic) Mean() float64              { return d.Value }
func (d Deterministic) Variance() float64          { return 0 }
func (d Deterministic) String() string             { return fmt.Sprintf("Det(%g)", d.Value) }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

func (u Uniform) Sample(st *rng.Stream) float64 { return st.Uniform(u.Lo, u.Hi) }
func (u Uniform) Mean() float64                 { return (u.Lo + u.Hi) / 2 }
func (u Uniform) Variance() float64 {
	w := u.Hi - u.Lo
	return w * w / 12
}
func (u Uniform) String() string { return fmt.Sprintf("U(%g,%g)", u.Lo, u.Hi) }

// BoundedPareto is the Bounded Pareto distribution B(K, P, Alpha) of the
// paper's §4.1: density f(x) = α k^α / (1 − (k/p)^α) · x^{−α−1} on
// [k, p]. With the paper defaults (k=10, p=21600, α=1.0) the mean is
// 76.8 s.
type BoundedPareto struct {
	K, P, Alpha float64
}

// NewBoundedPareto validates and returns a Bounded Pareto distribution.
// It panics unless 0 < K < P and Alpha > 0.
func NewBoundedPareto(k, p, alpha float64) BoundedPareto {
	if !(k > 0 && p > k && alpha > 0) {
		panic(fmt.Sprintf("dist: invalid BoundedPareto(k=%v,p=%v,alpha=%v)", k, p, alpha))
	}
	return BoundedPareto{K: k, P: p, Alpha: alpha}
}

// PaperJobSize returns the paper's default job size distribution
// B(10, 21600, 1.0) with mean 76.8 seconds.
func PaperJobSize() BoundedPareto { return NewBoundedPareto(10.0, 21600.0, 1.0) }

// Sample draws by inverting the CDF
// F(x) = (1 − (k/x)^α) / (1 − (k/p)^α).
func (b BoundedPareto) Sample(st *rng.Stream) float64 {
	u := st.Float64()
	// x = k / (1 − u(1 − (k/p)^α))^{1/α}. At the paper's α = 1 both
	// powers are skipped: math.Pow(y, 1) is y.
	var x float64
	if b.Alpha == 1 {
		x = b.K / (1 - u*(1-b.K/b.P))
	} else {
		kp := math.Pow(b.K/b.P, b.Alpha)
		x = b.K / math.Pow(1-u*(1-kp), 1/b.Alpha)
	}
	// Guard against rounding pushing x marginally outside [k, p].
	if x < b.K {
		x = b.K
	}
	if x > b.P {
		x = b.P
	}
	return x
}

// RawMoment returns E[X^r] for the Bounded Pareto distribution.
func (b BoundedPareto) RawMoment(r float64) float64 {
	a := b.Alpha
	norm := a * math.Pow(b.K, a) / (1 - math.Pow(b.K/b.P, a))
	if a == r {
		// ∫ x^{r-α-1} dx degenerates to a logarithm when r = α.
		return norm * (math.Log(b.P) - math.Log(b.K))
	}
	return norm * (math.Pow(b.P, r-a) - math.Pow(b.K, r-a)) / (r - a)
}

func (b BoundedPareto) Mean() float64 { return b.RawMoment(1) }

// PartialMean returns E[X · 1{X ≤ x}], the contribution of jobs no larger
// than x to the mean. It is the load integral used by size-interval task
// assignment (SITA) to cut the size range into equal-load slices.
func (b BoundedPareto) PartialMean(x float64) float64 {
	if x <= b.K {
		return 0
	}
	if x >= b.P {
		return b.Mean()
	}
	a := b.Alpha
	norm := a * math.Pow(b.K, a) / (1 - math.Pow(b.K/b.P, a))
	if a == 1 {
		return norm * (math.Log(x) - math.Log(b.K))
	}
	return norm * (math.Pow(x, 1-a) - math.Pow(b.K, 1-a)) / (1 - a)
}
func (b BoundedPareto) Variance() float64 {
	m := b.Mean()
	return b.RawMoment(2) - m*m
}
func (b BoundedPareto) String() string {
	return fmt.Sprintf("BoundedPareto(k=%g,p=%g,alpha=%g)", b.K, b.P, b.Alpha)
}

// HyperExp2 is a two-stage hyperexponential distribution: with probability
// P1 the variate is Exp(rate R1), otherwise Exp(rate R2). Its CV is always
// ≥ 1, making it the standard model for bursty arrival processes (the
// paper uses CV = 3 to match Zhou's trace CV of 2.64).
type HyperExp2 struct {
	P1, R1, R2 float64
}

func (h HyperExp2) Sample(st *rng.Stream) float64 {
	if st.Float64() < h.P1 {
		return st.Exp(1 / h.R1)
	}
	return st.Exp(1 / h.R2)
}

func (h HyperExp2) Mean() float64 {
	return h.P1/h.R1 + (1-h.P1)/h.R2
}

func (h HyperExp2) Variance() float64 {
	m2 := 2*h.P1/(h.R1*h.R1) + 2*(1-h.P1)/(h.R2*h.R2)
	m := h.Mean()
	return m2 - m*m
}

func (h HyperExp2) String() string {
	return fmt.Sprintf("H2(p1=%.4g,r1=%.4g,r2=%.4g)", h.P1, h.R1, h.R2)
}

// FitHyperExp2 returns a two-stage hyperexponential with the given mean and
// coefficient of variation, using the balanced-means method (Kleinrock):
// the two branches contribute equal probability mass to the mean,
// p1/r1 = p2/r2. This pins down the two extra degrees of freedom and is the
// conventional H2 fit when only two moments are specified, as in the paper.
//
// It panics unless mean > 0 and cv >= 1 (an H2 cannot have CV < 1; cv == 1
// degenerates to the exponential distribution).
func FitHyperExp2(mean, cv float64) HyperExp2 {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: FitHyperExp2 mean must be positive, got %v", mean))
	}
	if cv < 1 {
		panic(fmt.Sprintf("dist: FitHyperExp2 cv must be >= 1, got %v", cv))
	}
	c2 := cv * cv
	// Balanced means: p1 = (1 + sqrt((c²−1)/(c²+1)))/2,
	// r1 = 2 p1 / mean, r2 = 2 (1−p1) / mean.
	p1 := 0.5 * (1 + math.Sqrt((c2-1)/(c2+1)))
	r1 := 2 * p1 / mean
	r2 := 2 * (1 - p1) / mean
	if r2 <= 0 { // cv == 1 ⇒ p1 == 1 exactly: collapse to exponential
		return HyperExp2{P1: 1, R1: 1 / mean, R2: 1 / mean}
	}
	return HyperExp2{P1: p1, R1: r1, R2: r2}
}
