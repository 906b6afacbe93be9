// Package stats provides streaming statistics used by the simulator and the
// experiment harness: numerically stable mean/variance accumulation
// (Welford), Student-t confidence intervals across replications, batch
// means, histograms, and a time-weighted accumulator for utilization-style
// quantities.
//
// The paper reports three job metrics — mean response time, mean response
// ratio, and "fairness" (the standard deviation of the response ratio,
// §4.1) — each averaged over 10 independent replications. Accumulator
// covers the within-run statistics and Sample the across-run aggregation.
package stats

import (
	"fmt"
	"math"
)

// Accumulator accumulates a stream of observations with O(1) memory using
// Welford's algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	max  float64
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Reset returns the accumulator to its initial empty state.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean, or 0 if empty.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (n−1 denominator), or 0 for
// fewer than two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// PopVariance returns the population variance (n denominator).
func (a *Accumulator) PopVariance() float64 {
	if a.n == 0 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// PopStdDev returns the population standard deviation. The paper's
// "fairness" metric is the standard deviation of the response ratio over
// all jobs; with millions of jobs the two estimators are indistinguishable,
// but PopStdDev matches the definition literally.
func (a *Accumulator) PopStdDev() float64 { return math.Sqrt(a.PopVariance()) }

// CV returns the coefficient of variation (stddev/mean), or 0 if the mean
// is zero.
func (a *Accumulator) CV() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.StdDev() / math.Abs(a.mean)
}

// Max returns the largest observation, or 0 if empty.
func (a *Accumulator) Max() float64 { return a.max }

// Sample holds a small set of values (typically one summary statistic per
// replication) and reports mean and confidence intervals.
type Sample struct {
	xs []float64
}

// Add appends one value.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of values.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the unbiased standard deviation, or 0 for n < 2.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}

// StdErr returns the standard error of the mean.
func (s *Sample) StdErr() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(len(s.xs)))
}

// CI95 returns the half-width of the 95% Student-t confidence interval for
// the mean. It returns 0 for fewer than two values.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdErr()
}

// tCritical95 returns the two-sided 0.95 critical value of the Student-t
// distribution with df degrees of freedom. Values for small df are tabled;
// larger df fall back to the normal approximation with a second-order
// correction (accurate to ~1e-3 over the range used here).
func tCritical95(df int) float64 {
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101,
		2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052,
		2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	// Cornish-Fisher style expansion around z = 1.959964.
	z := 1.959964
	d := float64(df)
	return z + (z*z*z+z)/(4*d) + (5*z*z*z*z*z+16*z*z*z+3*z)/(96*d*d)
}

// TimeWeighted accumulates a piecewise-constant signal over time, e.g.
// queue length or busy/idle status, and reports its time average.
// The zero value is ready to use; the first Update sets the origin.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	area     float64
	duration float64
}

// Update records that the signal takes value v from time t onward. The
// previously recorded value is integrated over [lastT, t] first, so calls
// must be made in non-decreasing time order (Update panics if t moves
// backwards).
//
// Equal timestamps are explicitly allowed: Update(t, v) with t equal to
// the previous update time integrates a zero-length segment (adding
// nothing to the area or duration) and simply replaces the current value.
// This matters for simulations where two state changes share an instant —
// e.g. a computer repaired at the very moment a run ends, or a failure
// processed in the same event batch as a departure; the last value set at
// t wins from t onward.
func (tw *TimeWeighted) Update(t, v float64) {
	if tw.started {
		dt := t - tw.lastT
		if dt < 0 {
			panic(fmt.Sprintf("stats: TimeWeighted time went backwards (%v -> %v)", tw.lastT, t))
		}
		tw.area += tw.lastV * dt
		tw.duration += dt
	}
	tw.started = true
	tw.lastT = t
	tw.lastV = v
}

// Finish integrates the current value up to time t without changing it.
func (tw *TimeWeighted) Finish(t float64) { tw.Update(t, tw.lastV) }

// Mean returns the time-average of the signal over the observed duration,
// or 0 if no time has elapsed.
func (tw *TimeWeighted) Mean() float64 {
	if tw.duration == 0 {
		return 0
	}
	return tw.area / tw.duration
}

// Area returns the accumulated integral ∫v dt.
func (tw *TimeWeighted) Area() float64 { return tw.area }
