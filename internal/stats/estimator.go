package stats

import "math"

// This file provides the online estimators behind the adaptive
// re-planning layer: a running system does not know λ or E[S]; it
// watches arrivals and completions and maintains λ̂(t), Ê[S](t) with a
// confidence measure, so a watchdog can decide when an estimate is
// trustworthy enough to re-plan from. Two smoothing modes are provided:
//
//   - EWMA: exponentially weighted moving average with smoothing factor
//     α; effective sample size (2−α)/α. Old observations decay
//     geometrically, so the estimator tracks drifting parameters.
//   - Sliding window: the plain mean of the last N observations in a
//     preallocated ring; hard forgetting with an exact horizon.
//
// Observe is allocation-free in both modes — the hooks sit on the
// simulator's hot arrival/departure path, which is locked to zero
// allocations per steady-state job.

// MeanEstimator estimates the mean of a stream of observations with
// bounded memory. Construct with NewEWMAMean or NewWindowMean; the zero
// value is not usable.
type MeanEstimator struct {
	// EWMA state.
	alpha    float64
	mean, vr float64

	// Window state (ring buffer); nil in EWMA mode.
	buf        []float64
	head       int
	sum, sumsq float64

	n int64 // total observations
}

// NewEWMAMean returns an EWMA mean estimator with smoothing factor
// alpha in (0, 1]; smaller alpha averages over more history.
func NewEWMAMean(alpha float64) *MeanEstimator {
	if !(alpha > 0 && alpha <= 1) {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &MeanEstimator{alpha: alpha}
}

// NewWindowMean returns a sliding-window mean estimator over the last
// n observations (n >= 2).
func NewWindowMean(n int) *MeanEstimator {
	if n < 2 {
		panic("stats: window size must be at least 2")
	}
	return &MeanEstimator{buf: make([]float64, 0, n)}
}

// Observe feeds one observation. It performs no allocation.
func (e *MeanEstimator) Observe(x float64) {
	e.n++
	if e.buf == nil && e.alpha > 0 {
		if e.n == 1 {
			e.mean = x
			return
		}
		// Standard recursive EWMA mean and variance (West 1979 form):
		// the variance update keeps vr >= 0 by construction.
		d := x - e.mean
		incr := e.alpha * d
		e.mean += incr
		e.vr = (1 - e.alpha) * (e.vr + d*incr)
		return
	}
	if len(e.buf) < cap(e.buf) {
		e.buf = append(e.buf, x)
	} else {
		old := e.buf[e.head]
		e.sum -= old
		e.sumsq -= old * old
		e.buf[e.head] = x
		e.head++
		if e.head == len(e.buf) {
			e.head = 0
		}
	}
	e.sum += x
	e.sumsq += x * x
}

// Mean returns the current estimate; NaN before any observation.
func (e *MeanEstimator) Mean() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.buf == nil && e.alpha > 0 {
		return e.mean
	}
	return e.sum / float64(len(e.buf))
}

// variance returns the current spread estimate around the mean.
func (e *MeanEstimator) variance() float64 {
	if e.buf == nil && e.alpha > 0 {
		return e.vr
	}
	k := float64(len(e.buf))
	if k < 2 {
		return 0
	}
	v := (e.sumsq - e.sum*e.sum/k) / (k - 1)
	if v < 0 {
		v = 0 // running-sum cancellation guard
	}
	return v
}

// N returns the total number of observations fed in.
func (e *MeanEstimator) N() int64 { return e.n }

// EffN returns the effective sample size behind the current estimate:
// (2−α)/α for EWMA (the variance-matched equivalent window), the
// current fill for a sliding window — both capped by N.
func (e *MeanEstimator) EffN() float64 {
	var eff float64
	if e.buf == nil && e.alpha > 0 {
		eff = (2 - e.alpha) / e.alpha
	} else {
		eff = float64(len(e.buf))
	}
	return math.Min(eff, float64(e.n))
}

// RelHalfWidth returns the relative 95% half-width of the mean
// estimate, s/(|m|·√EffN)·1.96 — the confidence measure the watchdog
// gates re-planning on. It returns +Inf while the estimate has no
// usable support (fewer than two observations, or a zero mean).
func (e *MeanEstimator) RelHalfWidth() float64 {
	m := e.Mean()
	eff := e.EffN()
	if e.n < 2 || eff < 2 || m == 0 || math.IsNaN(m) {
		return math.Inf(1)
	}
	return 1.96 * math.Sqrt(e.variance()) / (math.Abs(m) * math.Sqrt(eff))
}

// RateEstimator estimates the rate of a point process (arrivals per
// second) as the reciprocal of the estimated mean inter-event gap.
type RateEstimator struct {
	gaps    *MeanEstimator
	last    float64
	started bool
}

// NewEWMARate returns a rate estimator smoothing gaps by EWMA.
func NewEWMARate(alpha float64) *RateEstimator {
	return &RateEstimator{gaps: NewEWMAMean(alpha)}
}

// NewWindowRate returns a rate estimator over the last n gaps.
func NewWindowRate(n int) *RateEstimator {
	return &RateEstimator{gaps: NewWindowMean(n)}
}

// ObserveAt records one event at absolute time t (non-decreasing). The
// first call only arms the estimator. It performs no allocation.
func (r *RateEstimator) ObserveAt(t float64) {
	if r.started {
		r.gaps.Observe(t - r.last)
	}
	r.last = t
	r.started = true
}

// Rate returns the estimated event rate 1/Ê[gap]; NaN before two
// events.
func (r *RateEstimator) Rate() float64 { return 1 / r.gaps.Mean() }

// N returns the number of gaps observed.
func (r *RateEstimator) N() int64 { return r.gaps.N() }

// RelHalfWidth returns the relative 95% half-width of the underlying
// gap-mean estimate (to first order the same relative error as the
// rate itself).
func (r *RateEstimator) RelHalfWidth() float64 { return r.gaps.RelHalfWidth() }
