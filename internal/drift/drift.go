// Package drift perturbs the ground truth a running simulation evolves
// under, so the robustness of static plans to parameter error can be
// studied end-to-end (the paper's §5.4 concern, made dynamic).
//
// Three perturbation families are provided, all deterministic in the
// run's seed:
//
//   - Arrival-rate schedules (Step, Ramp, Cycle): the configured arrival
//     process is modulated by a time-varying rate factor, so the true
//     λ(t) departs from the λ the plan was built for.
//   - Speed steps: a computer's (or every computer's) effective speed
//     changes at a point in time — thermal throttling, a noisy
//     neighbor, a hardware swap.
//   - One-shot misestimation: the inputs handed to the policy at
//     initialization (ρ, speeds) are perturbed while the simulated
//     world keeps the true values, so Algorithm 1 plans from λ̂, ŝᵢ ≠
//     truth.
//
// The package is pure model: internal/cluster owns the wiring, and a
// nil or zero Config leaves runs bit-identical to a build without the
// drift subsystem.
package drift

import (
	"errors"
	"fmt"
	"math"

	"heterosched/internal/rng"
)

// RateSchedule is a deterministic arrival-rate modulation: the true
// arrival rate at time t is base-rate · Factor(t). Implementations must
// keep Factor strictly positive and bounded so renewal gaps can be
// rescaled by bisection.
type RateSchedule interface {
	// Integral returns ∫ Factor(u) du over [t0, t0+dt] (dt >= 0).
	Integral(t0, dt float64) float64
	// Bounds returns lower and upper bounds on the factor (0 < lo <= hi).
	Bounds() (lo, hi float64)
	// Validate reports parameter errors.
	Validate() error
	// String renders the schedule in the CLI spec grammar.
	String() string
}

// Step multiplies the arrival rate by Factor from time At onward — the
// canonical "the workload doubled overnight" scenario a static plan
// cannot absorb.
type Step struct {
	// At is the step time in seconds (>= 0).
	At float64
	// Factor is the rate multiplier after At (> 0).
	Factor float64
}

// Integral integrates the piecewise-constant factor.
func (s Step) Integral(t0, dt float64) float64 {
	t1 := t0 + dt
	if t1 <= s.At {
		return dt
	}
	if t0 >= s.At {
		return dt * s.Factor
	}
	return (s.At - t0) + (t1-s.At)*s.Factor
}

// Bounds returns the min and max of {1, Factor}.
func (s Step) Bounds() (float64, float64) {
	return math.Min(1, s.Factor), math.Max(1, s.Factor)
}

// Validate checks the step parameters.
func (s Step) Validate() error {
	if s.At < 0 || math.IsNaN(s.At) || math.IsInf(s.At, 0) {
		return fmt.Errorf("drift: step time %v must be >= 0 and finite", s.At)
	}
	if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
		return fmt.Errorf("drift: step factor %v must be positive and finite", s.Factor)
	}
	return nil
}

// String renders "lstep:AT:FACTOR".
func (s Step) String() string { return fmt.Sprintf("lstep:%g:%g", s.At, s.Factor) }

// Ramp interpolates the rate factor linearly from 1 at From to Factor
// at To, holding Factor afterwards — gradual organic growth.
type Ramp struct {
	// From and To bound the ramp in seconds (0 <= From < To).
	From, To float64
	// Factor is the rate multiplier reached at To (> 0).
	Factor float64
}

// FactorAt interpolates the factor.
func (r Ramp) FactorAt(t float64) float64 {
	switch {
	case t <= r.From:
		return 1
	case t >= r.To:
		return r.Factor
	default:
		return 1 + (r.Factor-1)*(t-r.From)/(r.To-r.From)
	}
}

// Integral integrates the piecewise-linear factor (trapezoids, exact).
func (r Ramp) Integral(t0, dt float64) float64 {
	// Split [t0, t0+dt] at the ramp knees; each piece is linear so the
	// trapezoid rule is exact.
	t1 := t0 + dt
	total := 0.0
	seg := func(a, b float64) {
		if b > a {
			total += (b - a) * (r.FactorAt(a) + r.FactorAt(b)) / 2
		}
	}
	seg(t0, math.Min(t1, r.From))
	seg(math.Max(t0, r.From), math.Min(t1, r.To))
	seg(math.Max(t0, r.To), t1)
	return total
}

// Bounds returns the min and max of {1, Factor}.
func (r Ramp) Bounds() (float64, float64) {
	return math.Min(1, r.Factor), math.Max(1, r.Factor)
}

// Validate checks the ramp parameters.
func (r Ramp) Validate() error {
	if r.From < 0 || math.IsNaN(r.From) || math.IsInf(r.From, 0) {
		return fmt.Errorf("drift: ramp start %v must be >= 0 and finite", r.From)
	}
	if !(r.To > r.From) || math.IsInf(r.To, 0) {
		return fmt.Errorf("drift: ramp end %v must be > start %v and finite", r.To, r.From)
	}
	if !(r.Factor > 0) || math.IsInf(r.Factor, 0) {
		return fmt.Errorf("drift: ramp factor %v must be positive and finite", r.Factor)
	}
	return nil
}

// String renders "lramp:FROM:TO:FACTOR".
func (r Ramp) String() string { return fmt.Sprintf("lramp:%g:%g:%g", r.From, r.To, r.Factor) }

// Cycle modulates the rate sinusoidally, factor(t) = 1 + A·sin(2πt/P) —
// the diurnal pattern, applicable to any renewal base process (unlike
// cluster.SinusoidalPoisson, which is tied to Poisson thinning).
type Cycle struct {
	// Period is the oscillation period in seconds (> 0).
	Period float64
	// Amplitude is the relative swing in [0, 1).
	Amplitude float64
}

// Integral uses the sine antiderivative.
func (c Cycle) Integral(t0, dt float64) float64 {
	w := 2 * math.Pi / c.Period
	return dt - c.Amplitude/w*(math.Cos(w*(t0+dt))-math.Cos(w*t0))
}

// Bounds returns 1∓Amplitude.
func (c Cycle) Bounds() (float64, float64) {
	return 1 - c.Amplitude, 1 + c.Amplitude
}

// Validate checks the cycle parameters.
func (c Cycle) Validate() error {
	if !(c.Period > 0) || math.IsInf(c.Period, 0) {
		return fmt.Errorf("drift: cycle period %v must be positive and finite", c.Period)
	}
	if c.Amplitude < 0 || c.Amplitude >= 1 || math.IsNaN(c.Amplitude) {
		return fmt.Errorf("drift: cycle amplitude %v outside [0, 1)", c.Amplitude)
	}
	return nil
}

// String renders "lcycle:PERIOD:AMPLITUDE".
func (c Cycle) String() string { return fmt.Sprintf("lcycle:%g:%g", c.Period, c.Amplitude) }

// BaseProcess is the arrival-process surface Modulated needs; it is
// structurally identical to cluster.ArrivalProcess (the cluster package
// imports drift, not the reverse).
type BaseProcess interface {
	Next(now float64, st *rng.Stream) float64
	MeanRate() float64
}

// Modulated rescales a base renewal process's gaps through a rate
// schedule: a base gap g drawn in operational time becomes the real-time
// gap dt solving ∫ Factor over [now, now+dt] = g, so the instantaneous
// rate is base-rate · Factor(t) while the gap distribution's shape (and
// its CV) is preserved. The inversion is a deterministic bisection —
// Factor is positive, so the integral is strictly increasing in dt.
type Modulated struct {
	Base     BaseProcess
	Schedule RateSchedule
}

// Next draws one base gap and maps it to real time.
func (m Modulated) Next(now float64, st *rng.Stream) float64 {
	g := m.Base.Next(now, st) - now
	if !(g > 0) {
		return now + g // degenerate base gap; pass through
	}
	lo, hi := m.Schedule.Bounds()
	a, b := g/hi, g/lo
	if m.Schedule.Integral(now, b) < g {
		b = g / lo * 2 // guard against factor-bound slack
	}
	for i := 0; i < 200 && b-a > 1e-12*(1+b); i++ {
		mid := 0.5 * (a + b)
		if m.Schedule.Integral(now, mid) < g {
			a = mid
		} else {
			b = mid
		}
	}
	return now + 0.5*(a+b)
}

// MeanRate reports the base process's rate: the schedule changes the
// truth, not the belief the plan is built from.
func (m Modulated) MeanRate() float64 { return m.Base.MeanRate() }

// SpeedStep changes one computer's (or every computer's) effective speed
// at a point in time: the new speed is the configured speed times
// Factor. Factors are relative to the original configuration, so two
// steps on the same computer do not compound.
type SpeedStep struct {
	// At is the change time in seconds (>= 0).
	At float64
	// Computer is the target index, or -1 for all computers.
	Computer int
	// Factor multiplies the configured speed (> 0).
	Factor float64
}

// Validate checks the step against the cluster size.
func (s SpeedStep) Validate(computers int) error {
	if s.At < 0 || math.IsNaN(s.At) || math.IsInf(s.At, 0) {
		return fmt.Errorf("drift: speed-step time %v must be >= 0 and finite", s.At)
	}
	if s.Computer < -1 || s.Computer >= computers {
		return fmt.Errorf("drift: speed-step computer %d outside [-1, %d)", s.Computer, computers)
	}
	if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
		return fmt.Errorf("drift: speed-step factor %v must be positive and finite", s.Factor)
	}
	return nil
}

// Misest is a one-shot misestimation of the inputs the policy plans
// from: the policy's Init sees ρ·(1+RhoErr) and per-computer speeds
// sᵢ·(1+uᵢ·SpeedErr) with uᵢ ~ U(−1,1) from a dedicated named stream,
// while the simulated world keeps the true values.
type Misest struct {
	// RhoErr is the relative utilization estimation error (> -1);
	// -0.10 means the planner underestimates the load by 10%.
	RhoErr float64
	// SpeedErr is the maximum relative per-computer speed error in
	// [0, 1); each computer draws its own error uniformly in ±SpeedErr.
	SpeedErr float64
}

// Enabled reports whether any misestimation is configured.
func (m Misest) Enabled() bool { return m.RhoErr != 0 || m.SpeedErr != 0 }

// Validate checks the error magnitudes.
func (m Misest) Validate() error {
	if m.RhoErr <= -1 || math.IsNaN(m.RhoErr) || math.IsInf(m.RhoErr, 0) {
		return fmt.Errorf("drift: rho error %v must be > -1 and finite", m.RhoErr)
	}
	if m.SpeedErr < 0 || m.SpeedErr >= 1 || math.IsNaN(m.SpeedErr) {
		return fmt.Errorf("drift: speed error %v outside [0, 1)", m.SpeedErr)
	}
	return nil
}

// Apply perturbs (rho, speeds) into the believed values, drawing
// per-computer speed errors from st. The returned slice is fresh; the
// input is not modified.
func (m Misest) Apply(rho float64, speeds []float64, st *rng.Stream) (float64, []float64) {
	assumed := rho * (1 + m.RhoErr)
	if assumed < 0 {
		assumed = 0
	}
	out := make([]float64, len(speeds))
	for i, s := range speeds {
		f := 1.0
		if m.SpeedErr > 0 {
			f = 1 + st.Uniform(-m.SpeedErr, m.SpeedErr)
		}
		out[i] = s * f
	}
	return assumed, out
}

// Config assembles a run's drift model. The zero value (and nil) is
// fully disabled and leaves runs bit-identical: cluster derives no
// extra random stream and schedules no extra events.
type Config struct {
	// Arrival, when non-nil, modulates the arrival rate over time.
	Arrival RateSchedule
	// SpeedSteps change effective computer speeds at points in time
	// (PS discipline only).
	SpeedSteps []SpeedStep
	// Misest perturbs the inputs the policy plans from at Init.
	Misest Misest
}

// Enabled reports whether any drift is configured (nil-safe).
func (c *Config) Enabled() bool {
	return c != nil && (c.Arrival != nil || len(c.SpeedSteps) > 0 || c.Misest.Enabled())
}

// Validate checks every configured perturbation (nil-safe).
func (c *Config) Validate(computers int) error {
	if c == nil {
		return nil
	}
	if computers <= 0 {
		return errors.New("drift: no computers")
	}
	if c.Arrival != nil {
		if err := c.Arrival.Validate(); err != nil {
			return err
		}
	}
	for _, s := range c.SpeedSteps {
		if err := s.Validate(computers); err != nil {
			return err
		}
	}
	return c.Misest.Validate()
}
