package cluster

import (
	"fmt"
	"math"

	"heterosched/internal/probe"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// This file implements the stability watchdog and hysteretic
// re-planning control loop: the adaptive answer to parameter drift.
// Online estimators (internal/stats) maintain λ̂(t), Ê[S](t) and
// per-computer effective speeds ŝᵢ(t) from the arrival and departure
// streams; a periodic watchdog converts them into estimated
// utilizations ρ̂ᵢ = αᵢ·λ̂·Ê[S]/ŝᵢ and, when a computer approaches
// saturation or queues grow without bound, re-solves Algorithm 1 on the
// current estimates and swaps the new weights into the running
// dispatcher. Cooldown and a hysteresis band keep estimator noise from
// flapping the weights; when the estimates are not trustworthy the loop
// falls back to speed-proportional weights, which equalize utilizations
// and therefore cannot saturate one computer before the whole system
// saturates.
//
// Everything is gated on an enabled AdaptConfig: with the layer off no
// estimator is attached, no event is scheduled, and runs stay
// bit-identical to a build without the subsystem.

// EstimatorKind selects the smoothing mode of the online estimators.
type EstimatorKind int

const (
	// EstimatorWindow averages the last Window observations (hard
	// forgetting; default).
	EstimatorWindow EstimatorKind = iota
	// EstimatorEWMA smooths exponentially with factor Alpha.
	EstimatorEWMA
)

// String returns the spec mnemonic.
func (k EstimatorKind) String() string {
	switch k {
	case EstimatorWindow:
		return "win"
	case EstimatorEWMA:
		return "ewma"
	default:
		return fmt.Sprintf("EstimatorKind(%d)", int(k))
	}
}

// EstimatorConfig parameterizes the online rate and service estimators.
type EstimatorConfig struct {
	// Kind selects the smoothing mode (default EstimatorWindow).
	Kind EstimatorKind
	// Alpha is the EWMA smoothing factor in (0, 1]; zero means 0.05.
	Alpha float64
	// Window is the sliding-window size; zero means 256.
	Window int
}

// withDefaults fills zero fields.
func (e EstimatorConfig) withDefaults() EstimatorConfig {
	if e.Alpha == 0 {
		e.Alpha = 0.05
	}
	if e.Window == 0 {
		e.Window = 256
	}
	return e
}

// Validate reports parameter errors.
func (e EstimatorConfig) Validate() error {
	e = e.withDefaults()
	switch e.Kind {
	case EstimatorWindow:
		if e.Window < 2 {
			return fmt.Errorf("cluster: estimator window %d must be >= 2", e.Window)
		}
	case EstimatorEWMA:
		if !(e.Alpha > 0 && e.Alpha <= 1) {
			return fmt.Errorf("cluster: estimator alpha %v outside (0, 1]", e.Alpha)
		}
	default:
		return fmt.Errorf("cluster: unknown estimator kind %v", e.Kind)
	}
	return nil
}

// newRate builds the configured rate estimator.
func (e EstimatorConfig) newRate() *stats.RateEstimator {
	e = e.withDefaults()
	if e.Kind == EstimatorEWMA {
		return stats.NewEWMARate(e.Alpha)
	}
	return stats.NewWindowRate(e.Window)
}

// newMean builds the configured mean estimator.
func (e EstimatorConfig) newMean() *stats.MeanEstimator {
	e = e.withDefaults()
	if e.Kind == EstimatorEWMA {
		return stats.NewEWMAMean(e.Alpha)
	}
	return stats.NewWindowMean(e.Window)
}

// AdaptConfig parameterizes the watchdog/re-planning loop. The zero
// value (and nil) disables the layer entirely.
type AdaptConfig struct {
	// CheckInterval is the watchdog period in seconds; the loop is
	// enabled iff it is positive.
	CheckInterval float64
	// RhoTrip is the estimated per-computer utilization that trips a
	// re-plan; zero means 0.9.
	RhoTrip float64
	// Cooldown is the minimum time between plan changes in seconds;
	// zero means 5·CheckInterval.
	Cooldown float64
	// Band is the hysteresis band: a tripped check is suppressed when
	// the estimated system utilization is within Band of the load the
	// current plan was built for (the plan already reflects the
	// estimate; re-solving would chase noise). Zero means 0.02; set
	// negative for no hysteresis.
	Band float64
	// MinSamples is the number of arrival and service observations
	// required before estimates are trusted; zero means 64.
	MinSamples int64
	// MaxRelCI is the maximum relative 95% half-width of the arrival
	// estimate for it to be trusted; zero means 0.5.
	MaxRelCI float64
	// GrowthChecks is the number of consecutive watchdog checks with a
	// rising in-system count that counts as sustained queue growth;
	// zero means 4.
	GrowthChecks int
	// Estimator parameterizes the online estimators.
	Estimator EstimatorConfig
}

// Enabled reports whether the adaptive layer is active (nil-safe).
func (a *AdaptConfig) Enabled() bool { return a != nil && a.CheckInterval != 0 }

// withDefaults fills zero fields.
func (a AdaptConfig) withDefaults() AdaptConfig {
	if a.RhoTrip == 0 {
		a.RhoTrip = 0.9
	}
	if a.Cooldown == 0 {
		a.Cooldown = 5 * a.CheckInterval
	}
	if a.Band == 0 {
		a.Band = 0.02
	}
	if a.Band < 0 {
		a.Band = 0
	}
	if a.MinSamples == 0 {
		a.MinSamples = 64
	}
	if a.MaxRelCI == 0 {
		a.MaxRelCI = 0.5
	}
	if a.GrowthChecks == 0 {
		a.GrowthChecks = 4
	}
	return a
}

// Validate reports configuration errors (nil-safe; disabled is valid).
func (a *AdaptConfig) Validate() error {
	if !a.Enabled() {
		return nil
	}
	if !(a.CheckInterval > 0) || math.IsInf(a.CheckInterval, 0) {
		return fmt.Errorf("cluster: adapt check interval %v must be positive and finite", a.CheckInterval)
	}
	c := a.withDefaults()
	if !(c.RhoTrip > 0) || c.RhoTrip > 1 || math.IsNaN(c.RhoTrip) {
		return fmt.Errorf("cluster: adapt trip threshold %v outside (0, 1]", c.RhoTrip)
	}
	if c.Cooldown < 0 || math.IsNaN(c.Cooldown) || math.IsInf(c.Cooldown, 0) {
		return fmt.Errorf("cluster: adapt cooldown %v must be >= 0 and finite", c.Cooldown)
	}
	if math.IsNaN(c.Band) || math.IsInf(c.Band, 0) {
		return fmt.Errorf("cluster: adapt hysteresis band %v invalid", c.Band)
	}
	if c.MinSamples < 2 {
		return fmt.Errorf("cluster: adapt min samples %d must be >= 2", c.MinSamples)
	}
	if !(c.MaxRelCI > 0) || math.IsInf(c.MaxRelCI, 0) {
		return fmt.Errorf("cluster: adapt max relative CI %v must be positive and finite", c.MaxRelCI)
	}
	if c.GrowthChecks < 1 {
		return fmt.Errorf("cluster: adapt growth checks %d must be >= 1", c.GrowthChecks)
	}
	return c.Estimator.Validate()
}

// Replannable is implemented by policies whose plan can be re-solved
// and swapped mid-run (sched.Static). Both calls happen between engine
// events, so "atomically" with respect to dispatch decisions.
type Replannable interface {
	// Replan re-solves the allocation for the believed speeds and
	// utilization and applies it; on error the old plan must stay.
	Replan(speeds []float64, rho float64) error
	// ReplanProportional applies speed-proportional fractions — the
	// safe fallback when estimates are untrustworthy or Replan reports
	// infeasibility.
	ReplanProportional(speeds []float64) error
}

// AdaptiveStats counts the control loop's decisions over a run.
type AdaptiveStats struct {
	// Checks is the number of watchdog evaluations.
	Checks int64
	// Breaches counts checks where the trip condition held (estimated
	// utilization at or beyond RhoTrip, or sustained queue growth).
	Breaches int64
	// Replans counts applied Algorithm 1 re-solves; Fallbacks counts
	// applied proportional-weight fallbacks.
	Replans, Fallbacks int64
	// SuppressedCooldown and SuppressedHysteresis count breaches that
	// did not change the plan because of the cooldown or because the
	// current plan was already built for the estimated load.
	SuppressedCooldown, SuppressedHysteresis int64
	// LowConfidence counts checks where the estimates were not
	// trustworthy (too few samples or too wide a confidence interval).
	LowConfidence int64
	// LambdaHat, ServiceMeanHat and RhoHat are the final estimates of
	// the arrival rate, mean service demand and system utilization.
	LambdaHat, ServiceMeanHat, RhoHat float64
	// PlannedRho is the utilization the current plan was built for.
	PlannedRho float64
	// SpeedHat[i] is the final effective-speed estimate of computer i.
	SpeedHat []float64
}

// adaptiveRun is one run's adaptive-control state; it reads the run's
// servers and in-system count through r.
type adaptiveRun struct {
	r   *run
	cfg AdaptConfig
	rp  Replannable
	fp  FractionProvider // nil when the policy has no fractions

	arrivals *stats.RateEstimator
	sizes    *stats.MeanEstimator

	speedHat []float64 // current effective-speed estimates
	work     []float64 // cumulative serviced demand per computer
	lastWork []float64
	lastBusy []float64
	// accW/accB are exponentially decayed work and busy-time sums; the
	// speed estimate is their ratio. A ratio of long sums is essential:
	// over one check window a heavy-tailed job's whole size is credited
	// to the window it completes in, so instantaneous dW/dB ratios swing
	// by an order of magnitude in either direction.
	accW, accB []float64

	lastPlannedRho float64
	lastChangeT    float64
	lastCheckT     float64
	// rhoU is the EWMA of the measured capacity utilization
	// Σᵢ Δbusyᵢ·ŝᵢ/(Δt·Σŝ) — the robust, heavy-tail-immune load signal
	// the planner trusts when the sampled Ê[S] is too noisy.
	rhoU         float64
	inFallback   bool
	growthRun    int
	lastInSystem int64

	// Optional probe series, bound once at setup (nil without a probe).
	lambdaSeries, rhoSeries *probe.Series

	st AdaptiveStats
}

// newAdaptiveRun wires the control loop for one run and registers its
// estimate series on an enabled probe. The policy must be Replannable; a
// FractionProvider is used when available for per-computer utilization
// estimates.
func newAdaptiveRun(r *run) (*adaptiveRun, error) {
	rp, ok := r.policy.(Replannable)
	if !ok {
		return nil, fmt.Errorf("cluster: policy %s does not support re-planning (want a static allocator policy)", r.policy.Name())
	}
	c := r.cfg.Adapt.withDefaults()
	n := r.n
	ad := &adaptiveRun{
		r:              r,
		cfg:            c,
		rp:             rp,
		arrivals:       c.Estimator.newRate(),
		sizes:          c.Estimator.newMean(),
		speedHat:       make([]float64, n),
		work:           make([]float64, n),
		lastWork:       make([]float64, n),
		lastBusy:       make([]float64, n),
		accW:           make([]float64, n),
		accB:           make([]float64, n),
		lastPlannedRho: r.ctx.Utilization,
		rhoU:           r.ctx.Utilization,
	}
	copy(ad.speedHat, r.cfg.Speeds)
	ad.fp, _ = r.policy.(FractionProvider)
	if r.pb != nil {
		reg := r.pb.Registry()
		ad.lambdaSeries = reg.Series("adapt.lambda_hat")
		ad.rhoSeries = reg.Series("adapt.rho_hat")
	}
	return ad, nil
}

// noteArrival feeds the arrival-rate and service-demand estimators.
// Sizes are sampled at arrival, not completion: under overload the
// completion stream stalls exactly on the large jobs, so a
// completion-sampled Ê[S] is biased low right when the controller needs
// it most. Allocation-free.
func (ad *adaptiveRun) noteArrival(t, size float64) {
	ad.arrivals.ObserveAt(t)
	ad.sizes.Observe(size)
}

// noteCompletion accumulates serviced demand for the per-computer
// effective-speed estimates. Allocation-free.
func (ad *adaptiveRun) noteCompletion(j *sim.Job) {
	if j.Target >= 0 && j.Target < len(ad.work) {
		ad.work[j.Target] += j.Size
	}
}

// start schedules the self-rescheduling watchdog until the horizon.
func (ad *adaptiveRun) start() {
	en, horizon := ad.r.en, ad.r.cfg.Duration
	var tick func()
	tick = func() {
		ad.check(en.Now())
		if en.Now()+ad.cfg.CheckInterval <= horizon {
			en.ScheduleAfter(ad.cfg.CheckInterval, tick)
		}
	}
	en.ScheduleAfter(ad.cfg.CheckInterval, tick)
}

// check is one watchdog evaluation: refresh estimates, detect a breach,
// and re-plan through the hysteresis/cooldown/fallback state machine.
func (ad *adaptiveRun) check(now float64) {
	ad.st.Checks++

	// Sustained queue growth: the in-system count rose across
	// GrowthChecks consecutive checks while clearly above the trivial
	// occupancy of one job per computer.
	cur := ad.r.inSystem
	if cur > ad.lastInSystem && cur > int64(2*len(ad.speedHat)) {
		ad.growthRun++
	} else {
		ad.growthRun = 0
	}
	ad.lastInSystem = cur
	growth := ad.growthRun >= ad.cfg.GrowthChecks

	// Effective speeds from serviced work per busy second since the last
	// check (computers with no completions keep their estimate), plus the
	// delivered capacity utilization Σᵢ Δbusyᵢ·ŝᵢ/(Δt·Σŝ). Busy time
	// integrates the service process continuously, so unlike sampled
	// sizes it carries no heavy-tail shot noise; it does lag the offered
	// load (it cannot exceed 1 and includes backlog drain), which is why
	// it only floors the planning estimate below.
	dt := now - ad.lastCheckT
	ad.lastCheckT = now
	// gammaSpeed sets the speed estimators' memory (~1/(1-γ) checks):
	// long enough to wash out per-window completion noise, short enough
	// to track genuine speed drift within a few dozen checks.
	const gammaSpeed = 0.98
	usedCap := 0.0
	for i := range ad.speedHat {
		busy := ad.r.servers[i].BusyTime()
		dW := ad.work[i] - ad.lastWork[i]
		dB := busy - ad.lastBusy[i]
		ad.accW[i] = gammaSpeed*ad.accW[i] + dW
		ad.accB[i] = gammaSpeed*ad.accB[i] + dB
		if ad.accB[i] > 1e-9 && ad.accW[i] > 0 {
			ad.speedHat[i] = ad.accW[i] / ad.accB[i]
		}
		usedCap += dB * ad.speedHat[i]
		ad.lastWork[i] = ad.work[i]
		ad.lastBusy[i] = busy
	}
	sumS := 0.0
	for _, s := range ad.speedHat {
		sumS += s
	}
	if dt > 0 && sumS > 0 {
		// Slow EWMA: single busy windows are dominated by whichever
		// tail job happens to be in service.
		const alphaU = 0.1
		ad.rhoU = (1-alphaU)*ad.rhoU + alphaU*usedCap/(dt*sumS)
	}

	confident := ad.arrivals.N() >= ad.cfg.MinSamples &&
		ad.sizes.N() >= ad.cfg.MinSamples &&
		ad.arrivals.RelHalfWidth() <= ad.cfg.MaxRelCI
	if !confident {
		ad.st.LowConfidence++
		// Queues growing with no usable estimates: the one safe move is
		// proportional-to-speed weights.
		if growth && !ad.inFallback && now-ad.lastChangeT >= ad.cfg.Cooldown {
			if err := ad.rp.ReplanProportional(ad.speedHat); err == nil {
				ad.st.Fallbacks++
				ad.inFallback = true
				ad.lastChangeT = now
				ad.growthRun = 0
			}
		}
		return
	}

	lambda := ad.arrivals.Rate()
	meanS := ad.sizes.Mean()
	rhoSys := lambda * meanS / sumS

	// The planning estimate ρ̂: start from the robust busy-time
	// utilization and raise it to the sampled λ̂·Ê[S]/Σŝ when the size
	// estimate is itself trustworthy. Taking the max errs toward
	// over-provisioning — a plan drawn at too high a ρ merely spreads
	// load a little more (Algorithm 1 converges to proportional weights
	// as ρ → 1), while a plan drawn at too low a ρ concentrates work on
	// computers the true load saturates.
	rhoHat := ad.rhoU
	if ad.sizes.RelHalfWidth() <= ad.cfg.MaxRelCI && rhoSys > rhoHat {
		rhoHat = rhoSys
	}
	if growth && rhoHat < ad.lastPlannedRho+0.05 {
		// Queues keep growing although the measured load matches the
		// plan: the busy-time signal saturates below the offered load
		// once a computer is overloaded, so escalate past it.
		rhoHat = ad.lastPlannedRho + 0.05
	}
	ad.st.LambdaHat, ad.st.ServiceMeanHat, ad.st.RhoHat = lambda, meanS, rhoHat
	if ad.lambdaSeries != nil {
		ad.lambdaSeries.Update(now, lambda)
		ad.rhoSeries.Update(now, rhoHat)
	}

	// The sharpest stability signal is per-computer: ρ̂ᵢ = αᵢλ̂Ê[S]/ŝᵢ.
	maxRho := rhoHat
	if ad.fp != nil {
		for i, a := range ad.fp.Fractions() {
			if a > 0 {
				if r := a * lambda * meanS / ad.speedHat[i]; r > maxRho {
					maxRho = r
				}
			}
		}
	}

	if !(maxRho >= ad.cfg.RhoTrip || growth) {
		return
	}
	ad.st.Breaches++
	if now-ad.lastChangeT < ad.cfg.Cooldown {
		ad.st.SuppressedCooldown++
		return
	}
	if !ad.inFallback && !growth && math.Abs(rhoHat-ad.lastPlannedRho) <= ad.cfg.Band {
		ad.st.SuppressedHysteresis++
		return
	}
	if err := ad.rp.Replan(ad.speedHat, rhoHat); err != nil {
		// Infeasible (or otherwise failed) re-solve: proportional
		// weights are always applicable.
		if ferr := ad.rp.ReplanProportional(ad.speedHat); ferr == nil {
			ad.st.Fallbacks++
			ad.inFallback = true
			ad.lastChangeT = now
			ad.growthRun = 0
		}
		return
	}
	ad.st.Replans++
	ad.inFallback = false
	ad.lastPlannedRho = rhoHat
	ad.lastChangeT = now
	ad.growthRun = 0
}

// finish snapshots the run's adaptive statistics.
func (ad *adaptiveRun) finish() *AdaptiveStats {
	st := ad.st
	st.PlannedRho = ad.lastPlannedRho
	st.SpeedHat = make([]float64, len(ad.speedHat))
	copy(st.SpeedHat, ad.speedHat)
	return &st
}
