package experiments

import (
	"fmt"

	"heterosched/internal/cluster"
	"heterosched/internal/report"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// The drift study doubles the arrival rate halfway through the run:
// offered load steps from 0.45 to 0.90. A plan drawn at 0.45
// concentrates work on the fastest computer, which the doubled rate
// saturates, so the static variant has no post-step steady state while
// an adaptive re-plan at ~0.9 remains stable. The measurement window
// opens a settle fraction of the run after the step (estimators and
// re-planning need time to catch up; the oracle gets the same grace).
const (
	driftRho    = 0.45 // offered (and planned) utilization before the step
	driftFactor = 2.0  // arrival-rate factor at the step
	driftAt     = 0.5  // step instant, as a fraction of the run
	driftSettle = 0.1  // post-step fraction discarded before measuring
)

// driftCells are the static and the adaptive ORR variant under the
// rate step. The watchdog reacts fast: the cost of a stale plan is the
// backlog piled up while the wrong computer saturates, so it checks
// every 1/400 of the run and re-plans past a 0.85 utilization trip
// after a 1/100 cooldown. The wide estimator window tames the
// heavy-tailed size samples (the size distribution itself does not
// drift here).
func driftCells(o Options) ([]cell, error) {
	dur := o.duration()
	step := fmt.Sprintf("drift=lstep:%g:%g", driftAt*dur, driftFactor)
	static, err := o.layered("static ORR", FaultSpeeds, driftRho, dur, "policy=ORR", step)
	if err != nil {
		return nil, err
	}
	adaptive, err := o.layered("adaptive ORR", FaultSpeeds, driftRho, dur, "policy=ORR", step,
		fmt.Sprintf("replan=%g:0.85:%g", dur/400, dur/100), "estimator=win:2048")
	return []cell{static, adaptive}, err
}

// DriftResult holds the ext-drift comparison on the 1,1,2,10 system:
// static ORR (plan never revisited), adaptive ORR (watchdog re-plans
// from online estimates) and the true-parameter oracle (re-planned with
// ground truth at exactly the step instant).
type DriftResult struct {
	Variants []string
	// PostStepMean[v] is the mean response time (s) of jobs arriving
	// after the settle window, averaged across replications.
	PostStepMean []float64
	// PostStepJobs[v] counts the measured jobs (sum across replications).
	PostStepJobs []int64
	// OverallMean[v] is the whole-run mean response time across reps.
	OverallMean []float64
	// Replans/Fallbacks are the adaptive variant's control-loop actions
	// (sums across replications; zero for the other variants).
	Replans   []int64
	Fallbacks []int64
	Reps      int
}

// driftOracle wraps a static policy and re-plans it with the true
// post-step parameters at exactly the step instant — the upper bound an
// estimator-driven controller is judged against.
type driftOracle struct {
	*sched.Static
	at  float64
	rho float64
}

func (p *driftOracle) Init(ctx *cluster.Context) error {
	if err := p.Static.Init(ctx); err != nil {
		return err
	}
	speeds := ctx.Speeds
	ctx.Engine.Schedule(p.at, func() { _ = p.Static.Replan(speeds, p.rho) })
	return nil
}

// ExtDrift runs the parameter-drift study: the same rate step hits all
// three variants and the post-step response times are compared.
func ExtDrift(o Options) (*DriftResult, error) {
	o = o.withDefaults()
	cells, err := driftCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-drift: %w", err)
	}
	dur := o.duration()
	stepT := driftAt * dur
	measureFrom := stepT + driftSettle*dur

	res := &DriftResult{
		Variants: []string{"static ORR", "adaptive ORR", "oracle re-plan"},
		Reps:     o.Reps,
	}
	for vi, v := range res.Variants {
		// The oracle runs the static cell with its plan re-drawn at
		// the step.
		c := cells[0]
		if vi < len(cells) {
			c = cells[vi]
		}
		base, factory, err := c.Config()
		if err != nil {
			return nil, fmt.Errorf("ext-drift %s: %w", v, err)
		}
		if vi == len(cells) {
			factory = func() cluster.Policy {
				return &driftOracle{Static: sched.ORR(), at: stepT, rho: driftRho * driftFactor}
			}
		}
		var postSum, overallSum float64
		var postJobs, replans, fallbacks int64
		for r := 0; r < o.Reps; r++ {
			cfg := base
			cfg.Seed = o.Seed + uint64(r)
			var sum float64
			var n int64
			cfg.OnFinal = func(j *sim.Job, out cluster.Outcome) {
				if out != cluster.OutcomeCompleted || j.Arrival < measureFrom {
					return
				}
				sum += j.Completion - j.Arrival
				n++
			}
			rr, err := cluster.Run(cfg, factory())
			if err != nil {
				return nil, fmt.Errorf("ext-drift %s rep %d: %w", v, r, err)
			}
			if n > 0 {
				postSum += sum / float64(n)
			}
			postJobs += n
			overallSum += rr.MeanResponseTime
			if rr.Adaptive != nil {
				replans += rr.Adaptive.Replans
				fallbacks += rr.Adaptive.Fallbacks
			}
		}
		res.PostStepMean = append(res.PostStepMean, postSum/float64(o.Reps))
		res.PostStepJobs = append(res.PostStepJobs, postJobs)
		res.OverallMean = append(res.OverallMean, overallSum/float64(o.Reps))
		res.Replans = append(res.Replans, replans)
		res.Fallbacks = append(res.Fallbacks, fallbacks)
		o.logf("ext-drift: %s post-step mean %.4g s (%d jobs), replans %d",
			v, res.PostStepMean[vi], postJobs, replans)
	}
	return res, nil
}

// Render formats the drift study.
func (r *DriftResult) Render() []*report.Table {
	t := report.NewTable("extension — parameter drift: arrival-rate step, ORR variants (speeds 1,1,2,10)",
		"variant", "post-step mean resp (s)", "vs oracle", "whole-run mean (s)", "re-plans", "fallbacks")
	oracle := r.PostStepMean[len(r.PostStepMean)-1]
	for i, v := range r.Variants {
		ratio := "-"
		if oracle > 0 {
			ratio = report.F(r.PostStepMean[i] / oracle)
		}
		t.AddRow(v, report.F(r.PostStepMean[i]), ratio,
			report.F(r.OverallMean[i]),
			fmt.Sprintf("%d", r.Replans[i]), fmt.Sprintf("%d", r.Fallbacks[i]))
	}
	t.AddNote("arrival rate ×%.3g at t = %.2gT: offered load steps %.3g → %.3g while every plan was drawn at %.3g",
		driftFactor, driftAt, driftRho, driftRho*driftFactor, driftRho)
	t.AddNote("measurement window: jobs arriving after t = %.2gT; %d replications",
		driftAt+driftSettle, r.Reps)
	t.AddNote("static ORR saturates the fastest computer after the step; the watchdog re-plan tracks the oracle from online estimates alone")
	return []*report.Table{t}
}
