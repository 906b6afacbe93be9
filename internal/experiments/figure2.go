package experiments

import (
	"fmt"

	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/plot"
	"heterosched/internal/report"
	"heterosched/internal/rng"
	"heterosched/internal/stats"
)

// Figure2Fractions is the workload allocation of the §3.2 dispatching
// study: 8 computers with fractions 0.35, 0.22, 0.15, 0.12, 0.04 ×4.
var Figure2Fractions = []float64{0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04}

// Figure2Config are the paper's measurement parameters.
const (
	// Figure2MeanInterArrival is the mean job inter-arrival time (s).
	Figure2MeanInterArrival = 2.2
	// Figure2IntervalLength is the observation interval length (s).
	Figure2IntervalLength = 120.0
	// Figure2Intervals is the number of consecutive intervals plotted.
	Figure2Intervals = 30
)

// Figure2Result compares the workload allocation deviation of round-robin
// and random dispatching over consecutive intervals (the paper's
// Figure 2). Deviations are averaged across replications per interval.
type Figure2Result struct {
	// IntervalDevRR[i] and IntervalDevRandom[i] are the mean deviations
	// of interval i (0-based) for the two strategies.
	IntervalDevRR     []float64
	IntervalDevRandom []float64
	// MeanRR/MeanRandom/MaxRR/MaxRandom summarize across intervals and
	// replications.
	MeanRR, MeanRandom float64
	MaxRR, MaxRandom   float64
	Reps               int
}

// Figure2 reproduces Figure 2. Dispatching needs no service model: jobs
// arrive in a two-stage hyperexponential stream (mean 2.2 s, CV 3) and are
// split by each strategy; the deviation of realized from expected
// fractions is recorded per 120-second interval.
func Figure2(o Options) (*Figure2Result, error) {
	o = o.withDefaults()
	horizon := Figure2IntervalLength * Figure2Intervals

	res := &Figure2Result{
		IntervalDevRR:     make([]float64, Figure2Intervals),
		IntervalDevRandom: make([]float64, Figure2Intervals),
		Reps:              o.Reps,
	}
	var accRR, accRan stats.Accumulator

	for rep := 0; rep < o.Reps; rep++ {
		root := rng.New(o.Seed + uint64(rep))
		arrStream := root.Derive("fig2/arrivals")
		h2 := dist.FitHyperExp2(Figure2MeanInterArrival, 3.0)

		rr, err := dispatch.NewRoundRobin(Figure2Fractions)
		if err != nil {
			return nil, err
		}
		ran, err := dispatch.NewRandom(Figure2Fractions, root.Derive("fig2/random"))
		if err != nil {
			return nil, err
		}
		trackRR, err := dispatch.NewIntervalDeviation(Figure2Fractions, Figure2IntervalLength)
		if err != nil {
			return nil, err
		}
		trackRan, err := dispatch.NewIntervalDeviation(Figure2Fractions, Figure2IntervalLength)
		if err != nil {
			return nil, err
		}

		// Both strategies see the identical arrival stream (common random
		// numbers), exactly as a paired comparison should.
		for t := h2.Sample(arrStream); t < horizon; t += h2.Sample(arrStream) {
			trackRR.Observe(t, rr.Next())
			trackRan.Observe(t, ran.Next())
		}
		// Close the final window: only interval *ends* trigger closure
		// during observation, so the last one needs an explicit flush.
		trackRR.Flush(horizon)
		trackRan.Flush(horizon)
		devRR := trackRR.Deviations()
		devRan := trackRan.Deviations()
		for i := 0; i < Figure2Intervals; i++ {
			var dRR, dRan float64
			if i < len(devRR) {
				dRR = devRR[i]
			}
			if i < len(devRan) {
				dRan = devRan[i]
			}
			res.IntervalDevRR[i] += dRR / float64(o.Reps)
			res.IntervalDevRandom[i] += dRan / float64(o.Reps)
			accRR.Add(dRR)
			accRan.Add(dRan)
		}
	}
	res.MeanRR = accRR.Mean()
	res.MeanRandom = accRan.Mean()
	res.MaxRR = accRR.Max()
	res.MaxRandom = accRan.Max()
	o.logf("fig2: done (mean dev RR=%.2g random=%.2g)", res.MeanRR, res.MeanRandom)
	return res, nil
}

// Charts renders the Figure 2 panel: per-interval deviation of the two
// strategies, matching the paper's plot.
func (r *Figure2Result) Charts() []*plot.Chart {
	xs := make([]float64, len(r.IntervalDevRR))
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return []*plot.Chart{{
		Title:  "Figure 2 — comparison of job dispatching strategies",
		XLabel: "interval (120 s each)",
		YLabel: "workload allocation deviation",
		Series: []plot.Series{
			{Name: "round-robin", X: xs, Y: append([]float64(nil), r.IntervalDevRR...)},
			{Name: "random", X: xs, Y: append([]float64(nil), r.IntervalDevRandom...)},
		},
	}}
}

// Render formats the per-interval series and the summary.
func (r *Figure2Result) Render() *report.Table {
	t := report.NewTable(
		"Figure 2 — workload allocation deviation per 120 s interval (mean over reps)",
		"interval", "round-robin", "random")
	for i := range r.IntervalDevRR {
		t.AddRow(fmt.Sprintf("%d", i+1), report.F4(r.IntervalDevRR[i]), report.F4(r.IntervalDevRandom[i]))
	}
	t.AddRow("mean", report.F4(r.MeanRR), report.F4(r.MeanRandom))
	t.AddRow("max", report.F4(r.MaxRR), report.F4(r.MaxRandom))
	t.AddNote("H2 arrivals, mean %.1f s, CV 3; %d replications", Figure2MeanInterArrival, r.Reps)
	return t
}
