package experiments

import (
	"fmt"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/queueing"
	"heterosched/internal/report"
	"heterosched/internal/sched"
)

// ValidateResult compares the analytic M/M/1-PS predictions of §2.3
// against simulation under the model's own assumptions (Poisson arrivals;
// PS servers; the size distribution is irrelevant by PS insensitivity).
// Close agreement here certifies both the closed-form mathematics and the
// simulator — it is the reproduction's calibration experiment, not one of
// the paper's figures.
type ValidateResult struct {
	Rows []ValidateRow
	Reps int
}

// ValidateRow is one (policy) cell of the validation table.
type ValidateRow struct {
	Policy    string
	Predicted float64 // analytic mean response ratio
	Simulated float64 // simulated mean response ratio
	CI95      float64
	RelErr    float64 // |sim − pred| / pred
}

// Validate runs the calibration experiment on the Table 3 base
// configuration at 70% utilization. Random-dispatch policies should match
// the analytic prediction almost exactly (Poisson splitting of a Poisson
// stream is Poisson); round-robin dispatch produces smoother-than-Poisson
// substreams and therefore simulates slightly *below* the prediction.
func Validate(o Options) (*ValidateResult, error) {
	o = o.withDefaults()
	speeds := BaseSpeeds()
	const rho = 0.70
	meanSize := dist.PaperJobSize().Mean()
	sys, err := queueing.SystemFromUtilization(speeds, meanSize, rho)
	if err != nil {
		return nil, err
	}

	cases := []struct {
		factory   cluster.PolicyFactory
		allocator alloc.Allocator
		exact     bool // true when the M/M/1 analysis is exact for it
	}{
		{func() cluster.Policy { return sched.WRAN() }, alloc.Proportional{}, true},
		{func() cluster.Policy { return sched.ORAN() }, alloc.Optimized{}, true},
		{func() cluster.Policy { return sched.WRR() }, alloc.Proportional{}, false},
		{func() cluster.Policy { return sched.ORR() }, alloc.Optimized{}, false},
	}

	res := &ValidateResult{Reps: o.Reps}
	for _, c := range cases {
		fractions, err := c.allocator.Allocate(speeds, rho)
		if err != nil {
			return nil, err
		}
		predicted, err := sys.MeanResponseRatio(fractions)
		if err != nil {
			return nil, err
		}
		cfg := cluster.Config{
			Speeds:      speeds,
			Utilization: rho,
			ArrivalCV:   1,
		}
		rr, err := o.runPoint(cfg, c.factory)
		if err != nil {
			return nil, err
		}
		sim := rr.MeanResponseRatio.Mean
		row := ValidateRow{
			Policy:    rr.Policy,
			Predicted: predicted,
			Simulated: sim,
			CI95:      rr.MeanResponseRatio.CI95,
			RelErr:    abs(sim-predicted) / predicted,
		}
		res.Rows = append(res.Rows, row)
		o.logf("validate: %s predicted=%.4f simulated=%.4f (%.2f%% off)",
			row.Policy, predicted, sim, 100*row.RelErr)
		// Sanity inside the experiment: random dispatch must track theory.
		if c.exact && row.RelErr > 0.10 {
			return nil, fmt.Errorf("experiments: %s deviates %.1f%% from the exact analytic value — simulator or formula broken",
				row.Policy, 100*row.RelErr)
		}
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render formats the calibration table.
func (r *ValidateResult) Render() *report.Table {
	t := report.NewTable(
		"calibration — analytic M/M/1-PS predictions vs simulation (Poisson arrivals, base config, rho=0.70)",
		"policy", "predicted R", "simulated R", "±95% CI", "rel err %")
	for _, row := range r.Rows {
		t.AddRow(row.Policy, report.F4(row.Predicted), report.F4(row.Simulated),
			report.F4(row.CI95), report.F2(100*row.RelErr))
	}
	t.AddNote("random dispatch (WRAN/ORAN) should match theory exactly; round-robin dispatch (WRR/ORR) runs slightly below (smoother-than-Poisson substreams)")
	t.AddNote("%d replications", r.Reps)
	return t
}
