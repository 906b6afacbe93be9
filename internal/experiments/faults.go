package experiments

import (
	"fmt"

	"heterosched/internal/chaos"
	"heterosched/internal/cluster"
	"heterosched/internal/report"
)

// FaultSpeeds is the failure-study system: three slow computers and one
// dominant fast one. At light load Algorithm 1 parks the entire workload
// on the fast computer, which makes its failure the worst case for an
// oblivious static allocation — exactly the regime where degraded-mode
// reallocation should pay.
var FaultSpeeds = []float64{1, 1, 2, 10}

// faultLayers is the failure study's fault model: each computer up
// ~20 000 s between failures and down ~2 000 s per repair (availability
// ≈ 0.91), interrupted jobs requeued to the dispatcher, failures
// detected after 10 s. The study runs it at 20% load.
const faultLayers = "mtbf=2e4;mttr=2e3;fate=requeue;detect=10"

// faultCells are the failure study's rows: the paper's four static
// policies, each with stale and resolve reallocation, then ORRa.
func faultCells(o Options) ([]cell, error) {
	type row struct{ label, policy, realloc string }
	var rows []row
	for _, p := range []string{"WRAN", "ORAN", "WRR", "ORR"} {
		for _, mode := range []string{"stale", "resolve"} {
			rows = append(rows, row{fmt.Sprintf("%s (%s)", p, mode), p, mode})
		}
	}
	rows = append(rows, row{"ORRa (resolve)", "ORRA", "resolve"})
	cells := make([]cell, len(rows))
	for i, r := range rows {
		var err error
		cells[i], err = o.layered(r.label, FaultSpeeds, 0.2, o.duration(), faultLayers, "policy="+r.policy, "realloc="+r.realloc)
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// FaultsResult compares the paper's four static policies under computer
// failures, each with stale (keep fractions) and resolve (re-run
// Algorithm 1 over survivors) reallocation, plus the availability-aware
// ORRa planning against effective speeds s·MTBF/(MTBF+MTTR).
type FaultsResult struct {
	Labels     []string
	Times      []cluster.Summary // mean response time (s)
	Ratios     []cluster.Summary // mean response ratio
	Lost       []cluster.Summary // jobs lost per replication
	DegradedRT []cluster.Summary // mean response time, degraded windows
	Avail      []float64         // observed system mean availability
	Scenario   chaos.Spec        // the first row's cell: load and fault model
	Reps       int
}

// ExtFaults runs the failure study.
func ExtFaults(o Options) (*FaultsResult, error) {
	o = o.withDefaults()
	cells, err := faultCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-faults: %w", err)
	}
	res := &FaultsResult{Scenario: cells[0].Spec, Reps: o.Reps}
	for _, c := range cells {
		rr, err := o.runCell(c)
		if err != nil {
			return nil, fmt.Errorf("ext-faults %s: %w", c.label, err)
		}
		sysAvail := 0.0
		for _, a := range rr.Availability {
			sysAvail += a / float64(len(rr.Availability))
		}
		res.Labels = append(res.Labels, c.label)
		res.Times = append(res.Times, rr.MeanResponseTime)
		res.Ratios = append(res.Ratios, rr.MeanResponseRatio)
		res.Lost = append(res.Lost, rr.JobsLost)
		res.DegradedRT = append(res.DegradedRT, rr.MeanResponseTimeDegraded)
		res.Avail = append(res.Avail, sysAvail)
		o.logf("ext-faults: %s time=%.4g degraded=%.4g lost=%.3g",
			c.label, rr.MeanResponseTime.Mean, rr.MeanResponseTimeDegraded.Mean, rr.JobsLost.Mean)
	}
	return res, nil
}

// Render formats the failure study.
func (r *FaultsResult) Render() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("extension — static policies under failures (speeds 1,1,2,10; rho=%.2g; MTBF %.3g s, MTTR %.3g s; fate %s)",
			r.Scenario.Rho, r.Scenario.MTBF, r.Scenario.MTTR, r.Scenario.Fate),
		"policy", "mean resp time (s)", "±95% CI", "degraded-window resp time (s)", "jobs lost/rep", "availability %")
	for i, l := range r.Labels {
		t.AddRow(l,
			report.F(r.Times[i].Mean), report.F(r.Times[i].CI95),
			report.F(r.DegradedRT[i].Mean),
			report.F(r.Lost[i].Mean),
			report.Pct(r.Avail[i]))
	}
	t.AddNote("stale keeps the pre-failure fractions (renormalized over survivors); resolve re-runs the allocator on every detected change")
	t.AddNote("at this load Algorithm 1 parks all work on the speed-10 computer, so its failures are the stress case")
	t.AddNote("ORRa plans against effective speeds s·MTBF/(MTBF+MTTR)")
	t.AddNote("%d replications", r.Reps)
	return t
}
