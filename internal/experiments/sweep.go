package experiments

import (
	"fmt"

	"heterosched/internal/cluster"
	"heterosched/internal/plot"
	"heterosched/internal/report"
)

// SweepResult holds the three paper metrics for every (x, policy) cell of
// a one-dimensional parameter sweep. Figures 3–6 are all sweeps.
type SweepResult struct {
	// Name identifies the figure ("fig3", ...).
	Name string
	// XLabel describes the swept parameter ("fast speed", "computers",
	// "utilization").
	XLabel string
	// Xs are the swept values in presentation order.
	Xs []float64
	// Policies are the policy names in presentation order.
	Policies []string
	// RespTime, RespRatio and Fairness map policy name to one Summary per
	// X value.
	RespTime  map[string][]cluster.Summary
	RespRatio map[string][]cluster.Summary
	Fairness  map[string][]cluster.Summary
	Reps      int
}

// sweep runs every policy at every x value and collects the metrics.
// cfgFor builds the cluster configuration for one x.
func (o Options) sweep(name, xlabel string, xs []float64,
	cfgFor func(x float64) cluster.Config,
	factories []cluster.PolicyFactory,
) (*SweepResult, error) {
	o = o.withDefaults()
	res := &SweepResult{
		Name:      name,
		XLabel:    xlabel,
		Xs:        xs,
		RespTime:  map[string][]cluster.Summary{},
		RespRatio: map[string][]cluster.Summary{},
		Fairness:  map[string][]cluster.Summary{},
		Reps:      o.Reps,
	}
	for _, f := range factories {
		res.Policies = append(res.Policies, f().Name())
	}
	for _, x := range xs {
		cfg := cfgFor(x)
		for i, f := range factories {
			name := res.Policies[i]
			rr, err := o.runPoint(cfg, f)
			if err != nil {
				return nil, fmt.Errorf("%s: %s at %s=%v: %w", res.Name, name, xlabel, x, err)
			}
			res.RespTime[name] = append(res.RespTime[name], rr.MeanResponseTime)
			res.RespRatio[name] = append(res.RespRatio[name], rr.MeanResponseRatio)
			res.Fairness[name] = append(res.Fairness[name], rr.Fairness)
			o.logf("%s: %s=%v policy=%s ratio=%.4g ±%.2g", res.Name, xlabel, x, name,
				rr.MeanResponseRatio.Mean, rr.MeanResponseRatio.CI95)
		}
	}
	return res, nil
}

// metricTable renders one metric of a sweep as a table with one column per
// policy.
func (r *SweepResult) metricTable(title string, metric map[string][]cluster.Summary) *report.Table {
	headers := append([]string{r.XLabel}, r.Policies...)
	t := report.NewTable(title, headers...)
	for i, x := range r.Xs {
		row := []string{report.F(x)}
		for _, p := range r.Policies {
			row = append(row, report.F(metric[p][i].Mean))
		}
		t.AddRow(row...)
	}
	t.AddNote("%d replications per point; 95%% CIs available via the library API", r.Reps)
	return t
}

// Render produces the tables for the sweep: mean response time, mean
// response ratio and fairness.
func (r *SweepResult) Render() []*report.Table {
	return []*report.Table{
		r.metricTable(fmt.Sprintf("%s(a) — mean response time (s)", r.Name), r.RespTime),
		r.metricTable(fmt.Sprintf("%s(b) — mean response ratio", r.Name), r.RespRatio),
		r.metricTable(fmt.Sprintf("%s(c) — fairness (std dev of response ratio)", r.Name), r.Fairness),
	}
}

// metricChart builds one SVG line chart for a metric.
func (r *SweepResult) metricChart(title, ylabel string, metric map[string][]cluster.Summary, logY bool) *plot.Chart {
	c := &plot.Chart{Title: title, XLabel: r.XLabel, YLabel: ylabel, LogY: logY}
	for _, p := range r.Policies {
		ys := make([]float64, len(r.Xs))
		for i := range r.Xs {
			ys[i] = metric[p][i].Mean
		}
		c.Series = append(c.Series, plot.Series{Name: p, X: r.Xs, Y: ys})
	}
	return c
}

// Charts renders the sweep's three metrics as SVG line charts, matching
// the paper's figure panels ((a) response time, (b) response ratio,
// (c) fairness).
func (r *SweepResult) Charts() []*plot.Chart {
	return []*plot.Chart{
		r.metricChart(fmt.Sprintf("%s(a) mean response time", r.Name), "seconds", r.RespTime, false),
		r.metricChart(fmt.Sprintf("%s(b) mean response ratio", r.Name), "mean response ratio", r.RespRatio, false),
		r.metricChart(fmt.Sprintf("%s(c) fairness", r.Name), "std dev of response ratio", r.Fairness, false),
	}
}
