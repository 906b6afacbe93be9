package experiments

import (
	"fmt"

	"heterosched/internal/cluster"
	"heterosched/internal/report"
)

// OverloadRhos are the offered utilizations of the overload study: one
// comfortable point, the saturation boundary, and two genuinely
// overloaded points where the unprotected system has no steady state.
var OverloadRhos = []float64{0.8, 1.0, 1.2, 1.5}

// overloadLayers is the protected half's scenario: queue cap 40
// shedding oldest, reject-when-full admission, exponential deadlines
// with mean 1200 s killed on expiry (generous at rho 0.8, binding once
// bounded queues push slow-computer response times past it), retry
// budget 2 with 1–60 s exponential backoff.
const overloadLayers = "qcap=40:oldest;admit=reject-when-full;deadline=exp:1200:kill;retry=2;backoff=1:60"

// overloadPolicies are the protected grid's columns, the paper's Table 2
// policies.
var overloadPolicies = []string{"WRAN", "ORAN", "WRR", "ORR"}

// overloadCells are the protected grid's cells, rho-major: every
// policy under overloadLayers at every load of OverloadRhos.
func overloadCells(o Options) ([]cell, error) {
	var cells []cell
	for _, rho := range OverloadRhos {
		for _, p := range overloadPolicies {
			c, err := o.layered(fmt.Sprintf("%s rho=%g", p, rho), FaultSpeeds, rho, o.duration(), overloadLayers, "policy="+p)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// OverloadResult holds the two halves of the overload study on the
// 1,1,2,10 system: the unprotected in-system trajectory (ORR, no
// protection, no drain) showing divergence past rho = 1, and the
// protected grid of goodput/drop/deadline accounting for the paper's
// four static policies.
type OverloadResult struct {
	Rhos     []float64
	Series   [][]int64 // Series[r] = in-system samples, unprotected ORR at Rhos[r]
	Policies []string
	// Grid metrics indexed [rho][policy], counters summed across
	// replications.
	Admitted [][]int64
	Goodput  [][]int64
	Dropped  [][]int64
	Misses   [][]int64
	P99      [][]float64 // response-time p99 (s), replication 0
	// Protection is the protected grid's overload layer.
	Protection *cluster.OverloadConfig
	Reps       int
}

// ExtOverload runs the overload study.
func ExtOverload(o Options) (*OverloadResult, error) {
	o = o.withDefaults()
	cells, err := overloadCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-overload: %w", err)
	}
	res := &OverloadResult{
		Rhos:     OverloadRhos,
		Policies: overloadPolicies,
		Reps:     o.Reps,
	}

	// Part A: no protection, no drain. The run cannot finish the backlog
	// at rho > 1, so sample the in-system job count at eight equispaced
	// instants instead of waiting for departures that never come.
	for _, rho := range OverloadRhos {
		noDrain := false
		cfg := cluster.Config{
			Speeds:         FaultSpeeds,
			Utilization:    rho,
			SampleInterval: o.duration() / 8,
			Drain:          &noDrain,
		}
		rr, err := o.runPoint(cfg, staticPolicies()[3]) // ORR
		if err != nil {
			return nil, fmt.Errorf("ext-overload unprotected rho=%g: %w", rho, err)
		}
		series := rr.Runs[0].InSystemSeries
		res.Series = append(res.Series, series)
		o.logf("ext-overload: unprotected rho=%g in-system %v", rho, series)
	}

	// Part B: full protection, same grid as the paper's Table 2 policies.
	for i, rho := range OverloadRhos {
		var adm, good, drop, miss []int64
		var p99 []float64
		for pi := range res.Policies {
			c := cells[i*len(res.Policies)+pi]
			rr, err := o.runCell(c)
			if err != nil {
				return nil, fmt.Errorf("ext-overload %s: %w", c.label, err)
			}
			var ov cluster.OverloadStats
			for _, run := range rr.Runs {
				ov.AddCounters(run.Overload)
			}
			adm = append(adm, ov.Admitted)
			good = append(good, ov.Goodput)
			drop = append(drop, ov.Dropped())
			miss = append(miss, ov.DeadlineMisses)
			p99 = append(p99, rr.Runs[0].Overload.TimeP99)
			o.logf("ext-overload: %s rho=%g goodput=%d dropped=%d misses=%d",
				res.Policies[pi], rho, ov.Goodput, ov.Dropped(), ov.DeadlineMisses)
		}
		res.Admitted = append(res.Admitted, adm)
		res.Goodput = append(res.Goodput, good)
		res.Dropped = append(res.Dropped, drop)
		res.Misses = append(res.Misses, miss)
		res.P99 = append(res.P99, p99)
	}
	cfg, _, err := cells[0].Config()
	if err != nil {
		return nil, fmt.Errorf("ext-overload: %w", err)
	}
	res.Protection = cfg.Overload
	return res, nil
}

// Render formats the overload study.
func (r *OverloadResult) Render() []*report.Table {
	headers := []string{"rho"}
	n := 0
	for _, s := range r.Series {
		if len(s) > n {
			n = len(s)
		}
	}
	for k := 1; k <= n; k++ {
		headers = append(headers, fmt.Sprintf("t=%d/%dT", k, n))
	}
	unprot := report.NewTable(
		"extension — unprotected in-system job count (ORR, speeds 1,1,2,10, no drain)", headers...)
	for i, rho := range r.Rhos {
		row := []string{report.F(rho)}
		for _, v := range r.Series[i] {
			row = append(row, fmt.Sprintf("%d", v))
		}
		unprot.AddRow(row...)
	}
	unprot.AddNote("past rho = 1 the count grows without bound: the raw system has no steady state")

	grid := func(title string, vals [][]int64) *report.Table {
		t := report.NewTable(title, append([]string{"rho"}, r.Policies...)...)
		for i, rho := range r.Rhos {
			row := []string{report.F(rho)}
			for _, v := range vals[i] {
				row = append(row, fmt.Sprintf("%d", v))
			}
			t.AddRow(row...)
		}
		return t
	}
	good := grid("goodput: jobs completed within deadline (sum across replications)", r.Goodput)
	pr := r.Protection
	good.AddNote("protection: queue cap %d (shed oldest), reject-when-full admission, exp deadlines mean %.4g s (kill), retry budget %d, backoff %.3g–%.3g s",
		pr.QueueCap, pr.Deadline.Mean(), pr.RetryBudget, pr.BackoffBase, pr.BackoffMax)
	good.AddNote("%d replications; admitted jobs per cell: see drop table (admitted = goodput + late + dropped)", r.Reps)
	drops := grid("jobs dropped: overflow sheds + retry-budget exhaustion + deadline kills", r.Dropped)
	miss := grid("deadline misses (killed + completed late)", r.Misses)

	p99 := report.NewTable("response-time p99 (s, replication 0)", append([]string{"rho"}, r.Policies...)...)
	for i, rho := range r.Rhos {
		row := []string{report.F(rho)}
		for _, v := range r.P99[i] {
			row = append(row, report.F(v))
		}
		p99.AddRow(row...)
	}
	p99.AddNote("bounded queues keep tail response finite even at rho = 1.5; the cost shows up as drops, not latency")

	return []*report.Table{unprot, good, drops, miss, p99}
}
