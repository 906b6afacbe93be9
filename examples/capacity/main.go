// Capacity planning with the analytic model: how much load can a
// heterogeneous cluster accept while meeting a mean-response-ratio SLA,
// under simple weighted vs optimized workload allocation?
//
// For each allocation scheme the example bisects on the utilization ρ to
// find the largest load whose predicted mean response ratio stays within
// the SLA, then cross-checks the frontier point by simulation.
//
// Run with:
//
//	go run ./examples/capacity
package main

import (
	"fmt"
	"log"
	"os"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/numeric"
	"heterosched/internal/queueing"
	"heterosched/internal/report"
	"heterosched/internal/sched"
)

const (
	slaRatio    = 3.0  // mean response ratio budget
	meanJobSize = 76.8 // seconds (paper default workload)
)

func main() {
	speeds := []float64{1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 2, 2, 2, 5, 10, 12}

	table := report.NewTable(
		fmt.Sprintf("max sustainable utilization for mean response ratio <= %.1f", slaRatio),
		"allocation", "max rho", "jobs/s", "headroom vs weighted")
	var rhoWeighted float64
	for _, a := range []alloc.Allocator{alloc.Proportional{}, alloc.Optimized{}} {
		rhoMax := maxLoad(speeds, a)
		sys, err := queueing.SystemFromUtilization(speeds, meanJobSize, rhoMax)
		if err != nil {
			log.Fatal(err)
		}
		headroom := "-"
		if rhoWeighted == 0 {
			rhoWeighted = rhoMax
		} else {
			headroom = report.Pct(rhoMax/rhoWeighted-1) + "%"
		}
		table.AddRow(name(a), report.F4(rhoMax), report.F(sys.Lambda), headroom)
	}
	must(table.WriteTo(os.Stdout))
	fmt.Println()

	// Cross-check: simulate ORR at the optimized frontier with Poisson
	// arrivals (the analytic model's assumption) and the bursty CV=3
	// workload, to show how much slack a planner should keep for
	// burstiness.
	rhoMax := maxLoad(speeds, alloc.Optimized{})
	check := report.NewTable("simulated mean response ratio at the optimized frontier",
		"arrival process", "mean resp ratio", "within SLA?")
	for _, cv := range []float64{1, 3} {
		cfg := cluster.Config{
			Speeds:      speeds,
			Utilization: rhoMax,
			JobSize:     dist.PaperJobSize(),
			ArrivalCV:   cv,
			Duration:    4e5,
			Seed:        21,
		}
		res, err := cluster.RunReplications(cfg, func() cluster.Policy { return sched.ORR() }, 3)
		if err != nil {
			log.Fatal(err)
		}
		label := "H2, CV=3 (bursty)"
		if cv == 1 {
			label = "Poisson (model)"
		}
		within := "no"
		if res.MeanResponseRatio.Mean <= slaRatio*1.05 {
			within = "yes"
		}
		check.AddRow(label, report.F(res.MeanResponseRatio.Mean), within)
	}
	check.AddNote("the M/M/1 frontier is exact under Poisson arrivals; bursty traffic needs slack")
	must(check.WriteTo(os.Stdout))
}

// maxLoad bisects on ρ for the largest load meeting the SLA under the
// given allocation scheme.
func maxLoad(speeds []float64, a alloc.Allocator) float64 {
	excess := func(rho float64) float64 {
		fr, err := a.Allocate(speeds, rho)
		if err != nil {
			return 1 // infeasible counts as over-SLA
		}
		sys, err := queueing.SystemFromUtilization(speeds, meanJobSize, rho)
		if err != nil {
			return 1
		}
		ratio, err := sys.MeanResponseRatio(fr)
		if err != nil {
			return 1
		}
		return ratio - slaRatio
	}
	rho, err := numeric.Bisect(excess, 0.01, 0.999, 1e-9, 200)
	if err != nil {
		log.Fatal(err)
	}
	return rho
}

func name(a alloc.Allocator) string {
	if _, ok := a.(alloc.Proportional); ok {
		return "weighted"
	}
	return "optimized"
}

func must(_ int64, err error) {
	if err != nil {
		log.Fatal(err)
	}
}
