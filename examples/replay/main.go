// Replay: record a job trace from one simulation, then re-run the exact
// same workload under different scheduling policies — the apples-to-apples
// comparison that synthetic re-sampling cannot give.
//
// The example records a WRAN run on a heterogeneous cluster, replays the
// identical arrival sequence under ORR and Dynamic Least-Load, and prints
// the per-policy metrics plus a per-computer traffic breakdown from the
// trace itself.
//
// Run with:
//
//	go run ./examples/replay
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"heterosched/internal/cluster"
	"heterosched/internal/report"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
	"heterosched/internal/trace"
)

func main() {
	speeds := []float64{1, 1, 1, 1, 10, 10}
	const rho = 0.7

	// Step 1 — record a trace from a WRAN run (the paper's baseline).
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	recordCfg := cluster.Config{
		Speeds:         speeds,
		Utilization:    rho,
		Duration:       100000,
		WarmupFraction: -1, // trace everything so the replay is complete
		Seed:           42,
		OnFinal: func(j *sim.Job, o cluster.Outcome) {
			if o.Completed() {
				_ = w.Record(j)
			}
		},
	}
	base, err := cluster.Run(recordCfg, sched.WRAN())
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...) // reading the buffer consumes it
	records, err := trace.NewReader(&buf).ReadAll()
	if err != nil {
		log.Fatal(err)
	}
	trace.SortByArrival(records)
	fmt.Printf("recorded %d jobs from a WRAN run (mean response ratio %.3f)\n\n",
		len(records), base.MeanResponseRatio)

	// Step 2 — replay the identical workload under each policy.
	table := report.NewTable("identical workload, different policies",
		"policy", "mean resp time (s)", "mean resp ratio", "fairness")
	table.AddRow("WRAN (recorded)", report.F(base.MeanResponseTime),
		report.F(base.MeanResponseRatio), report.F(base.Fairness))
	for _, factory := range []cluster.PolicyFactory{
		func() cluster.Policy { return sched.ORR() },
		func() cluster.Policy { return sched.NewLeastLoad() },
	} {
		replayCfg := cluster.Config{
			Speeds:         speeds,
			Utilization:    rho,
			Duration:       recordCfg.Duration,
			WarmupFraction: -1,
			Seed:           42,
			Replay:         trace.Replay(records),
		}
		res, err := cluster.Run(replayCfg, factory())
		if err != nil {
			log.Fatal(err)
		}
		table.AddRow(res.Policy, report.F(res.MeanResponseTime),
			report.F(res.MeanResponseRatio), report.F(res.Fairness))
	}
	table.AddNote("every row processes the same %d arrivals with the same sizes", len(records))
	if _, err := table.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Step 3 — offline analysis of the recorded trace.
	sum, err := trace.Summarize(trace.NewReader(bytes.NewReader(raw)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	per := report.NewTable("per-computer traffic in the recorded WRAN run",
		"computer", "speed", "jobs")
	for i := range speeds {
		per.AddRow(fmt.Sprint(i+1), report.F(speeds[i]), fmt.Sprint(sum.PerTarget[i]))
	}
	if _, err := per.WriteTo(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
