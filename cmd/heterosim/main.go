// Command heterosim runs one job-scheduling simulation and reports the
// paper's metrics.
//
// Usage:
//
//	heterosim -speeds 1,1,1,1,10,10 -rho 0.7 -policy ORR -duration 4e5 -reps 5
//
// Policies: WRAN, ORAN, WRR, ORR, LL (Dynamic Least-Load), LL* (instant
// updates), JSQ2, ORRA (availability-aware; needs -mtbf), ORRCAPx,
// ORR+e / ORR-e (load estimation error e%, e.g. ORR-10).
//
// Failure injection: set -mtbf and -mttr (exponential means) to make
// computers fail and recover; -fate selects what happens to interrupted
// jobs, -realloc whether static policies re-solve their allocation over
// the survivors.
//
// Overload protection: -qcap bounds each computer's queue, -admit picks
// an admission policy, -deadline attaches per-job deadlines, and
// -timeout/-retry/-backoff/-breaker give the dispatcher timeouts with
// exponential backoff and per-computer circuit breakers. With any of
// these set, the run reports goodput vs. throughput and the drop
// breakdown; rho may exceed 1 to study saturation.
//
// Parameter drift and adaptation: -drift perturbs the ground truth
// mid-run (arrival-rate steps/ramps/cycles, per-computer speed steps,
// one-shot misestimation of the planner inputs) while -replan arms a
// stability watchdog that re-solves the static allocation from online
// estimates of lambda and the service rates; -estimator selects the
// estimator (sliding window or EWMA). With all three empty, runs are
// bit-identical to builds without this layer.
//
// Network faults: -netfault makes the dispatcher→computer control plane
// unreliable (per-link latency/loss/duplication, dispatcher
// crash/restart, partition windows); -ackto arms the ack/resubmission
// reliability loop and -dstate picks how a restarted dispatcher
// recovers its Algorithm 2 state. With all three empty, runs are
// bit-identical to builds without this layer.
//
// Observability: -probe turns on the metrics registry (per-computer
// queue length, utilization, up/down, breaker state, in-system count,
// interarrival statistics), -sample-dt adds fixed-cadence samples,
// -events streams per-job lifecycle events to a file (JSONL, or CSV
// with a .csv suffix), -manifest writes a per-run provenance record,
// and -debug-addr serves expvar and pprof over HTTP. Instrumentation
// runs in a dedicated replication-0 pass (shared with -trace); the
// replicated runs stay probe-free, so the reported metrics are
// bit-identical with and without these flags.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dist"
	"heterosched/internal/probe"
	"heterosched/internal/report"
	"heterosched/internal/sim"
	"heterosched/internal/trace"
)

func main() {
	speedsFlag := flag.String("speeds", "1,1,1,1,10,10", "comma-separated relative computer speeds")
	rho := flag.Float64("rho", 0.7, "offered utilization; >= 1 simulates overload")
	policyFlag := flag.String("policy", "ORR", "policy: WRAN, ORAN, WRR, ORR, LL, LL*, JSQ2, ORRA, ORRCAPx, ORR±e, jsq(d), pod(d)[:speed|alpha], jiq")
	scale := flag.Int("scale", 0, "tile -speeds cyclically out to this many computers (0 = use -speeds as given)")
	duration := flag.Float64("duration", 4e5, "simulated seconds per replication (paper: 4e6)")
	reps := flag.Int("reps", 3, "independent replications (paper: 10)")
	seed := flag.Uint64("seed", 1, "root random seed")
	cv := flag.Float64("cv", 3.0, "arrival inter-arrival coefficient of variation (1 = Poisson)")
	expSizes := flag.Bool("expsizes", false, "use exponential job sizes instead of Bounded Pareto")
	meanSize := flag.Float64("meansize", 76.8, "mean job size when -expsizes is set")
	quantum := flag.Float64("quantum", 0, "if > 0, use quantum round-robin servers instead of PS")
	traceFile := flag.String("trace", "", "write a per-job CSV trace of replication 0 to this file")
	probeFlag := flag.Bool("probe", false, "instrument replication 0 with the metrics registry and report probe tables")
	spans := flag.String("spans", "", "write rep-0 per-job span trees as Chrome trace-event JSON to this file (Perfetto-viewable)")
	events := flag.String("events", "", "write the rep-0 lifecycle event stream to this file (JSONL; .csv selects CSV)")
	manifestPath := flag.String("manifest", "", "write a run manifest (config, seed, git, wall/sim time, final metrics) to this JSON file")
	sampleDT := flag.Float64("sample-dt", 0, "also sample probe series every this many simulated seconds (0 = event boundaries only; implies -probe)")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	// The layer flags (-dispatchers, -mtbf, -qcap, -drift, -netfault,
	// -ctrl and the rest) are declared once, in internal/cli.
	var lf cli.LayerFlags
	lf.Register(flag.CommandLine)
	flag.Parse()
	start := time.Now()

	speeds, err := cli.ParseSpeeds(*speedsFlag)
	if err != nil {
		fatal(err)
	}
	if speeds, err = cli.ScaleSpeeds(speeds, *scale); err != nil {
		fatal(err)
	}
	params := cli.RunParams{Rho: *rho, Duration: *duration, Reps: *reps, CV: *cv, Quantum: *quantum, MeanSize: *meanSize}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	pp := cli.ProbeParams{
		Probe: *probeFlag, Events: *events, Manifest: *manifestPath,
		SampleDT: *sampleDT, DebugAddr: *debugAddr, Spans: *spans,
	}
	if err := pp.Validate(); err != nil {
		fatal(err)
	}
	if pp.DebugAddr != "" {
		addr, _, errc, err := probe.ServeDebug(pp.DebugAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if serr := <-errc; serr != nil {
				fmt.Fprintln(os.Stderr, "heterosim: debug server:", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", addr)
	}
	layers, err := lf.Build(len(speeds))
	if err != nil {
		fatal(err)
	}
	factory, err := cli.ParsePolicy(*policyFlag, layers.Policy)
	if err != nil {
		fatal(err)
	}

	cfg := cluster.Config{
		Speeds:      speeds,
		Utilization: *rho,
		Duration:    *duration,
		Seed:        *seed,
		ArrivalCV:   *cv,
	}
	layers.Apply(&cfg)
	if *expSizes {
		cfg.JobSize = dist.NewExponential(*meanSize)
	}
	if *quantum > 0 {
		cfg.Discipline = cluster.RR
		cfg.Quantum = *quantum
	}

	// Trace and probe replication 0 in a dedicated pass so the replicated
	// runs below stay parallel and instrumentation-free.
	instrumented := pp.Active() || *traceFile != ""
	var pb *probe.Probe
	var tres *cluster.Result
	if instrumented {
		var cleanup func() error
		pb, cleanup, err = pp.Build()
		if err != nil {
			fatal(err)
		}
		tcfg := cfg
		tcfg.Probe = pb
		var tw *trace.Writer
		var tf *os.File
		if *traceFile != "" {
			if tf, err = os.Create(*traceFile); err != nil {
				fatal(err)
			}
			tw = trace.NewWriter(tf)
			if pb.SpansOn() {
				// The span layer closes a job's span before OnFinal fires,
				// so LastFinal serves this callback the decomposition.
				tcfg.OnFinal = func(j *sim.Job, o cluster.Outcome) {
					if c, ok := pb.LastFinal(j.ID); ok {
						_ = tw.RecordFinalComponents(j, o, c.Queue, c.Service, c.Net, c.Retry)
						return
					}
					_ = tw.RecordFinal(j, o)
				}
			} else {
				tcfg.OnFinal = func(j *sim.Job, o cluster.Outcome) { _ = tw.RecordFinal(j, o) }
			}
		}
		if pb != nil {
			probe.PublishLive(pb)
		}
		if tres, err = cluster.Run(tcfg, factory()); err != nil {
			fatal(err)
		}
		if err := cleanup(); err != nil {
			fatal(err)
		}
		if tw != nil {
			if err := tw.Flush(); err != nil {
				fatal(err)
			}
			if err := tf.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace written to %s\n", *traceFile)
		}
		if pp.Events != "" {
			fmt.Fprintf(os.Stderr, "events written to %s\n", pp.Events)
		}
		if pp.Spans != "" {
			fmt.Fprintf(os.Stderr, "spans written to %s\n", pp.Spans)
		}
	}

	res, err := cluster.RunReplications(cfg, factory, *reps)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("policy %s on %d computers at rho=%.4g (%d reps × %.4g s)\n\n",
		res.Policy, len(speeds), *rho, *reps, *duration)
	t := report.NewTable("metrics (mean ±95% CI across replications)", "metric", "value")
	t.AddRow("mean response time (s)", report.MeanCI(res.MeanResponseTime.Mean, res.MeanResponseTime.CI95))
	t.AddRow("mean response ratio", report.MeanCI(res.MeanResponseRatio.Mean, res.MeanResponseRatio.CI95))
	t.AddRow("fairness (sd of ratio)", report.MeanCI(res.Fairness.Mean, res.Fairness.CI95))
	r0 := res.Runs[0]
	t.AddRow("resp ratio p50/p95/p99 (rep 0)",
		fmt.Sprintf("%s / %s / %s", report.F(r0.RatioP50), report.F(r0.RatioP95), report.F(r0.RatioP99)))
	if _, err := t.WriteTo(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()

	pt := report.NewTable("per-computer", "computer", "speed", "job share %", "utilization %", "availability %")
	for i := range speeds {
		availCell := "-"
		if res.Availability != nil {
			availCell = report.Pct(res.Availability[i])
		}
		pt.AddRow(strconv.Itoa(i+1), report.F(speeds[i]),
			report.Pct(res.JobFractions[i]), report.Pct(res.Utilizations[i]), availCell)
	}
	if _, err := pt.WriteTo(os.Stdout); err != nil {
		fatal(err)
	}

	if res.Availability != nil {
		fmt.Println()
		ft := report.NewTable("failure model (sums/means across replications)", "metric", "value")
		var failures, lost, requeued, restarted, resumed, degJobs int64
		var degTime float64
		for _, run := range res.Runs {
			failures += run.Failures
			lost += run.JobsLost
			requeued += run.JobsRequeued
			restarted += run.JobsRestarted
			resumed += run.JobsResumed
			degJobs += run.DegradedJobs
			degTime += run.DegradedTime / float64(len(res.Runs))
		}
		ft.AddRow("failures", strconv.FormatInt(failures, 10))
		ft.AddRow("jobs lost", report.MeanCI(res.JobsLost.Mean, res.JobsLost.CI95))
		ft.AddRow("jobs requeued", strconv.FormatInt(requeued, 10))
		ft.AddRow("jobs restarted / resumed", fmt.Sprintf("%d / %d", restarted, resumed))
		ft.AddRow("degraded time (s, mean)", report.F(degTime))
		ft.AddRow("degraded jobs", strconv.FormatInt(degJobs, 10))
		ft.AddRow("mean resp time degraded (s)", report.MeanCI(res.MeanResponseTimeDegraded.Mean, res.MeanResponseTimeDegraded.CI95))
		if _, err := ft.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if r0.Overload != nil {
		fmt.Println()
		var ov cluster.OverloadStats
		for _, run := range res.Runs {
			ov.AddCounters(run.Overload)
		}
		ot := report.NewTable("overload protection (sums across replications)", "metric", "value")
		ot.AddRow("admitted / rejected (admission)", fmt.Sprintf("%d / %d", ov.Admitted, ov.RejectedAdmission))
		ot.AddRow("rejected full / breaker", fmt.Sprintf("%d / %d", ov.RejectedFull, ov.RejectedBreaker))
		ot.AddRow("throughput / goodput", fmt.Sprintf("%d / %d", ov.Throughput, ov.Goodput))
		ot.AddRow("shed (queue overflow)", strconv.FormatInt(ov.ShedOverflow, 10))
		ot.AddRow("timeouts / retries / dropped (budget)",
			fmt.Sprintf("%d / %d / %d", ov.Timeouts, ov.Retries, ov.DroppedRetryBudget))
		ot.AddRow("deadline misses (killed / late)",
			fmt.Sprintf("%d (%d / %d)", ov.DeadlineMisses, ov.KilledByDeadline, ov.LateCompletions))
		ot.AddRow("breaker trips / probes", fmt.Sprintf("%d / %d", ov.BreakerTrips, ov.BreakerProbes))
		ot.AddRow("resp time p50/p95/p99 (s, rep 0)", fmt.Sprintf("%s / %s / %s",
			report.F(r0.Overload.TimeP50), report.F(r0.Overload.TimeP95), report.F(r0.Overload.TimeP99)))
		if _, err := ot.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if r0.Adaptive != nil {
		fmt.Println()
		var replans, fallbacks, breaches, supCool, supHyst, lowConf int64
		for _, run := range res.Runs {
			if run.Adaptive == nil {
				continue
			}
			replans += run.Adaptive.Replans
			fallbacks += run.Adaptive.Fallbacks
			breaches += run.Adaptive.Breaches
			supCool += run.Adaptive.SuppressedCooldown
			supHyst += run.Adaptive.SuppressedHysteresis
			lowConf += run.Adaptive.LowConfidence
		}
		at := report.NewTable("adaptive re-planning (sums across replications)", "metric", "value")
		at.AddRow("watchdog checks (rep 0)", strconv.FormatInt(r0.Adaptive.Checks, 10))
		at.AddRow("breaches / re-plans / fallbacks", fmt.Sprintf("%d / %d / %d", breaches, replans, fallbacks))
		at.AddRow("suppressed (cooldown / hysteresis)", fmt.Sprintf("%d / %d", supCool, supHyst))
		at.AddRow("low-confidence checks", strconv.FormatInt(lowConf, 10))
		at.AddRow("final lambda-hat (rep 0)", report.F(r0.Adaptive.LambdaHat))
		at.AddRow("final rho-hat / planned rho (rep 0)",
			fmt.Sprintf("%s / %s", report.F(r0.Adaptive.RhoHat), report.F(r0.Adaptive.PlannedRho)))
		if _, err := at.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if r0.Netfault != nil {
		fmt.Println()
		var nf cluster.NetfaultStats
		for _, run := range res.Runs {
			nf.AddCounters(run.Netfault)
		}
		nt := report.NewTable("network faults (sums across replications)", "metric", "value")
		nt.AddRow("dispatches sent", strconv.FormatInt(nf.Sent, 10))
		nt.AddRow("copies lost / duplicated", fmt.Sprintf("%d / %d", nf.LostCopies, nf.DupCopies))
		nt.AddRow("partition-blocked sends", strconv.FormatInt(nf.PartitionBlocked, 10))
		nt.AddRow("dup / stale deliveries (deduped)", fmt.Sprintf("%d / %d", nf.DupDeliveries, nf.StaleDeliveries))
		nt.AddRow("acks received / lost", fmt.Sprintf("%d / %d", nf.Acked, nf.AckLost))
		nt.AddRow("ack timeouts / resubmits / client rescues",
			fmt.Sprintf("%d / %d / %d", nf.AckTimeouts, nf.Resubmits, nf.ClientRescues))
		nt.AddRow("jobs lost to the network", strconv.FormatInt(nf.LostNetwork, 10))
		if nf.Crashes > 0 {
			nt.AddRow("dispatcher crashes / downtime (s)",
				fmt.Sprintf("%d / %s", nf.Crashes, report.F(nf.DownTime)))
			nt.AddRow("downtime arrivals dropped / buffered / failover",
				fmt.Sprintf("%d / %d / %d", nf.DownDropped, nf.DownBuffered, nf.FailoverDispatches))
			nt.AddRow("buffer overflow / max len", fmt.Sprintf("%d / %d", nf.BufferOverflow, nf.MaxBufferLen))
			nt.AddRow("checkpoints / plan restores / cold resets",
				fmt.Sprintf("%d / %d / %d", nf.Checkpoints, nf.PlanRestores, nf.ColdResets))
		}
		if _, err := nt.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if r0.Ctrl != nil {
		fmt.Println()
		var cp ctrlplane.Stats
		for _, run := range res.Runs {
			cp.Add(run.Ctrl)
		}
		ct := report.NewTable("control plane (sums across replications)", "metric", "value")
		ct.AddRow("idle tokens sent / dup / lost", fmt.Sprintf("%d / %d / %d", cp.TokensSent, cp.TokensDup, cp.TokensLost))
		ct.AddRow("tokens delivered / accepted / deduped",
			fmt.Sprintf("%d / %d / %d", cp.TokensDelivered, cp.TokensAccepted, cp.TokensDeduped))
		ct.AddRow("tokens spent / expired / discarded / extant",
			fmt.Sprintf("%d / %d / %d / %d", cp.TokensSpent, cp.TokensExpired, cp.TokensDiscarded, cp.TokensExtant))
		ct.AddRow("queries sent / lost / late", fmt.Sprintf("%d / %d / %d", cp.Queries, cp.QueriesLost, cp.QueriesLate))
		ct.AddRow("stale / blind cache reads", fmt.Sprintf("%d / %d", cp.StaleReads, cp.BlindReads))
		ct.AddRow("decisions / query timeouts", fmt.Sprintf("%d / %d", cp.Decisions, cp.DecisionTimeouts))
		ct.AddRow("query wait charged (s)", report.F(cp.QueryWait))
		if cp.SyncSent > 0 {
			ct.AddRow("sync frames sent / dup / lost", fmt.Sprintf("%d / %d / %d", cp.SyncSent, cp.SyncDup, cp.SyncLost))
			ct.AddRow("sync frames applied / stale", fmt.Sprintf("%d / %d", cp.SyncApplied, cp.SyncStale))
		}
		if _, err := ct.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if pb != nil {
		fmt.Println()
		et := report.NewTable("lifecycle events (instrumented rep-0 pass)", "event", "count")
		for _, kc := range pb.EventCounts() {
			et.AddRow(kc.Kind.String(), strconv.FormatInt(kc.Count, 10))
		}
		if _, err := et.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		if pp.Probe || pp.SampleDT > 0 {
			fmt.Println()
			st := report.NewTable("arrival substreams (instrumented rep-0 pass)",
				"computer", "interarrival CV", "gaps", "mean queue len")
			reg := pb.Registry()
			for i := range speeds {
				icv, gaps := pb.InterarrivalCV(i)
				st.AddRow(strconv.Itoa(i+1), report.F(icv), strconv.FormatInt(gaps, 10),
					report.F(reg.Series("queue_len."+strconv.Itoa(i)).Mean()))
			}
			st.AddNote("round-robin splitting smooths each substream (CV below the arrival CV %.3g); probabilistic splitting preserves it", *cv)
			if _, err := st.WriteTo(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if pb.Shards() > 1 {
			fmt.Println()
			kt := report.NewTable("dispatcher replicas (instrumented rep-0 pass)",
				"dispatcher", "jobs", "interarrival CV", "gaps")
			for k := 0; k < pb.Shards(); k++ {
				kcv, gaps := pb.ShardCV(k)
				kt.AddRow(strconv.Itoa(k+1), strconv.FormatInt(pb.ShardJobs(k), 10),
					report.F(kcv), strconv.FormatInt(gaps, 10))
			}
			kt.AddNote("each replica owns the arrival substream routed to it (%s sharding)", layers.Policy.Sharding.ShardBy)
			if _, err := kt.WriteTo(os.Stdout); err != nil {
				fatal(err)
			}
		}
		if tot := pb.SpanTotals(); pb.SpansOn() && tot.N > 0 {
			n := float64(tot.N)
			fmt.Println()
			dt := report.NewTable("T̄ decomposition (instrumented rep-0 pass, counted jobs)",
				"component", "mean (s)", "share %")
			dt.AddRow("queue wait", report.F(tot.Queue/n), report.Pct(tot.Queue/tot.Total()))
			dt.AddRow("service", report.F(tot.Service/n), report.Pct(tot.Service/tot.Total()))
			dt.AddRow("network", report.F(tot.Net/n), report.Pct(tot.Net/tot.Total()))
			dt.AddRow("retry/backoff", report.F(tot.Retry/n), report.Pct(tot.Retry/tot.Total()))
			dt.AddRow("T̄ = queue + service + net + retry", report.F(tot.Total()/n), report.Pct(1))
			residual := math.Abs(tot.Total()/n - tres.MeanResponseTime)
			dt.AddNote("components sum to the measured mean response time %s within %.3g s",
				report.F(tres.MeanResponseTime), residual)
			if _, err := dt.WriteTo(os.Stdout); err != nil {
				fatal(err)
			}

			fmt.Println()
			ct := report.NewTable("per-computer decomposition (counted jobs, mean seconds)",
				"computer", "jobs", "queue", "service", "net", "retry")
			byComp := pb.SpanByComputer()
			for i, s := range byComp {
				if s.N == 0 {
					continue
				}
				name := strconv.Itoa(i + 1)
				if i == len(byComp)-1 {
					name = "(undispatched)"
				}
				cn := float64(s.N)
				ct.AddRow(name, strconv.FormatInt(s.N, 10), report.F(s.Queue/cn),
					report.F(s.Service/cn), report.F(s.Net/cn), report.F(s.Retry/cn))
			}
			if _, err := ct.WriteTo(os.Stdout); err != nil {
				fatal(err)
			}

			byCause := pb.SpanByCause()
			if len(byCause) > 1 {
				causes := make([]string, 0, len(byCause))
				for c := range byCause {
					causes = append(causes, c)
				}
				sort.Strings(causes)
				fmt.Println()
				xt := report.NewTable("per-outcome decomposition (all finalized jobs, mean seconds)",
					"outcome", "jobs", "queue", "service", "net", "retry")
				for _, c := range causes {
					s := byCause[c]
					cn := float64(s.N)
					xt.AddRow(c, strconv.FormatInt(s.N, 10), report.F(s.Queue/cn),
						report.F(s.Service/cn), report.F(s.Net/cn), report.F(s.Retry/cn))
				}
				if _, err := xt.WriteTo(os.Stdout); err != nil {
					fatal(err)
				}
			}
		}
	}

	if pp.Manifest != "" {
		m := probe.NewManifest("heterosim", os.Args[1:], start)
		m.Seed = *seed
		m.Config["speeds"] = speeds
		m.Config["rho"] = *rho
		m.Config["policy"] = *policyFlag
		m.Config["duration"] = *duration
		m.Config["reps"] = *reps
		m.Config["cv"] = *cv
		lf.Record(flag.CommandLine, m.Config)
		if *scale > 0 {
			m.Config["scale"] = *scale
		}
		if pp.SampleDT > 0 {
			m.Config["sample_dt"] = pp.SampleDT
		}
		m.WallSeconds = time.Since(start).Seconds()
		runs := float64(*reps)
		if instrumented {
			runs++
		}
		m.SimTime = *duration * runs
		m.Metrics["mean_response_time"] = res.MeanResponseTime.Mean
		m.Metrics["mean_response_ratio"] = res.MeanResponseRatio.Mean
		m.Metrics["fairness"] = res.Fairness.Mean
		if r0.Adaptive != nil {
			m.Metrics["adapt_replans"] = float64(r0.Adaptive.Replans)
			m.Metrics["adapt_rho_hat"] = r0.Adaptive.RhoHat
		}
		if r0.Ctrl != nil {
			m.Metrics["ctrl_tokens_lost"] = float64(r0.Ctrl.TokensLost)
			m.Metrics["ctrl_tokens_expired"] = float64(r0.Ctrl.TokensExpired)
			m.Metrics["ctrl_query_timeouts"] = float64(r0.Ctrl.DecisionTimeouts)
			m.Metrics["ctrl_query_wait"] = r0.Ctrl.QueryWait
		}
		if pb != nil {
			for k, v := range pb.Registry().FinalSnapshot() {
				m.Metrics[k] = v
			}
			m.Events = pb.EventCountMap()
			if pb.SpansOn() {
				ss := probe.NewSpanSchema(len(speeds), pp.Spans)
				ss.Roots = pb.SpanCount()
				ss.Counted = pb.SpanTotals().N
				m.Spans = ss
			}
		}
		if err := m.WriteFile(pp.Manifest); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", pp.Manifest)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "heterosim:", err)
	os.Exit(1)
}
