// Command sweep runs a utilization sweep for a set of policies on an
// arbitrary cluster and prints the three paper metrics per point — the
// general-purpose version of the fig5 harness.
//
// Usage:
//
//	sweep -speeds 1,1,2,10 -policies ORR,WRR,LL -from 0.3 -to 0.9 -step 0.1 \
//	      -duration 2e5 -reps 3 [-csv out.csv]
//
// With -mtbf/-mttr set, computers fail and recover during the sweep and
// a fourth table reports jobs lost and degraded-window response times,
// e.g.:
//
//	sweep -speeds 1,1,2,10 -policies ORR,ORRA -from 0.2 -to 0.6 -step 0.2 \
//	      -mtbf 2e4 -mttr 2e3 -fate requeue -realloc resolve
//
// With any overload-protection flag set (-qcap, -admit, -deadline,
// -timeout, -retry, -backoff, -breaker) the sweep may cross rho = 1 and
// three extra tables report goodput, drops and deadline misses per
// point.
//
// With -netfault set (plus -ackto/-dstate), the dispatcher→computer
// control plane is unreliable across the whole sweep and two extra
// tables report jobs lost to the network and resubmission counts per
// point.
//
// With -ctrl set, the scalable policies' own control messages (JIQ
// idle tokens, jsq/pod(d) queue-length queries, counter-sync frames)
// travel over faulty links too, and two extra tables report control
// messages lost and query wait charged to dispatch latency per point.
//
// Observability: -probe adds an instrumented pass per sweep cell and a
// table of per-computer interarrival CVs (mean across computers) — the
// paper's §3 burstiness measurement, showing round-robin splitting
// (ORR) produces smoother substreams than probabilistic splitting
// (ORAN). -events names a directory receiving one JSONL lifecycle
// stream per cell, -sample-dt adds cadence samples, -manifest writes a
// sweep-level provenance record, and -debug-addr serves expvar/pprof
// with the live metrics of the cell currently running.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/probe"
	"heterosched/internal/report"
	"heterosched/internal/stats"
)

func main() {
	speedsFlag := flag.String("speeds", "1,1,2,10", "comma-separated relative computer speeds")
	policiesFlag := flag.String("policies", "WRAN,ORAN,WRR,ORR,LL", "comma-separated policies")
	scale := flag.Int("scale", 0, "tile -speeds cyclically out to this many computers (0 = use -speeds as given)")
	from := flag.Float64("from", 0.3, "first utilization")
	to := flag.Float64("to", 0.9, "last utilization (inclusive)")
	step := flag.Float64("step", 0.1, "utilization step")
	duration := flag.Float64("duration", 2e5, "simulated seconds per replication")
	reps := flag.Int("reps", 3, "replications per point")
	seed := flag.Uint64("seed", 1, "root seed")
	cv := flag.Float64("cv", 3.0, "arrival CV (1 = Poisson)")
	csvPath := flag.String("csv", "", "also write the response-ratio table as CSV")
	probeFlag := flag.Bool("probe", false, "instrument one extra pass per cell and report interarrival CVs")
	events := flag.String("events", "", "directory receiving one JSONL lifecycle event stream per sweep cell")
	manifestPath := flag.String("manifest", "", "write a sweep manifest (config, seed, git, wall/sim time, metrics) to this JSON file")
	sampleDT := flag.Float64("sample-dt", 0, "also sample probe series every this many simulated seconds (implies -probe)")
	debugAddr := flag.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	// The layer flags, applied to every cell, are declared once in
	// internal/cli and shared with heterosim.
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
	if err := cli.ValidateSweepRange(*from, *to, *step); err != nil {
		fatal(err)
	}
	params := cli.RunParams{Rho: *from, Duration: *duration, Reps: *reps, CV: *cv, MeanSize: 76.8}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	pp := cli.ProbeParams{
		Probe: *probeFlag, Events: *events, Manifest: *manifestPath,
		SampleDT: *sampleDT, DebugAddr: *debugAddr,
	}
	if err := pp.Validate(); err != nil {
		fatal(err)
	}
	if pp.Events != "" {
		if err := os.MkdirAll(pp.Events, 0o755); err != nil {
			fatal(err)
		}
	}
	if pp.DebugAddr != "" {
		addr, _, errc, err := probe.ServeDebug(pp.DebugAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if serr := <-errc; serr != nil {
				fmt.Fprintln(os.Stderr, "sweep: debug server:", serr)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/vars\n", addr)
	}
	layers, err := lf.Build(len(speeds))
	if err != nil {
		fatal(err)
	}
	names, factories, err := cli.ParsePolicies(*policiesFlag, layers.Policy)
	if err != nil {
		fatal(err)
	}

	rhos := sweepValues(*from, *to, *step)
	if len(rhos) == 0 {
		fatal(fmt.Errorf("empty sweep: from=%v to=%v step=%v", *from, *to, *step))
	}

	tables, csvTable, probeMetrics, err := runSweep(speeds, rhos, names, factories, *duration, *reps, *seed, *cv, layers, pp)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := csvTable.WriteCSV(f); err != nil {
			fatal(err)
		}
	}

	if pp.Manifest != "" {
		m := probe.NewManifest("sweep", os.Args[1:], start)
		m.Seed = *seed
		m.Config["speeds"] = speeds
		m.Config["policies"] = *policiesFlag
		m.Config["from"] = *from
		m.Config["to"] = *to
		m.Config["step"] = *step
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
		cells := float64(len(rhos) * len(names))
		runsPerCell := float64(*reps)
		if pp.Active() {
			runsPerCell++
		}
		m.SimTime = *duration * cells * runsPerCell
		m.Metrics["cells"] = cells
		for k, v := range probeMetrics {
			m.Metrics[k] = v
		}
		if err := m.WriteFile(pp.Manifest); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "manifest written to %s\n", pp.Manifest)
	}
}

// sweepValues enumerates from..to by step (inclusive, with rounding slop).
func sweepValues(from, to, step float64) []float64 {
	if step <= 0 || to < from {
		return nil
	}
	var out []float64
	for x := from; x <= to+step/1e6; x += step {
		out = append(out, x)
	}
	return out
}

// runSweep executes the sweep and renders the metric tables; the second
// return is the response-ratio table (for CSV output). Each enabled
// layer adds its own tables: faults the jobs lost and the
// degraded-window response time, overload protection goodput, drops,
// deadline misses and percentiles, network faults the network losses
// and resubmissions, the control plane its lost messages and query
// wait. With probe instrumentation active, one extra
// uninstrumented-identical pass runs per cell and the third return
// carries per-cell probe metrics for the manifest.
//
// A cell whose run fails — typically an infeasible allocation
// (alloc.ErrBadInput) at extreme rho or degenerate speeds — is skipped:
// its cells render as "-" and a table note names the cell and the
// error, instead of aborting the whole sweep.
func runSweep(speeds, rhos []float64, names []string, factories []cluster.PolicyFactory,
	duration float64, reps int, seed uint64, cv float64, layers cli.Layers, pp cli.ProbeParams,
) ([]*report.Table, *report.Table, map[string]float64, error) {
	headers := append([]string{"rho"}, names...)
	probeMetrics := map[string]float64{}
	var cols []column
	add := func(title string, instrumented bool, cell func(c *sweepCell) string) *report.Table {
		t := report.NewTable(title, headers...)
		cols = append(cols, column{t: t, instrumented: instrumented, cell: cell})
		return t
	}
	add("mean response time (s)", false, func(c *sweepCell) string { return report.F(c.res.MeanResponseTime.Mean) })
	ratio := add("mean response ratio", false, func(c *sweepCell) string { return report.F(c.res.MeanResponseRatio.Mean) })
	add("fairness (sd of response ratio)", false, func(c *sweepCell) string { return report.F(c.res.Fairness.Mean) })
	if layers.Faults.Enabled() {
		add("jobs lost (mean per replication)", false, func(c *sweepCell) string { return report.F(c.res.JobsLost.Mean) })
		add("mean response time in degraded windows (s)", false, func(c *sweepCell) string {
			return report.F(c.res.MeanResponseTimeDegraded.Mean)
		})
	}
	if layers.Overload.Enabled() {
		add("goodput (jobs completed in time, sum across replications)", false, func(c *sweepCell) string {
			return strconv.FormatInt(c.ov.Goodput, 10)
		})
		add("jobs dropped (shed + retry budget + deadline kills)", false, func(c *sweepCell) string {
			return strconv.FormatInt(c.ov.Dropped(), 10)
		})
		add("deadline misses (killed + late)", false, func(c *sweepCell) string {
			return strconv.FormatInt(c.ov.DeadlineMisses, 10)
		})
		add("resp time p50/p90/p99/p999 (s, streaming histograms merged across replications)", false, func(c *sweepCell) string {
			return mergedPercentiles(c.res.Runs)
		}).AddNote("log-bucketed bins (no retained samples): each quantile carries relative error at most the bin-edge ratio minus one, ~6%% for the 400-bin [1e-3,1e7) geometry")
	}
	if layers.Netfault.Enabled() {
		add("jobs lost to the network + dropped by the dispatcher (sum across replications)", false, func(c *sweepCell) string {
			return strconv.FormatInt(c.nf.LostNetwork+c.nf.DownDropped, 10)
		})
		add("network resubmissions (sum across replications)", false, func(c *sweepCell) string {
			return strconv.FormatInt(c.nf.Resubmits, 10)
		})
	}
	if layers.Ctrl.Enabled() {
		add("control messages lost (tokens + queries + sync frames, sum across replications)", false, func(c *sweepCell) string {
			return strconv.FormatInt(c.cp.TokensLost+c.cp.QueriesLost+c.cp.SyncLost, 10)
		})
		add("query wait charged to dispatch latency (s, sum across replications)", false, func(c *sweepCell) string {
			if c.cp.Decisions == 0 {
				return "-"
			}
			return report.F(c.cp.QueryWait)
		}).AddNote("\"-\" for policies that issue no queue-length probes (the layer still carries their tokens or sync frames)")
	}
	if pp.Probe || pp.SampleDT > 0 {
		add("interarrival CV (mean across computers, instrumented pass)", true, func(c *sweepCell) string {
			probeMetrics[c.key("interarrival_cv")] = c.meanCV
			return report.F(c.meanCV)
		}).AddNote("the paper's §3 burstiness measurement: round-robin splitting smooths each computer's arrival substream, probabilistic splitting does not")
		if layers.Policy.Sharding.Enabled() {
			add("per-dispatcher interarrival CV (mean across replicas, instrumented pass)", true, func(c *sweepCell) string {
				if math.IsNaN(c.shardCV) {
					return "-"
				}
				probeMetrics[c.key("shard_cv")] = c.shardCV
				return report.F(c.shardCV)
			}).AddNote("each dispatcher replica's private arrival substream; \"-\" for policies that ran unsharded")
		}
	}
	withProbe := pp.Active()
	if withProbe {
		add("T̄ decomposition (% queue / service / net / retry, instrumented pass)", true, func(c *sweepCell) string {
			if c.tot.N > 0 {
				probeMetrics[c.key("queue_share")] = c.tot.Queue / c.tot.Total()
			}
			return decompCell(c.tot)
		}).AddNote("per-component share of mean response time from the probe span layer; components sum to T̄ per job")
	}

	var skipped []string
	for _, rho := range rhos {
		rows := make([][]string, len(cols))
		for i := range rows {
			rows[i] = []string{report.F(rho)}
		}
		// fill appends a cell to every column fed by the instrumented
		// pass or by the replications; a nil cell is "-".
		fill := func(instrumented bool, c *sweepCell) {
			for i, col := range cols {
				if col.instrumented != instrumented {
					continue
				}
				v := "-"
				if c != nil {
					v = col.cell(c)
				}
				rows[i] = append(rows[i], v)
			}
		}
		for k, f := range factories {
			cfg := cluster.Config{Speeds: speeds, Utilization: rho, Duration: duration, Seed: seed, ArrivalCV: cv}
			layers.Apply(&cfg)
			c := &sweepCell{name: names[k], rho: rho}
			var err error
			if c.res, err = cluster.RunReplications(cfg, f, reps); err != nil {
				// Skip the bad cell instead of aborting the sweep: fill
				// every table with "-" and report the reason in a note.
				skipped = append(skipped, fmt.Sprintf("%s at rho=%s: %v", names[k], report.F(rho), err))
				fill(false, nil)
				fill(true, nil)
				continue
			}
			for _, run := range c.res.Runs {
				c.ov.AddCounters(run.Overload)
				c.nf.AddCounters(run.Netfault)
				c.cp.Add(run.Ctrl)
			}
			fill(false, c)
			if !withProbe {
				continue
			}
			if c.meanCV, c.shardCV, c.tot, err = probeCell(cfg, f, names[k], rho, pp); err != nil {
				skipped = append(skipped, fmt.Sprintf("%s at rho=%s (probe pass): %v", names[k], report.F(rho), err))
				c = nil
			}
			fill(true, c)
		}
		for i, col := range cols {
			col.t.AddRow(rows[i]...)
		}
	}
	note := fmt.Sprintf("%d replications × %.3g s per point, arrival CV %.3g", reps, duration, cv)
	if fc := layers.Faults; fc.Enabled() {
		note += fmt.Sprintf("; failures MTBF %s, MTTR %s, fate %s", fc.Uptime, fc.Downtime, fc.Fate)
	}
	if oc := layers.Overload; oc.Enabled() {
		note += fmt.Sprintf("; overload protection: admission %s, queue cap %d", oc.Admission, oc.QueueCap)
	}
	if layers.Netfault.Enabled() {
		note += "; network faults enabled (see the netfault tables)"
	}
	if layers.Ctrl.Enabled() {
		note += "; control-plane faults enabled (see the control-plane tables)"
	}
	ratio.AddNote("%s", note)
	for _, s := range skipped {
		ratio.AddNote("skipped cell %s", s)
	}
	tables := make([]*report.Table, len(cols))
	for i, col := range cols {
		tables[i] = col.t
	}
	return tables, ratio, probeMetrics, nil
}

// column is one sweep table and the function filling its cells.
type column struct {
	t *report.Table
	// instrumented marks tables whose cells come from the instrumented
	// pass.
	instrumented bool
	// cell formats one cell; the probe tables also record the cell's
	// manifest metric.
	cell func(c *sweepCell) string
}

// sweepCell is one policy at one rho: the replications, their summed
// layer counters and, with probes on, the instrumented pass.
type sweepCell struct {
	name string
	rho  float64
	res  *cluster.ReplicatedResult
	ov   cluster.OverloadStats
	nf   cluster.NetfaultStats
	cp   ctrlplane.Stats
	// meanCV and shardCV are the gap-weighted interarrival CVs across
	// computers and across dispatcher replicas (NaN when unsharded);
	// tot is the span layer's T̄ decomposition.
	meanCV, shardCV float64
	tot             probe.SpanStats
}

// key names the cell's manifest metric of the given kind.
func (c *sweepCell) key(kind string) string {
	return fmt.Sprintf("%s.%s.rho%s", kind, c.name, report.F(c.rho))
}

// mergedPercentiles merges the replications' streaming response-time
// histograms (same geometry by construction — one overload layer
// configuration per sweep) and formats p50/p90/p99/p999. Merging into
// the first replication's histogram is safe: its exact TimeP* fields
// were computed at finish time and the histogram is not reused.
func mergedPercentiles(runs []*cluster.Result) string {
	var acc *stats.Histogram
	for _, run := range runs {
		if run.Overload == nil || run.Overload.TimeHist == nil {
			continue
		}
		if acc == nil {
			acc = run.Overload.TimeHist
			continue
		}
		if err := acc.Merge(run.Overload.TimeHist); err != nil {
			return "-"
		}
	}
	if acc == nil || acc.N() == 0 {
		return "-"
	}
	qs := acc.Quantiles(0.50, 0.90, 0.99, 0.999)
	return fmt.Sprintf("%s / %s / %s / %s",
		report.F(qs[0]), report.F(qs[1]), report.F(qs[2]), report.F(qs[3]))
}

// decompCell formats a span aggregate as per-component percent shares
// of the summed response time.
func decompCell(tot probe.SpanStats) string {
	if tot.N == 0 {
		return "-"
	}
	t := tot.Total()
	if t <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f / %.0f / %.0f / %.0f",
		100*tot.Queue/t, 100*tot.Service/t, 100*tot.Net/t, 100*tot.Retry/t)
}

// probeCell runs one instrumented pass for a sweep cell (policy × rho)
// and returns the gap-weighted mean interarrival CV across computers,
// the gap-weighted mean interarrival CV across dispatcher replicas (NaN
// when the cell's policy ran unsharded), plus the span layer's T̄
// decomposition over counted jobs. With an events directory configured
// it writes the cell's lifecycle stream to "<dir>/<policy>-rho<rho>.jsonl".
func probeCell(cfg cluster.Config, f cluster.PolicyFactory, name string, rho float64, pp cli.ProbeParams) (float64, float64, probe.SpanStats, error) {
	var w probe.EventWriter
	var ef *os.File
	if pp.Events != "" {
		var err error
		ef, err = os.Create(filepath.Join(pp.Events, fmt.Sprintf("%s-rho%s.jsonl", name, report.F(rho))))
		if err != nil {
			return 0, 0, probe.SpanStats{}, err
		}
		w = probe.NewJSONLWriter(ef)
	}
	pb, err := probe.New(probe.Options{Metrics: pp.Probe || pp.SampleDT > 0, SampleDT: pp.SampleDT, Events: w, Spans: true})
	if err != nil {
		return 0, 0, probe.SpanStats{}, err
	}
	probe.PublishLive(pb)
	// Cells run back to back: release this cell's probe from the debug
	// endpoint once done so the live view always tracks the current cell.
	defer probe.UnpublishLive(pb)
	cfg.Probe = pb
	if _, err := cluster.Run(cfg, f()); err != nil {
		return 0, 0, probe.SpanStats{}, err
	}
	if err := pb.Flush(); err != nil {
		return 0, 0, probe.SpanStats{}, err
	}
	if ef != nil {
		if err := ef.Close(); err != nil {
			return 0, 0, probe.SpanStats{}, err
		}
	}
	var sum, n float64
	for i := range cfg.Speeds {
		cv, gaps := pb.InterarrivalCV(i)
		if gaps > 1 {
			sum += cv * float64(gaps)
			n += float64(gaps)
		}
	}
	shardCV := math.NaN()
	if pb.Shards() > 1 {
		var ksum, kn float64
		for k := 0; k < pb.Shards(); k++ {
			cv, gaps := pb.ShardCV(k)
			if gaps > 1 {
				ksum += cv * float64(gaps)
				kn += float64(gaps)
			}
		}
		if kn > 0 {
			shardCV = ksum / kn
		}
	}
	meanCV := 0.0
	if n > 0 {
		meanCV = sum / n
	}
	return meanCV, shardCV, pb.SpanTotals(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
