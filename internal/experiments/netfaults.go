package experiments

import (
	"fmt"

	"heterosched/internal/cluster"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/report"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// This file is the ext-netfaults study: what the paper's central,
// instantaneous, lossless dispatcher assumption (§2.2) is worth. Part A
// measures how network faults erode the burstiness-smoothing property
// that favors ORR over ORAN (§3): per-link latency jitter, loss,
// duplication and resubmission re-randomize the carefully interleaved
// round-robin substream, so the delivered interarrival CV converges
// toward the probabilistic splitter's. Every Part A run doubles as an
// exactly-once audit: an OnFinal ledger fails the experiment if any job
// reaches two terminal outcomes despite duplication and retransmission.
// Part B injects dispatcher crashes and compares the state-recovery
// policies — cold reset, periodic checkpoint, reconstruct-from-acks —
// against the fault-free baseline on an identical job workload (sizes
// are fixed at generation, so the rows are paired).

// NetfaultScale is one Part A fault level: a label and the network
// layer's items. Every level, "none" included, turns the layer on (a
// perfect link with ack tracking at "none"), so the delivered-CV
// instrumentation measures every level the same way.
type NetfaultScale struct {
	Label string
	Items string
}

// NetfaultScales are the Part A fault levels, from the paper's perfect
// network to a heavily degraded one. Latencies are in simulated seconds
// (the mean job size is 76.8 s on a speed-1 computer), so the harsher
// scales jitter deliveries by a sizable fraction of the per-computer
// interarrival gap.
var NetfaultScales = []NetfaultScale{
	{"none", "ackto=30"},
	{"low (2% loss, lat 1)", "netfault=loss:0.02,lat:1;ackto=30"},
	{"mid (5% loss, 2% dup, lat 10)", "netfault=loss:0.05,dup:0.02,lat:10;ackto=30"},
	{"high (15% loss, 5% dup, lat 40)", "netfault=loss:0.15,dup:0.05,lat:40;ackto=30"},
}

// netfaultPolicies are the Part A policies, compared per scale.
var netfaultPolicies = []string{"ORR", "ORAN"}

// netfaultCells are Part A's cells at 70% load, scale-major: ORR and
// ORAN at every fault level.
func netfaultCells(o Options) ([]cell, error) {
	var cells []cell
	for _, s := range NetfaultScales {
		for _, p := range netfaultPolicies {
			c, err := o.layered(p+" "+s.Label, FaultSpeeds, 0.70, o.duration(), s.Items, "policy="+p)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// recoveryCells are Part B's cells: ORR at 55% load under dispatcher
// crashes, one per state-recovery policy. ~25 outages per run at the
// default scale (duration 2e5): MTBF 8e3, 60 s repairs, arrivals
// buffered across the outage, on a 2%-loss, 1 s-latency network with
// ack resubmission. Cold reset then runs its 4000 s relearn window on
// the proportional fallback after every crash — roughly half the run.
// The short client timeout keeps forgotten in-flight jobs (checkpoint
// and cold lose the outstanding table) from dominating; it never fires
// under ack reconstruction.
func recoveryCells(o Options) ([]cell, error) {
	var cells []cell
	for _, ds := range []string{"cold:4000:150", "ckpt:2500:150", "acks"} {
		c, err := o.layered(ds, FaultSpeeds, 0.55, o.duration(), "policy=ORR",
			"netfault=loss:0.02,lat:1,crash:8e3:60,down:buffer", "ackto=30", "dstate="+ds)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// NetfaultsResult holds both parts of the ext-netfaults study on the
// 1,1,2,10 system.
type NetfaultsResult struct {
	// Part A: delivered interarrival CV (gap-weighted mean across
	// computers) per fault scale for ORR and ORAN, plus the network
	// counters summed over both runs and the exactly-once terminal count.
	Scales    []NetfaultScale
	ORRCV     []float64
	ORANCV    []float64
	Lost      []int64
	DupCopies []int64
	Resubmits []int64
	Terminals []int64

	// Part B: mean response time per recovery policy under dispatcher
	// crashes, vs the fault-free baseline.
	Recoveries   []netfault.Recovery
	BaselineMean cluster.Summary
	RecMean      []cluster.Summary
	RecCrashes   []int64
	RecRestores  []int64
	RecColds     []int64
	RecLost      []int64
	Reps         int
}

// deliveredCV returns the gap-weighted mean delivered interarrival CV
// across computers.
func deliveredCV(pb *probe.Probe, computers int) float64 {
	var sum, w float64
	for i := 0; i < computers; i++ {
		cv, gaps := pb.DeliveredCV(i)
		if gaps > 1 {
			sum += cv * float64(gaps)
			w += float64(gaps)
		}
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

// ExtNetfaults runs the network-fault study.
func ExtNetfaults(o Options) (*NetfaultsResult, error) {
	o = o.withDefaults()
	cells, err := netfaultCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-netfaults: %w", err)
	}
	recoveries, err := recoveryCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-netfaults: %w", err)
	}
	res := &NetfaultsResult{Scales: NetfaultScales, Reps: o.Reps}

	// Part A: one instrumented run per (scale, policy) cell; the CV is a
	// property of the whole delivered stream, not a replicated metric.
	for si, s := range res.Scales {
		var cvs [2]float64
		var lost, dup, resub, terms int64
		for pi := range netfaultPolicies {
			cfg, factory, err := cells[si*len(netfaultPolicies)+pi].Config()
			if err != nil {
				return nil, fmt.Errorf("ext-netfaults scale %q: %v", s.Label, err)
			}
			pb, err := probe.New(probe.Options{Metrics: true})
			if err != nil {
				return nil, err
			}
			seen := make(map[int64]bool)
			var dupTerminal int64
			cfg.Probe = pb
			cfg.OnFinal = func(j *sim.Job, _ cluster.Outcome) {
				if seen[j.ID] {
					dupTerminal++
				}
				seen[j.ID] = true
			}
			run, err := cluster.Run(cfg, factory())
			if err != nil {
				return nil, fmt.Errorf("ext-netfaults scale %q: %w", s.Label, err)
			}
			if dupTerminal > 0 {
				return nil, fmt.Errorf("ext-netfaults scale %q: %d jobs reached a second terminal outcome", s.Label, dupTerminal)
			}
			cvs[pi] = deliveredCV(pb, len(FaultSpeeds))
			if st := run.Netfault; st != nil {
				lost += st.LostNetwork
				dup += st.DupCopies
				resub += st.Resubmits
			}
			terms += int64(len(seen))
		}
		res.ORRCV = append(res.ORRCV, cvs[0])
		res.ORANCV = append(res.ORANCV, cvs[1])
		res.Lost = append(res.Lost, lost)
		res.DupCopies = append(res.DupCopies, dup)
		res.Resubmits = append(res.Resubmits, resub)
		res.Terminals = append(res.Terminals, terms)
		o.logf("ext-netfaults: scale %q delivered CV ORR=%.4g ORAN=%.4g (%d dup copies, %d resubmits, %d lost; %d terminals, all exactly once)",
			s.Label, cvs[0], cvs[1], dup, resub, lost, terms)
	}

	// Part B: dispatcher crashes at rho 0.55 — moderate load, where the
	// Algorithm 2 plan beats a speed-proportional split by a wide margin,
	// so losing the plan is visible. Every recovery policy faces the same
	// crash schedule and the same jobs.
	base := cluster.Config{Speeds: FaultSpeeds, Utilization: 0.55}
	baseline, err := o.runPoint(base, func() cluster.Policy { return sched.ORR() })
	if err != nil {
		return nil, fmt.Errorf("ext-netfaults baseline: %w", err)
	}
	res.BaselineMean = baseline.MeanResponseTime
	o.logf("ext-netfaults: fault-free baseline mean %.4g s", res.BaselineMean.Mean)

	for _, c := range recoveries {
		cfg, factory, err := c.Config()
		if err != nil {
			return nil, fmt.Errorf("ext-netfaults recovery %s: %v", c.label, err)
		}
		rec := cfg.Netfault.Dispatcher.Recovery
		rr, err := cluster.RunReplications(cfg, factory, o.Reps)
		if err != nil {
			return nil, fmt.Errorf("ext-netfaults recovery %v: %w", rec, err)
		}
		var st cluster.NetfaultStats
		for _, run := range rr.Runs {
			st.AddCounters(run.Netfault)
		}
		res.Recoveries = append(res.Recoveries, rec)
		res.RecMean = append(res.RecMean, rr.MeanResponseTime)
		res.RecCrashes = append(res.RecCrashes, st.Crashes)
		res.RecRestores = append(res.RecRestores, st.PlanRestores)
		res.RecColds = append(res.RecColds, st.ColdResets)
		res.RecLost = append(res.RecLost, st.LostNetwork+st.DownDropped)
		o.logf("ext-netfaults: recovery %v mean %.4g s (%d crashes, %d lost)",
			rec, rr.MeanResponseTime.Mean, st.Crashes, st.LostNetwork+st.DownDropped)
	}
	return res, nil
}

// Render formats both parts of the network-fault study.
func (r *NetfaultsResult) Render() []*report.Table {
	a := report.NewTable(
		"extension — network faults A: delivered interarrival CV, ORR vs ORAN (speeds 1,1,2,10, rho=0.70)",
		"fault scale", "ORR", "ORAN", "ORR/ORAN", "dup copies", "resubmits", "lost", "terminals")
	for i, s := range r.Scales {
		ratio := "-"
		if r.ORANCV[i] > 0 {
			ratio = report.F2(r.ORRCV[i] / r.ORANCV[i])
		}
		a.AddRow(s.Label, report.F(r.ORRCV[i]), report.F(r.ORANCV[i]), ratio,
			fmt.Sprintf("%d", r.DupCopies[i]), fmt.Sprintf("%d", r.Resubmits[i]),
			fmt.Sprintf("%d", r.Lost[i]), fmt.Sprintf("%d", r.Terminals[i]))
	}
	a.AddNote("§3's case for ORR: round-robin splitting delivers each computer a smoother substream than probabilistic splitting")
	a.AddNote("latency jitter, loss, duplication and resubmission re-randomize the interleaving in transit, eroding ORR's edge as faults grow")
	a.AddNote("every terminal is reached exactly once (counters sum both policies' runs; an OnFinal ledger fails the run on any duplicate)")

	b := report.NewTable(
		"extension — network faults B: dispatcher crash recovery vs fault-free baseline (ORR, rho=0.55)",
		"recovery", "mean resp (s)", "vs baseline %", "crashes", "plan restores", "cold resets", "jobs lost")
	b.AddRow("fault-free baseline", report.F(r.BaselineMean.Mean), "-", "0", "-", "-", "0")
	for i, rec := range r.Recoveries {
		pct := 100 * (r.RecMean[i].Mean/r.BaselineMean.Mean - 1)
		b.AddRow(rec.String(), report.F(r.RecMean[i].Mean), report.F2(pct),
			fmt.Sprintf("%d", r.RecCrashes[i]), fmt.Sprintf("%d", r.RecRestores[i]),
			fmt.Sprintf("%d", r.RecColds[i]), fmt.Sprintf("%d", r.RecLost[i]))
	}
	b.AddNote("all recovery rows share the crash schedule (MTBF 8e3 s, MTTR 60 s, arrivals buffered), the job workload, and a 2%%-loss, 1 s-latency network with ack resubmission")
	b.AddNote("cold reset forgets the Algorithm 2 plan and relearns from a speed-proportional split; checkpoint and ack reconstruction restore it immediately")
	b.AddNote("%d replications", r.Reps)
	return []*report.Table{a, b}
}
