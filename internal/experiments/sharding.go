package experiments

import (
	"fmt"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/probe"
	"heterosched/internal/report"
)

// This file holds the sharded-dispatch extension: the paper's single
// central scheduler replaced by K dispatcher replicas over a system of
// hundreds of computers, comparing the static ORR plan (private
// Algorithm 2 state per replica) against the scalable state-querying
// family (JSQ(d), heterogeneity-biased power-of-d, JIQ).

// ShardingN is the system size for ext-sharding: the paper's 15-computer
// base configuration tiled cyclically to 500 computers.
const ShardingN = 500

// shardingPolicies are the ext-sharding rows, and shardingKs its
// dispatcher replica counts, each with hash routing.
var (
	shardingPolicies = []string{"ORR", "jsq(2)", "pod(2):speed", "jiq"}
	shardingKs       = []int{1, 4, 16}
)

// shardingCells are the ext-sharding cells at 60% load on the Table 3
// configuration tiled to ShardingN computers, policy-major.
func shardingCells(o Options) ([]cell, error) {
	speeds, err := cli.ScaleSpeeds(BaseSpeeds(), ShardingN)
	if err != nil {
		return nil, err
	}
	// The tiled system is ShardingN/15 times the base aggregate speed, so
	// the arrival rate scales up by the same factor; shrink the horizon to
	// keep the job count per replication comparable to the base
	// experiments instead of 33× larger.
	dur := o.duration() * float64(len(BaseSpeeds())) / float64(ShardingN)
	var cells []cell
	for _, p := range shardingPolicies {
		for _, k := range shardingKs {
			c, err := o.layered(fmt.Sprintf("%s K=%d", p, k), speeds, 0.60, dur, "policy="+p, fmt.Sprintf("dispatchers=%d:hash", k))
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// ShardingResult holds the ext-sharding grid: policy × replica count K,
// with the mean response time from replicated runs and the per-computer
// interarrival CV (gap-weighted mean across computers) from one
// instrumented probe pass per cell.
type ShardingResult struct {
	N        int
	Ks       []int
	Policies []string
	// Times[p][k] is the mean response time of Policies[p] at Ks[k].
	Times [][]cluster.Summary
	// CVs[p][k] is the matching per-computer interarrival CV.
	CVs  [][]float64
	Reps int
}

// ExtSharding runs the sharded-dispatch comparison at 60% utilization on
// ShardingN computers for K ∈ {1, 4, 16} dispatcher replicas with hash
// routing. ORR replicas carry private Algorithm 2 counters (no sync, the
// worst case for plan fidelity); the scalable policies query computer
// state at decision time and are expected to degrade far less as K grows.
func ExtSharding(o Options) (*ShardingResult, error) {
	o = o.withDefaults()
	cells, err := shardingCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-sharding: %w", err)
	}
	res := &ShardingResult{
		N:        ShardingN,
		Ks:       shardingKs,
		Policies: shardingPolicies,
		Reps:     o.Reps,
	}
	for range res.Policies {
		times := make([]cluster.Summary, 0, len(res.Ks))
		cvs := make([]float64, 0, len(res.Ks))
		for range res.Ks {
			c := cells[0]
			cells = cells[1:]
			cfg, f, err := c.Config()
			if err != nil {
				return nil, fmt.Errorf("ext-sharding %s: %w", c.label, err)
			}
			rr, err := cluster.RunReplications(cfg, f, o.Reps)
			if err != nil {
				return nil, fmt.Errorf("ext-sharding %s: %w", c.label, err)
			}
			cv, err := shardingCV(cfg, f)
			if err != nil {
				return nil, fmt.Errorf("ext-sharding %s (probe pass): %w", c.label, err)
			}
			times = append(times, rr.MeanResponseTime)
			cvs = append(cvs, cv)
			o.logf("ext-sharding: %s time=%.4g cv=%.4g", c.label, rr.MeanResponseTime.Mean, cv)
		}
		res.Times = append(res.Times, times)
		res.CVs = append(res.CVs, cvs)
	}
	return res, nil
}

// shardingCV runs one instrumented pass of the cell and returns the
// gap-weighted mean per-computer interarrival CV.
func shardingCV(cfg cluster.Config, f cluster.PolicyFactory) (float64, error) {
	pb, err := probe.New(probe.Options{Metrics: true})
	if err != nil {
		return 0, err
	}
	cfg.Probe = pb
	if _, err := cluster.Run(cfg, f()); err != nil {
		return 0, err
	}
	var sum, n float64
	for i := range cfg.Speeds {
		cv, gaps := pb.InterarrivalCV(i)
		if gaps > 1 {
			sum += cv * float64(gaps)
			n += float64(gaps)
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / n, nil
}

// Render formats the sharding grid: one mean-response-time table and one
// per-computer interarrival-CV table, policies × K.
func (r *ShardingResult) Render() []*report.Table {
	header := make([]string, 0, len(r.Ks)+1)
	header = append(header, "policy")
	for _, k := range r.Ks {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	timeT := report.NewTable(
		fmt.Sprintf("ext-sharding — mean response time T-bar vs dispatcher replicas (n=%d, rho=0.60, hash routing)", r.N),
		header...)
	cvT := report.NewTable(
		fmt.Sprintf("ext-sharding — per-computer interarrival CV vs dispatcher replicas (n=%d, instrumented pass)", r.N),
		header...)
	for p, policy := range r.Policies {
		rowT := make([]string, 0, len(r.Ks)+1)
		rowC := make([]string, 0, len(r.Ks)+1)
		rowT = append(rowT, policy)
		rowC = append(rowC, policy)
		for k := range r.Ks {
			rowT = append(rowT, report.F(r.Times[p][k].Mean))
			rowC = append(rowC, report.F(r.CVs[p][k]))
		}
		timeT.AddRow(rowT...)
		cvT.AddRow(rowC...)
	}
	timeT.AddNote("ORR replicas carry private Algorithm 2 counters with no sync; the scalable family queries state at decision time")
	timeT.AddNote("%d replications; horizon scaled by 15/%d to hold the job count near the base experiments", r.Reps, r.N)
	cvT.AddNote("CV of a Poisson stream is 1; Algorithm 2's interleaving pushes per-computer CV below 1, sharding erodes it as K grows")
	return []*report.Table{timeT, cvT}
}
