package experiments

import (
	"fmt"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/netfault"
	"heterosched/internal/report"
	"heterosched/internal/sched"
)

// This file holds the physical-control-plane extension: the scalable
// state-querying policies of ext-sharding re-run with their control
// messages (JIQ idle-token reports, pod(d) queue-length queries,
// counter-sync frames) carried over faulty links instead of an oracle
// state view. The grid isolates the two robustness mechanisms the
// ctrlplane layer provides: token leases against token loss, and
// per-decision query timeouts against probe loss.

// ControlN is the system size for ext-control: the Table 3 base
// configuration tiled to 60 computers — large enough that a handful of
// stranded computers is visible in T-bar, small enough to replicate
// cheaply.
const ControlN = 60

// Control regimes, in column order: a perfect oracle (ctrl off), pure
// message latency, and latency plus loss. Row "jiq" runs without
// leases so the loss column shows the degradation; "jiq+lease" adds
// the lease; "pod(2):speed" exercises the query path and its timeout.
var (
	controlRows    = []string{"jiq", "jiq+lease", "pod(2):speed"}
	controlRegimes = []string{"ctrl off", "lat", "lat+loss"}
)

// ControlResult holds the ext-control grid: policy row × replica count
// K × control regime, with the mean response time from replicated runs,
// the completed-job count (the progress watchdog: a deadlocked
// dispatcher strands arrivals and craters it), and the summed control
// ledger for the faulty regimes.
type ControlResult struct {
	N       int
	Ks      []int
	Rows    []string
	Regimes []string
	// Times[r][k][g] is the mean response time of Rows[r] at Ks[k]
	// under Regimes[g].
	Times [][][]cluster.Summary
	// Jobs[r][k][g] is the matching completed-job count summed across
	// replications.
	Jobs [][][]int64
	// Ctrl[r][k][g] is the control-plane ledger summed across
	// replications; nil in the ctrl-off column.
	Ctrl [][][]*ctrlplane.Stats
	Reps int
}

// controlPolicy builds the policy for a grid row.
func controlPolicy(row string, k int) cluster.PolicyFactory {
	return func() cluster.Policy {
		var p *sched.Scalable
		switch row {
		case "pod(2):speed":
			p = sched.PodSpeed(2)
		default: // jiq and jiq+lease share the policy; the lease is config
			p = sched.JIQ()
		}
		p.Dispatchers = k
		p.ShardBy = dispatch.ShardHash
		return p
	}
}

// controlCtrl builds the control-plane config for a grid cell. The
// lat regime ships every control message over an exp(1 s) one-way
// link; lat+loss additionally drops 25% of copies. Lossy links require
// a query timeout, so both faulty regimes carry qto — the jiq rows
// never issue queries and are unaffected by it.
func controlCtrl(row, regime string) *ctrlplane.Config {
	if regime == "ctrl off" {
		return nil
	}
	c := &ctrlplane.Config{
		Links:   netfault.Links{Link: netfault.Link{Latency: dist.Exponential{MeanVal: 1}}},
		QueryTO: 8,
	}
	if regime == "lat+loss" {
		c.Link.Loss = 0.25
	}
	if row == "jiq+lease" {
		c.Lease = 5
	}
	return c
}

// ExtControl runs the control-plane comparison at 60% utilization on
// ControlN computers for K ∈ {1, 4, 16} dispatcher replicas with hash
// routing. The expected shape: jiq's lat+loss column degrades sharply
// without leases (lost tokens strand idle computers), jiq+lease pulls
// it back near the lossless column, and pod(2) absorbs loss through
// query timeouts — slower decisions, but every decision completes.
func ExtControl(o Options) (*ControlResult, error) {
	o = o.withDefaults()
	speeds := ShardingSpeeds(ControlN)
	res := &ControlResult{
		N:       ControlN,
		Ks:      []int{1, 4, 16},
		Rows:    controlRows,
		Regimes: controlRegimes,
		Reps:    o.Reps,
	}
	// Same horizon compression as ext-sharding: the tiled system runs
	// ControlN/15 times the base arrival rate.
	duration := o.duration() * float64(len(BaseSpeeds())) / float64(ControlN)
	for _, row := range res.Rows {
		times := make([][]cluster.Summary, 0, len(res.Ks))
		jobs := make([][]int64, 0, len(res.Ks))
		ctrls := make([][]*ctrlplane.Stats, 0, len(res.Ks))
		for _, k := range res.Ks {
			rowT := make([]cluster.Summary, 0, len(res.Regimes))
			rowJ := make([]int64, 0, len(res.Regimes))
			rowC := make([]*ctrlplane.Stats, 0, len(res.Regimes))
			for _, regime := range res.Regimes {
				cfg := cluster.Config{
					Speeds:      speeds,
					Utilization: 0.75,
					Duration:    duration,
					Seed:        o.Seed,
					Ctrl:        controlCtrl(row, regime),
				}
				rr, err := cluster.RunReplications(cfg, controlPolicy(row, k), o.Reps)
				if err != nil {
					return nil, fmt.Errorf("ext-control %s K=%d %s: %w", row, k, regime, err)
				}
				var nJobs int64
				var cs *ctrlplane.Stats
				for _, run := range rr.Runs {
					nJobs += run.Jobs
					if run.Ctrl != nil {
						if cs == nil {
							cs = &ctrlplane.Stats{}
						}
						cs.Add(run.Ctrl)
					}
				}
				rowT = append(rowT, rr.MeanResponseTime)
				rowJ = append(rowJ, nJobs)
				rowC = append(rowC, cs)
				o.logf("ext-control: %s K=%d %s time=%.4g jobs=%d", row, k, regime, rr.MeanResponseTime.Mean, nJobs)
			}
			times = append(times, rowT)
			jobs = append(jobs, rowJ)
			ctrls = append(ctrls, rowC)
		}
		res.Times = append(res.Times, times)
		res.Jobs = append(res.Jobs, jobs)
		res.Ctrl = append(res.Ctrl, ctrls)
	}
	return res, nil
}

// Render formats the control grid: one mean-response-time table per
// regime column set (rows are policy × K), and a control-ledger table
// for the lat+loss regime.
func (r *ControlResult) Render() []*report.Table {
	header := append([]string{"policy", "K"}, r.Regimes...)
	timeT := report.NewTable(
		fmt.Sprintf("ext-control — mean response time T-bar vs control-plane regime (n=%d, rho=0.75, hash routing)", r.N),
		header...)
	for i, row := range r.Rows {
		for k, kk := range r.Ks {
			cells := []string{row, fmt.Sprintf("%d", kk)}
			for g := range r.Regimes {
				cells = append(cells, report.F(r.Times[i][k][g].Mean))
			}
			timeT.AddRow(cells...)
		}
	}
	timeT.AddNote("lat: every control message over an exp(1 s) link; lat+loss: plus 25%% copy loss; jiq+lease re-reports idle tokens on a 5 s lease")
	timeT.AddNote("%d replications; horizon scaled by 15/%d to hold the job count near the base experiments", r.Reps, r.N)

	ledgerT := report.NewTable(
		"ext-control — lat+loss control ledger (sums across replications)",
		"policy", "K", "tokens lost", "tokens expired", "queries lost", "query timeouts", "query wait (s)", "jobs")
	lossIdx := len(r.Regimes) - 1
	for i, row := range r.Rows {
		for k, kk := range r.Ks {
			cs := r.Ctrl[i][k][lossIdx]
			if cs == nil {
				continue
			}
			ledgerT.AddRow(row, fmt.Sprintf("%d", kk),
				fmt.Sprintf("%d", cs.TokensLost), fmt.Sprintf("%d", cs.TokensExpired),
				fmt.Sprintf("%d", cs.QueriesLost), fmt.Sprintf("%d", cs.DecisionTimeouts),
				report.F(cs.QueryWait), fmt.Sprintf("%d", r.Jobs[i][k][lossIdx]))
		}
	}
	ledgerT.AddNote("the jobs column is the progress watchdog: a deadlocked dispatcher strands arrivals and craters it")
	return []*report.Table{timeT, ledgerT}
}
