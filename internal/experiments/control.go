package experiments

import (
	"fmt"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/report"
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
// controlKs are the dispatcher replica counts, each with hash routing.
var (
	controlRows    = []string{"jiq", "jiq+lease", "pod(2):speed"}
	controlRegimes = []string{"ctrl off", "lat", "lat+loss"}
	controlKs      = []int{1, 4, 16}
)

// controlRowPolicy is each grid row's policy, and controlRegimeCtrl
// each faulty regime's control-plane items. The lat regime ships every
// control message over an exp(1 s) one-way link; lat+loss additionally
// drops 25% of copies. Lossy links require a query timeout, so both
// faulty regimes carry qto — the jiq rows never issue queries and are
// unaffected by it. The jiq+lease row adds a 5 s lease to either.
var (
	controlRowPolicy  = map[string]string{"jiq": "jiq", "jiq+lease": "jiq", "pod(2):speed": "pod(2):speed"}
	controlRegimeCtrl = map[string]string{"lat": "lat:1,qto:8", "lat+loss": "lat:1,loss:0.25,qto:8"}
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

// controlCells are ext-control's cells at 75% load on ControlN
// computers, row-major then K then regime.
func controlCells(o Options) ([]cell, error) {
	speeds, err := cli.ScaleSpeeds(BaseSpeeds(), ControlN)
	if err != nil {
		return nil, err
	}
	// Same horizon compression as ext-sharding: the tiled system runs
	// ControlN/15 times the base arrival rate.
	dur := o.duration() * float64(len(BaseSpeeds())) / float64(ControlN)
	var cells []cell
	for _, row := range controlRows {
		for _, k := range controlKs {
			for _, regime := range controlRegimes {
				items := []string{"policy=" + controlRowPolicy[row], fmt.Sprintf("dispatchers=%d:hash", k)}
				if ctrl := controlRegimeCtrl[regime]; ctrl != "" {
					if row == "jiq+lease" {
						ctrl += ",lease:5"
					}
					items = append(items, "ctrl="+ctrl)
				}
				c, err := o.layered(fmt.Sprintf("%s K=%d %s", row, k, regime), speeds, 0.75, dur, items...)
				if err != nil {
					return nil, err
				}
				cells = append(cells, c)
			}
		}
	}
	return cells, nil
}

// ExtControl runs the control-plane comparison at 75% utilization on
// ControlN computers for K ∈ {1, 4, 16} dispatcher replicas with hash
// routing. The expected shape: jiq's lat+loss column degrades sharply
// without leases (lost tokens strand idle computers), jiq+lease pulls
// it back near the lossless column, and pod(2) absorbs loss through
// query timeouts — slower decisions, but every decision completes.
func ExtControl(o Options) (*ControlResult, error) {
	o = o.withDefaults()
	cells, err := controlCells(o)
	if err != nil {
		return nil, fmt.Errorf("ext-control: %w", err)
	}
	res := &ControlResult{
		N:       ControlN,
		Ks:      controlKs,
		Rows:    controlRows,
		Regimes: controlRegimes,
		Reps:    o.Reps,
	}
	for range res.Rows {
		times := make([][]cluster.Summary, 0, len(res.Ks))
		jobs := make([][]int64, 0, len(res.Ks))
		ctrls := make([][]*ctrlplane.Stats, 0, len(res.Ks))
		for range res.Ks {
			rowT := make([]cluster.Summary, 0, len(res.Regimes))
			rowJ := make([]int64, 0, len(res.Regimes))
			rowC := make([]*ctrlplane.Stats, 0, len(res.Regimes))
			for range res.Regimes {
				c := cells[0]
				cells = cells[1:]
				rr, err := o.runCell(c)
				if err != nil {
					return nil, fmt.Errorf("ext-control %s: %w", c.label, err)
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
				o.logf("ext-control: %s time=%.4g jobs=%d", c.label, rr.MeanResponseTime.Mean, nJobs)
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
