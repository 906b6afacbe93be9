package cluster_test

import (
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/sched"
)

// composedLayersConfig is a small fleet with the per-message layers
// composed: lossy, duplicating, slow dispatch links with acks; lossy,
// duplicating, slow control links with token leases and a query
// timeout; and the span layer. withOverload adds deadlines (kill),
// dispatcher timeouts and a retry budget.
func composedLayersConfig(duration float64, withOverload bool) cluster.Config {
	speeds := make([]float64, 0, 40)
	for len(speeds) < 40 {
		speeds = append(speeds, 1, 1, 2, 10)
	}
	pb, err := probe.New(probe.Options{Spans: true})
	if err != nil {
		panic(err)
	}
	cfg := cluster.Config{
		Speeds:      speeds,
		Utilization: 0.7,
		Duration:    duration,
		Seed:        5,
		Probe:       pb,
		Netfault: &netfault.Config{
			Links: netfault.Links{Link: netfault.Link{Loss: 0.05, Dup: 0.05, Latency: dist.NewExponential(2)}},
			Ack:   netfault.Ack{Timeout: 30},
		},
		Ctrl: &ctrlplane.Config{
			Links:   netfault.Links{Link: netfault.Link{Loss: 0.2, Dup: 0.05, Latency: dist.NewExponential(5)}},
			Lease:   200,
			QueryTO: 15,
		},
	}
	if withOverload {
		cfg.Overload = &cluster.OverloadConfig{
			Deadline:       dist.NewExponential(900),
			DeadlineAction: cluster.DeadlineKill,
			Timeout:        400,
			RetryBudget:    2,
		}
	}
	return cfg
}

// TestComposedLayersSteadyStateAllocs locks the per-job and per-message
// paths at zero allocations. The first row is the path with every layer
// off (ORR on the same fleet): arrivals, dispatch and departures reuse
// arena jobs and engine slots. The other rows add the network-fault,
// control-plane, span and overload layers: copies, acks, ack timeouts,
// resubmission backoffs, token copies, lease renewals, late query
// replies, decision-cost holds and overload timers all schedule
// closure-free, outstanding dispatches live in a slab, and spans recycle
// their slots. Each row runs at a duration D and at 4D; per-run set-up
// cancels in the difference, which must stay under 0.05 allocations per
// extra job (slab and arena growth is logarithmic in the run length).
func TestComposedLayersSteadyStateAllocs(t *testing.T) {
	const d = 2000.0
	for _, row := range []struct {
		name             string
		layers, overload bool
	}{
		{"no layers (ORR)", false, false},
		{"layers", true, false},
		{"layers+overload", true, true},
	} {
		run := func(duration float64) (allocs float64, jobs int64) {
			allocs = testing.AllocsPerRun(1, func() {
				cfg := composedLayersConfig(duration, row.overload)
				var pol cluster.Policy = sched.ORR()
				if row.layers {
					jiq := sched.JIQ()
					jiq.Dispatchers = 4
					jiq.ShardBy = dispatch.ShardHash
					pol = jiq
				} else {
					cfg.Probe, cfg.Netfault, cfg.Ctrl = nil, nil, nil
				}
				res, err := cluster.Run(cfg, pol)
				if err != nil {
					t.Fatal(err)
				}
				jobs = res.GeneratedJobs
				if row.layers {
					requireLayersFired(t, res, cfg.Probe.SpanCount(), row.overload)
				}
			})
			return allocs, jobs
		}
		a1, j1 := run(d)
		a4, j4 := run(4 * d)
		perJob := (a4 - a1) / float64(j4-j1)
		t.Logf("%s: %.0f allocs for %d jobs, %.0f for %d: %.4f per extra job", row.name, a1, j1, a4, j4, perJob)
		if perJob >= 0.05 {
			t.Errorf("%s: %.3f allocations per extra job (%.0f at D, %.0f at 4D), want < 0.05", row.name, perJob, a1, a4)
		}
	}
}

// requireLayersFired fails unless every per-message path the allocation
// lock covers actually ran.
func requireLayersFired(t *testing.T, res *cluster.Result, spans int64, withOverload bool) {
	t.Helper()
	nf, cs := res.Netfault, res.Ctrl
	fired := map[string]int64{
		"copies lost":         nf.LostCopies,
		"duplicated copies":   nf.DupCopies,
		"acks":                nf.Acked,
		"ack timeouts":        nf.AckTimeouts,
		"resubmits":           nf.Resubmits,
		"token copies":        cs.TokensDelivered,
		"tokens lost":         cs.TokensLost,
		"tokens duplicated":   cs.TokensDup,
		"tokens deduplicated": cs.TokensDeduped,
		"late query replies":  cs.QueriesLate,
		"query timeouts":      cs.DecisionTimeouts,
		"spans":               spans,
	}
	if withOverload {
		ov := res.Overload
		fired["deadline kills"] = ov.KilledByDeadline
		fired["timeouts"] = ov.Timeouts
		fired["retries"] = ov.Retries
	}
	for what, n := range fired {
		if n == 0 {
			t.Errorf("overload=%v: no %s in the run", withOverload, what)
		}
	}
}

// table3Fleet is the paper's Table 3 speeds tiled to n computers.
func table3Fleet(n int) []float64 {
	table3 := []float64{1, 1, 1, 1, 1, 1.5, 1.5, 1.5, 1.5, 2, 2, 2, 5, 10, 12}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = table3[i%len(table3)]
	}
	return speeds
}

// TestSetUpAllocsPerComputer locks what a computer costs a run: one
// allocation, its PS server's bound departure method value. The servers
// come from one slab, their first job slots from one shared array, and
// Algorithm 2's dispatcher keeps one entry array. ORR runs on the Table 3
// speeds tiled to n = 200 and n = 3200, every layer off, for a horizon
// of about 2.7 jobs per computer (the end-to-end benchmark's fleet run).
// Per-run set-up cancels in the difference; what is left over one per
// computer is mostly servers that outgrow their two slots. A server
// allocated on its own, with its slice grown by append, costs about four.
func TestSetUpAllocsPerComputer(t *testing.T) {
	run := func(n int) (allocs float64, jobs int64) {
		cfg := cluster.Config{
			Speeds:      table3Fleet(n),
			Utilization: 0.7,
			Duration:    100,
			ArrivalCV:   3,
			Seed:        3,
		}
		allocs = testing.AllocsPerRun(1, func() {
			res, err := cluster.Run(cfg, sched.ORR())
			if err != nil {
				t.Fatal(err)
			}
			jobs = res.GeneratedJobs
		})
		return allocs, jobs
	}
	const small, large = 200, 3200
	a1, j1 := run(small)
	a2, j2 := run(large)
	perComputer := (a2 - a1) / (large - small)
	t.Logf("n=%d: %.0f allocs for %d jobs; n=%d: %.0f for %d: %.3f per extra computer", small, a1, j1, large, a2, j2, perComputer)
	if perComputer > 1.1 {
		t.Errorf("%.3f allocations per extra computer (%.0f at n=%d, %.0f at n=%d), want at most 1.1",
			perComputer, a1, small, a2, large)
	}
}
