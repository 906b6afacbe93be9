package cluster_test

import (
	"fmt"
	"math"
	"testing"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/experiments"
	"heterosched/internal/queueing"
	"heterosched/internal/sched"
)

// Analytic-oracle suite: with Poisson arrivals, exponential job sizes and
// random dispatch, Poisson splitting makes every computer an independent
// M/M/1-PS queue, so the simulated mean response time has an exact closed
// form — the paper's equation (3):
//
//	T̄ = Σ_i α_i / (s_i μ − α_i λ).
//
// Each cell below runs fixed-seed replications of the full simulator
// (arrival process → admission → dispatch → PS service → statistics) and
// requires the analytic value to fall inside the replications' 95%
// confidence interval. This validates the event engine end-to-end against
// theory rather than against its own history: any bias introduced by the
// slab engine, the job arena, or the statistics pipeline surfaces here as
// a systematic miss of the closed form.

// oracleReps is the replication count per cell; enough for a stable
// Student-t interval while keeping the suite fast.
const oracleReps = 10

// oracleDuration balances precision against suite time. Too short a run
// leaves a finite-horizon bias (the estimator sits slightly above the
// steady-state mean) that the tight CI correctly flags, so the -short
// setting cannot be made arbitrarily small.
func oracleDuration() float64 {
	if testing.Short() {
		return 6000
	}
	return 10000
}

func TestSimulatorMatchesAnalyticOracle(t *testing.T) {
	speeds := experiments.Table1Speeds // the paper's 7-computer system

	policies := []struct {
		name      string
		factory   cluster.PolicyFactory
		allocator alloc.Allocator
	}{
		// Random dispatch only: round-robin dispatch thins the arrival
		// stream into more regular (non-Poisson) substreams, so the
		// M/M/1-PS closed form applies to ORAN/WRAN, not ORR/WRR.
		{"ORAN", func() cluster.Policy { return sched.ORAN() }, alloc.Optimized{}},
		{"WRAN", func() cluster.Policy { return sched.WRAN() }, alloc.Proportional{}},
	}
	rhos := []float64{0.5, 0.7, 0.9}

	cell := 0
	for _, pol := range policies {
		for _, rho := range rhos {
			cell++
			seed := uint64(1000 + 17*cell) // fixed, distinct per cell
			t.Run(fmt.Sprintf("%s/rho=%.1f", pol.name, rho), func(t *testing.T) {
				alpha, err := pol.allocator.Allocate(speeds, rho)
				if err != nil {
					t.Fatal(err)
				}
				sys, err := queueing.SystemFromUtilization(speeds, 1.0, rho)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sys.MeanResponseTime(alpha)
				if err != nil {
					t.Fatal(err)
				}

				cfg := cluster.Config{
					Speeds:      speeds,
					Utilization: rho,
					JobSize:     dist.NewExponential(1.0),
					ArrivalCV:   1,
					Duration:    oracleDuration(),
					Seed:        seed,
				}
				res, err := cluster.RunReplications(cfg, pol.factory, oracleReps)
				if err != nil {
					t.Fatal(err)
				}
				got := res.MeanResponseTime

				if got.N != oracleReps || !(got.CI95 > 0) {
					t.Fatalf("degenerate summary: %+v", got)
				}
				// A sloppy interval would make the containment check
				// vacuous; require reasonable precision first.
				if got.CI95 > 0.25*want {
					t.Fatalf("CI95 %.4g too wide relative to analytic %.4g — not enough jobs for a meaningful check",
						got.CI95, want)
				}
				if diff := math.Abs(got.Mean - want); diff > got.CI95 {
					t.Errorf("simulated T̄ = %.5g ± %.2g (95%% CI, %d reps) excludes analytic %.5g (miss by %.2g)",
						got.Mean, got.CI95, got.N, want, diff)
				}
			})
		}
	}
}
