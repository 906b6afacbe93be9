package experiments

import (
	"heterosched/internal/cluster"
	"heterosched/internal/sched"
)

// Figure3FastSpeeds are the swept fast-computer speeds of §5.1, from a
// homogeneous system (1) to a highly skewed one (20).
var Figure3FastSpeeds = []float64{1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20}

// Figure3 reproduces §5.1 (effect of speed skewness): 18 computers — 2
// fast whose speed sweeps 1→20 and 16 slow at speed 1 — at 70%
// utilization, for WRAN/ORAN/WRR/ORR/LL.
//
// Expected shape (paper): optimized allocation beats weighted
// increasingly with skew (≈42% ORR-over-WRR and ≈49% ORAN-over-WRAN in
// mean response ratio at 20:1); round-robin beats random dispatch; ORR
// approaches Dynamic Least-Load beyond ≈20:1; optimized schemes are much
// fairer.
func Figure3(o Options) (*SweepResult, error) {
	return o.sweep("fig3", "fast speed", Figure3FastSpeeds,
		func(x float64) cluster.Config {
			return cluster.Config{
				Speeds:      Figure3Speeds(x),
				Utilization: 0.70,
			}
		},
		allPolicies())
}

// Figure4Sizes are the swept system sizes of §5.2.
var Figure4Sizes = []float64{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}

// Figure4 reproduces §5.2 (effect of system size): n/2 fast (speed 10)
// and n/2 slow (speed 1) computers at 70% utilization.
//
// Expected shape: ORR reduces mean response ratio over WRAN by 35–40% for
// n > 6; the ORR-vs-LL gap grows with n; round-robin policies improve with
// n as per-computer arrival streams smooth out.
func Figure4(o Options) (*SweepResult, error) {
	return o.sweep("fig4", "computers", Figure4Sizes,
		func(x float64) cluster.Config {
			return cluster.Config{
				Speeds:      Figure4Speeds(int(x)),
				Utilization: 0.70,
			}
		},
		allPolicies())
}

// Figure5Loads are the swept utilizations of §5.3.
var Figure5Loads = []float64{0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}

// Figure5 reproduces §5.3 (effect of system load) on the Table 3 base
// configuration (15 computers, aggregate speed 44).
//
// Expected shape: ORR best among static schemes everywhere; optimized
// allocation close to LL at low/moderate loads; at 90% load ORR's mean
// response ratio ≈24% below WRR and ≈34% below WRAN; the ORR-vs-LL gap
// grows at heavy load.
func Figure5(o Options) (*SweepResult, error) {
	return o.sweep("fig5", "utilization", Figure5Loads,
		func(x float64) cluster.Config {
			return cluster.Config{
				Speeds:      BaseSpeeds(),
				Utilization: x,
			}
		},
		allPolicies())
}

// Figure6Loads are the utilizations swept in the §5.4 sensitivity study.
var Figure6Loads = []float64{0.50, 0.60, 0.70, 0.80, 0.90}

// Figure6Errors are the relative load-estimation errors studied:
// negative = underestimate (Figure 6a), positive = overestimate (6b).
var Figure6Errors = []float64{-0.15, -0.10, -0.05, 0, +0.05, +0.10, +0.15}

// Figure6 reproduces §5.4 (sensitivity to load estimation): ORR computed
// with mis-estimated utilization on the base configuration, with exact ORR
// and WRR as references.
//
// Expected shape: overestimation is nearly harmless (it degrades ORR
// toward WRR); underestimation is harmless at light load but costly at
// high load — at 90% with −15% error the fast computers saturate and the
// system is unstable (response ratios blow up with run length).
func Figure6(o Options) (*SweepResult, error) {
	factories := []cluster.PolicyFactory{}
	for _, e := range Figure6Errors {
		e := e
		if e == 0 {
			factories = append(factories, func() cluster.Policy { return sched.ORR() })
			continue
		}
		factories = append(factories, func() cluster.Policy { return sched.ORRWithLoadError(e) })
	}
	factories = append(factories, func() cluster.Policy { return sched.WRR() })
	return o.sweep("fig6", "utilization", Figure6Loads,
		func(x float64) cluster.Config {
			return cluster.Config{
				Speeds:      BaseSpeeds(),
				Utilization: x,
			}
		},
		factories)
}
