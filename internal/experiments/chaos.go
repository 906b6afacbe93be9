package experiments

import (
	"fmt"

	"heterosched/internal/chaos"
	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/report"
	"heterosched/internal/stats"
)

// This file is the ext-chaos study: the chaos harness (internal/chaos)
// as an experiment artifact. Part A sweeps the scenario sampler's
// intensity knob and reports the invariant pass rate of the full
// registry — after the composition bugs the harness surfaced were
// fixed, the pass rate is the regression signal: any row below 100%
// is a new ownership bug between the fault layers. Part B holds one
// fixed composed scenario (all four layers at moderate settings) and
// compares how ORR and ORAN degrade under it relative to their own
// clean-run baselines: the paper's round-robin edge is partly an
// artifact of the perfect-dispatcher assumption, and the composed
// faults price that assumption.

// ChaosIntensities are the Part A sampler intensities, from mild
// perturbations to the configured maxima.
var ChaosIntensities = []float64{0.25, 0.5, 0.75, 1.0}

// ChaosPolicies are the Part B policies compared under the fixed
// composed scenario.
var ChaosPolicies = []string{"ORR", "ORAN"}

// ChaosResult holds both parts of the ext-chaos study.
type ChaosResult struct {
	// Part A, indexed by ChaosIntensities: scenarios run, scenarios
	// violating any invariant, total jobs pushed through, and how many
	// scenarios composed all four fault layers at once.
	Intensities []float64
	Scenarios   []int
	Violated    []int
	Jobs        []int64
	FourLayer   []int

	// Part B, indexed by ChaosPolicies: mean response time on the clean
	// spec and on the composed-fault spec, across Reps seeds.
	Policies   []string
	CleanMean  []cluster.Summary
	ChaosMean  []cluster.Summary
	ChaosViol  []int
	Reps       int
	FixedLayer string
}

// chaosScenarioCount returns the Part A scenarios per intensity cell,
// scaled with the replication budget.
func chaosScenarioCount(reps int) int {
	n := 10 + 5*reps
	if n < 15 {
		n = 15
	}
	return n
}

// ExtChaos runs the chaos-harness study.
func ExtChaos(o Options) (*ChaosResult, error) {
	o = o.withDefaults()
	// The sampler's own default horizon is 2e4 s; scale it with the
	// experiment budget the same way the paper runs scale (default
	// Scale 0.05 reproduces the sampler default exactly).
	dur := 4e5 * o.Scale
	res := &ChaosResult{
		Intensities: ChaosIntensities,
		Policies:    ChaosPolicies,
		Reps:        o.Reps,
	}

	// Part A: invariant pass rate over sampler intensity.
	n := chaosScenarioCount(o.Reps)
	for _, intensity := range ChaosIntensities {
		g := chaos.NewGenerator(&cli.ChaosSearch{
			Scenarios: n,
			Intensity: intensity,
			DimFaults: true, DimOverload: true, DimDrift: true, DimNet: true,
			Duration: dur,
			Speeds:   []float64{1, 1, 2, 10},
			Seed:     o.Seed,
		})
		violated, four := 0, 0
		var jobs int64
		for k := 0; k < g.Scenarios(); k++ {
			sc := g.Spec(k)
			rep, err := chaos.Execute(sc, chaos.Options{})
			if err != nil {
				return nil, fmt.Errorf("ext-chaos intensity %v scenario %d: %w", intensity, k, err)
			}
			if rep.Failed() {
				violated++
			}
			if len(sc.Layers()) == 4 {
				four++
			}
			jobs += rep.Result.GeneratedJobs
		}
		res.Scenarios = append(res.Scenarios, n)
		res.Violated = append(res.Violated, violated)
		res.Jobs = append(res.Jobs, jobs)
		res.FourLayer = append(res.FourLayer, four)
		o.logf("ext-chaos: intensity %.2f — %d scenarios, %d violated, %d jobs", intensity, n, violated, jobs)
	}

	// Part B: one fixed composed scenario, ORR vs ORAN, each against its
	// own clean baseline on the same seeds.
	fixed := chaos.Spec{Speeds: []float64{1, 1, 2, 10}, Rho: 0.7, Duration: dur}
	fixed.FaultParams = cli.FaultParams{MTBF: dur / 5, MTTR: dur / 60, Fate: "requeue", Retries: 3}
	fixed.OverloadParams = cli.OverloadParams{Timeout: 300, Retry: 2, Breaker: "5:400"}
	fixed.Drift = fmt.Sprintf("lcycle:%g:0.25", dur/3)
	fixed.NetfaultParams = cli.NetfaultParams{Netfault: "loss:0.05,dup:0.02,lat:5", AckTO: "60:4"}
	res.FixedLayer = "faults+overload+drift+netfault"
	for _, pol := range ChaosPolicies {
		var clean, chaotic stats.Sample
		viol := 0
		for r := 0; r < o.Reps; r++ {
			seed := o.Seed + uint64(r)
			cs := fixed
			cs.Policy = pol
			cs.Seed = seed
			rep, err := chaos.Execute(cs, chaos.Options{})
			if err != nil {
				return nil, fmt.Errorf("ext-chaos %s rep %d: %w", pol, r, err)
			}
			if rep.Failed() {
				viol++
			}
			chaotic.Add(rep.Result.MeanResponseTime)

			base := chaos.Spec{Speeds: cs.Speeds, Rho: cs.Rho, Duration: dur, Policy: pol, Seed: seed}
			brep, err := chaos.Execute(base, chaos.Options{})
			if err != nil {
				return nil, fmt.Errorf("ext-chaos %s baseline rep %d: %w", pol, r, err)
			}
			clean.Add(brep.Result.MeanResponseTime)
		}
		res.CleanMean = append(res.CleanMean, cluster.Summary{Mean: clean.Mean(), CI95: clean.CI95(), N: clean.N()})
		res.ChaosMean = append(res.ChaosMean, cluster.Summary{Mean: chaotic.Mean(), CI95: chaotic.CI95(), N: chaotic.N()})
		res.ChaosViol = append(res.ChaosViol, viol)
		o.logf("ext-chaos: %s clean %.4g s, composed %.4g s", pol, clean.Mean(), chaotic.Mean())
	}
	return res, nil
}

// Render formats both parts of the chaos study.
func (r *ChaosResult) Render() []*report.Table {
	a := report.NewTable(
		"extension — chaos A: invariant pass rate over sampler intensity (speeds 1,1,2,10, full registry)",
		"intensity", "scenarios", "violated", "pass rate %", "4-layer scenarios", "jobs checked")
	for i, x := range r.Intensities {
		pass := 100 * float64(r.Scenarios[i]-r.Violated[i]) / float64(r.Scenarios[i])
		a.AddRow(report.F2(x), fmt.Sprintf("%d", r.Scenarios[i]), fmt.Sprintf("%d", r.Violated[i]),
			report.F2(pass), fmt.Sprintf("%d", r.FourLayer[i]), fmt.Sprintf("%d", r.Jobs[i]))
	}
	a.AddNote("each scenario composes randomly sampled compute faults, overload protection, parameter drift and network faults")
	a.AddNote("checked invariants: job conservation, exactly-once finalization, event-lifecycle legality, queue caps, breaker state machine, progress watchdog")
	a.AddNote("any row below 100%% is a regression: `chaos search` shrinks the violating scenario to a minimal reproducer")

	b := report.NewTable(
		"extension — chaos B: policy degradation under one fixed composed scenario (rho=0.70)",
		"policy", "clean mean resp (s)", "composed mean resp (s)", "degradation x", "violations")
	for i, pol := range r.Policies {
		deg := "-"
		if r.CleanMean[i].Mean > 0 {
			deg = report.F2(r.ChaosMean[i].Mean / r.CleanMean[i].Mean)
		}
		b.AddRow(pol, report.F(r.CleanMean[i].Mean), report.F(r.ChaosMean[i].Mean),
			deg, fmt.Sprintf("%d", r.ChaosViol[i]))
	}
	b.AddNote("fixed scenario: " + r.FixedLayer + " — requeue faults, dispatch timeouts with breakers, cyclic load drift, 5%% loss / 2%% dup / 5 s latency links with ack resubmission")
	b.AddNote("degradation is each policy's composed-fault mean over its own clean mean on identical seeds")
	b.AddNote(fmt.Sprintf("%d replications", r.Reps))
	return []*report.Table{a, b}
}
