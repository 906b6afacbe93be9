package experiments

import (
	"fmt"

	"heterosched/internal/alloc"
	"heterosched/internal/cluster"
	"heterosched/internal/report"
	"heterosched/internal/sched"
)

// This file holds experiments beyond the paper's evaluation: ablations of
// the design choices DESIGN.md calls out and sensitivity studies the paper
// leaves open.

// QuantumResult is the PS-vs-quantum-round-robin ablation: the paper's
// simulator uses "preemptive round-robin processor scheduling" while its
// analysis assumes processor sharing; this experiment quantifies how fast
// quantum RR converges to the PS limit on the base configuration.
type QuantumResult struct {
	// Labels and Ratios are parallel: the server discipline and its mean
	// response ratio under ORR.
	Labels []string
	Ratios []cluster.Summary
	Reps   int
}

// AblationQuantum compares exact PS against quantum round-robin at
// several quantum sizes (in seconds) under ORR on the base configuration
// at 70% load.
func AblationQuantum(o Options) (*QuantumResult, error) {
	o = o.withDefaults()
	res := &QuantumResult{Reps: o.Reps}
	type variant struct {
		label  string
		mutate func(*cluster.Config)
	}
	variants := []variant{
		{"PS (exact)", func(*cluster.Config) {}},
		{"RR quantum 0.1 s", func(c *cluster.Config) { c.Discipline = cluster.RR; c.Quantum = 0.1 }},
		{"RR quantum 1 s", func(c *cluster.Config) { c.Discipline = cluster.RR; c.Quantum = 1 }},
		{"RR quantum 10 s", func(c *cluster.Config) { c.Discipline = cluster.RR; c.Quantum = 10 }},
		{"RR quantum 100 s", func(c *cluster.Config) { c.Discipline = cluster.RR; c.Quantum = 100 }},
	}
	for _, v := range variants {
		cfg := cluster.Config{Speeds: BaseSpeeds(), Utilization: 0.70}
		v.mutate(&cfg)
		rr, err := o.runPoint(cfg, func() cluster.Policy { return sched.ORR() })
		if err != nil {
			return nil, fmt.Errorf("ext-quantum %s: %w", v.label, err)
		}
		res.Labels = append(res.Labels, v.label)
		res.Ratios = append(res.Ratios, rr.MeanResponseRatio)
		o.logf("ext-quantum: %s ratio=%.4g", v.label, rr.MeanResponseRatio.Mean)
	}
	return res, nil
}

// Render formats the quantum ablation.
func (r *QuantumResult) Render() *report.Table {
	t := report.NewTable(
		"ablation — server discipline: exact PS vs quantum round-robin (ORR, base config, rho=0.70)",
		"discipline", "mean resp ratio", "±95% CI")
	for i, l := range r.Labels {
		t.AddRow(l, report.F(r.Ratios[i].Mean), report.F(r.Ratios[i].CI95))
	}
	t.AddNote("small quanta converge to PS; large quanta degrade toward FCFS behavior")
	t.AddNote("%d replications", r.Reps)
	return t
}

// DispatchResult is the dispatch-strategy ablation: the paper compares
// Algorithm 2 against random; this adds the classic cyclic weighted
// round-robin found in traditional load balancers, isolating the value of
// Algorithm 2's interleaving.
type DispatchResult struct {
	Labels   []string
	Ratios   []cluster.Summary
	Fairness []cluster.Summary
	Reps     int
}

// AblationDispatch compares random, cyclic WRR, and Algorithm 2 dispatch
// under optimized allocation on the base configuration at 70% load.
func AblationDispatch(o Options) (*DispatchResult, error) {
	o = o.withDefaults()
	res := &DispatchResult{Reps: o.Reps}
	kinds := []struct {
		label string
		kind  sched.DispatchKind
	}{
		{"random (ORAN)", sched.RandomDispatch},
		{"cyclic WRR", sched.CyclicDispatch},
		{"Algorithm 2 (ORR)", sched.RoundRobinDispatch},
	}
	cfg := cluster.Config{Speeds: BaseSpeeds(), Utilization: 0.70}
	for _, k := range kinds {
		k := k
		rr, err := o.runPoint(cfg, func() cluster.Policy {
			return &sched.Static{Allocator: alloc.Optimized{}, Kind: k.kind, Label: k.label}
		})
		if err != nil {
			return nil, fmt.Errorf("ext-dispatch %s: %w", k.label, err)
		}
		res.Labels = append(res.Labels, k.label)
		res.Ratios = append(res.Ratios, rr.MeanResponseRatio)
		res.Fairness = append(res.Fairness, rr.Fairness)
		o.logf("ext-dispatch: %s ratio=%.4g", k.label, rr.MeanResponseRatio.Mean)
	}
	return res, nil
}

// Render formats the dispatch ablation.
func (r *DispatchResult) Render() *report.Table {
	t := report.NewTable(
		"ablation — dispatch strategy under optimized allocation (base config, rho=0.70)",
		"dispatcher", "mean resp ratio", "±95% CI", "fairness")
	for i, l := range r.Labels {
		t.AddRow(l, report.F(r.Ratios[i].Mean), report.F(r.Ratios[i].CI95), report.F(r.Fairness[i].Mean))
	}
	t.AddNote("cyclic WRR sends same-computer bursts; Algorithm 2 interleaves and wins")
	t.AddNote("%d replications", r.Reps)
	return t
}

// BurstinessResult is the arrival-burstiness sensitivity study: the
// paper fixes the inter-arrival CV at 3; this sweeps it. The optimized
// allocation is derived from an M/M/1 model (CV 1), so its advantage
// shrinks — and on some configurations inverts — as burstiness grows.
type BurstinessResult struct {
	CVs  []float64
	ORR  []cluster.Summary
	WRR  []cluster.Summary
	LL   []cluster.Summary
	Reps int
}

// BurstinessCVs is the swept inter-arrival coefficient of variation.
var BurstinessCVs = []float64{1, 2, 3, 4, 5}

// ExtBurstiness sweeps the arrival CV on the base configuration at 70%
// load for ORR, WRR and LL.
func ExtBurstiness(o Options) (*BurstinessResult, error) {
	o = o.withDefaults()
	res := &BurstinessResult{CVs: BurstinessCVs, Reps: o.Reps}
	for _, cv := range BurstinessCVs {
		cfg := cluster.Config{
			Speeds:      BaseSpeeds(),
			Utilization: 0.70,
			ArrivalCV:   cv,
		}
		orr, err := o.runPoint(cfg, func() cluster.Policy { return sched.ORR() })
		if err != nil {
			return nil, fmt.Errorf("ext-cv %v ORR: %w", cv, err)
		}
		wrr, err := o.runPoint(cfg, func() cluster.Policy { return sched.WRR() })
		if err != nil {
			return nil, fmt.Errorf("ext-cv %v WRR: %w", cv, err)
		}
		ll, err := o.runPoint(cfg, func() cluster.Policy { return sched.NewLeastLoad() })
		if err != nil {
			return nil, fmt.Errorf("ext-cv %v LL: %w", cv, err)
		}
		res.ORR = append(res.ORR, orr.MeanResponseRatio)
		res.WRR = append(res.WRR, wrr.MeanResponseRatio)
		res.LL = append(res.LL, ll.MeanResponseRatio)
		o.logf("ext-cv: cv=%v ORR=%.4g WRR=%.4g LL=%.4g",
			cv, orr.MeanResponseRatio.Mean, wrr.MeanResponseRatio.Mean, ll.MeanResponseRatio.Mean)
	}
	return res, nil
}

// Render formats the burstiness sweep.
func (r *BurstinessResult) Render() *report.Table {
	t := report.NewTable(
		"extension — sensitivity to arrival burstiness (base config, rho=0.70)",
		"arrival CV", "ORR", "WRR", "LL", "ORR gain over WRR %")
	for i, cv := range r.CVs {
		gain := 100 * (1 - r.ORR[i].Mean/r.WRR[i].Mean)
		t.AddRow(report.F(cv), report.F(r.ORR[i].Mean), report.F(r.WRR[i].Mean),
			report.F(r.LL[i].Mean), report.F2(gain))
	}
	t.AddNote("the M/M/1-derived allocation runs fast computers hotter; its edge shrinks as burstiness grows")
	t.AddNote("%d replications", r.Reps)
	return t
}

// BaselinesResult compares the paper's policies against the
// power-of-d-choices family: how much dynamic information is actually
// needed to beat the best static scheme?
type BaselinesResult struct {
	Labels   []string
	Ratios   []cluster.Summary
	Fairness []cluster.Summary
	Reps     int
}

// ExtBaselines runs ORR, JSQ(2), JSQ(4) and full Dynamic Least-Load on
// the base configuration at 70% load.
func ExtBaselines(o Options) (*BaselinesResult, error) {
	o = o.withDefaults()
	res := &BaselinesResult{Reps: o.Reps}
	cases := []struct {
		label   string
		factory cluster.PolicyFactory
	}{
		{"ORR (static)", func() cluster.Policy { return sched.ORR() }},
		{"JSQ(2)", func() cluster.Policy { return sched.NewPowerOfTwo() }},
		{"JSQ(4)", func() cluster.Policy { return &sched.LeastLoad{D: 4} }},
		{"Least-Load (full info)", func() cluster.Policy { return sched.NewLeastLoad() }},
	}
	cfg := cluster.Config{Speeds: BaseSpeeds(), Utilization: 0.70}
	for _, c := range cases {
		rr, err := o.runPoint(cfg, c.factory)
		if err != nil {
			return nil, fmt.Errorf("ext-baselines %s: %w", c.label, err)
		}
		res.Labels = append(res.Labels, c.label)
		res.Ratios = append(res.Ratios, rr.MeanResponseRatio)
		res.Fairness = append(res.Fairness, rr.Fairness)
		o.logf("ext-baselines: %s ratio=%.4g", c.label, rr.MeanResponseRatio.Mean)
	}
	return res, nil
}

// Render formats the baselines comparison.
func (r *BaselinesResult) Render() *report.Table {
	t := report.NewTable(
		"extension — static ORR vs sampled-information dynamic baselines (base config, rho=0.70)",
		"policy", "mean resp ratio", "±95% CI", "fairness")
	for i, l := range r.Labels {
		t.AddRow(l, report.F(r.Ratios[i].Mean), report.F(r.Ratios[i].CI95), report.F(r.Fairness[i].Mean))
	}
	t.AddNote("JSQ(d) probes d random computers per job with the same delayed load updates as Least-Load")
	t.AddNote("%d replications", r.Reps)
	return t
}
