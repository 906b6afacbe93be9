package sched

import (
	"math"
	"sort"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

func TestSITACutoffsEqualizeLoad(t *testing.T) {
	bp := dist.PaperJobSize()
	s := NewSITA(bp)
	speeds := []float64{1, 1, 2} // capacity shares 0.25, 0.25, 0.5
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		RNG:         rng.New(1),
	}
	if err := s.Init(ctx); err != nil {
		t.Fatal(err)
	}
	cut := s.cutoffs
	if len(cut) != 2 || cut[0] >= cut[1] {
		t.Fatalf("cutoffs = %v", cut)
	}
	mean := bp.Mean()
	if share := bp.PartialMean(cut[0]) / mean; math.Abs(share-0.25) > 1e-6 {
		t.Errorf("load below first cutoff = %v, want 0.25", share)
	}
	if share := bp.PartialMean(cut[1]) / mean; math.Abs(share-0.5) > 1e-6 {
		t.Errorf("load below second cutoff = %v, want 0.5", share)
	}
}

func TestSITARoutesBySize(t *testing.T) {
	bp := dist.PaperJobSize()
	s := NewSITA(bp)
	speeds := []float64{2, 1} // slow computer is index 1
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		RNG:         rng.New(2),
	}
	if err := s.Init(ctx); err != nil {
		t.Fatal(err)
	}
	cut := s.cutoffs[0]
	// Smallest jobs go to the slowest computer (index 1), the tail to the
	// fast one (index 0).
	if got := s.Select(&sim.Job{Size: bp.K}); got != 1 {
		t.Errorf("tiny job sent to %d, want slow computer 1", got)
	}
	if got := s.Select(&sim.Job{Size: bp.P}); got != 0 {
		t.Errorf("huge job sent to %d, want fast computer 0", got)
	}
	if got := s.Select(&sim.Job{Size: cut * 1.0001}); got != 0 {
		t.Errorf("job just above cutoff sent to %d, want 0", got)
	}
}

func TestSITASimulatedLoadBalance(t *testing.T) {
	// End to end: with cutoffs from the true workload, realized
	// utilizations are near-equal across computers (the "-E" in SITA-E).
	cfg := cluster.Config{
		Speeds:      []float64{1, 2, 4},
		Utilization: 0.6,
		Duration:    400000,
		Seed:        3,
	}
	res, err := cluster.Run(cfg, NewSITA(dist.PaperJobSize()))
	if err != nil {
		t.Fatal(err)
	}
	utils := append([]float64(nil), res.Utilizations...)
	sort.Float64s(utils)
	// Heavy tails converge slowly; accept a band around 0.6.
	if utils[0] < 0.35 || utils[2] > 0.85 {
		t.Errorf("utilizations %v not roughly equalized around 0.6", res.Utilizations)
	}
}

func TestSITABeatsRandomUnderFCFS(t *testing.T) {
	// The Crovella/Harchol-Balter result the paper cites: under FCFS
	// servers and heavy-tailed sizes, isolating the tail by size interval
	// dramatically beats size-blind weighted-random assignment.
	cfg := cluster.Config{
		Speeds:      []float64{1, 1, 2, 4},
		Utilization: 0.5,
		Duration:    400000,
		Discipline:  cluster.FCFS,
		Seed:        9,
	}
	sita, err := cluster.RunReplications(cfg, func() cluster.Policy { return NewSITA(dist.PaperJobSize()) }, 3)
	if err != nil {
		t.Fatal(err)
	}
	wran, err := cluster.RunReplications(cfg, func() cluster.Policy { return WRAN() }, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sita.MeanResponseRatio.Mean >= wran.MeanResponseRatio.Mean {
		t.Errorf("FCFS: SITA-E %v not below WRAN %v",
			sita.MeanResponseRatio.Mean, wran.MeanResponseRatio.Mean)
	}
	// The gap should be large (tail isolation), not marginal.
	if sita.MeanResponseRatio.Mean > 0.5*wran.MeanResponseRatio.Mean {
		t.Errorf("FCFS: SITA-E %v vs WRAN %v — expected a dramatic gap",
			sita.MeanResponseRatio.Mean, wran.MeanResponseRatio.Mean)
	}
}

func TestPartialMeanProperties(t *testing.T) {
	bp := dist.PaperJobSize()
	if bp.PartialMean(bp.K) != 0 {
		t.Error("partial mean at lower bound should be 0")
	}
	if math.Abs(bp.PartialMean(bp.P)-bp.Mean()) > 1e-9 {
		t.Errorf("partial mean at upper bound %v, want mean %v", bp.PartialMean(bp.P), bp.Mean())
	}
	// Monotone in x.
	prev := -1.0
	for x := bp.K; x <= bp.P; x *= 1.7 {
		pm := bp.PartialMean(x)
		if pm < prev {
			t.Fatalf("partial mean not monotone at %v", x)
		}
		prev = pm
	}
	// α ≠ 1 branch agrees with a sampled estimate.
	b2 := dist.NewBoundedPareto(1, 1000, 2.0)
	st := rng.New(5)
	const n = 500000
	sum := 0.0
	for i := 0; i < n; i++ {
		if x := b2.Sample(st); x <= 10 {
			sum += x
		}
	}
	est := sum / n
	if got := b2.PartialMean(10); math.Abs(got-est)/est > 0.02 {
		t.Errorf("PartialMean(10) = %v, sampled %v", got, est)
	}
}
