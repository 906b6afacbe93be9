package cluster

import (
	"math"
	"reflect"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/rng"
	"heterosched/internal/stats"
)

func TestRenewalProcess(t *testing.T) {
	p := RenewalProcess{Gap: dist.NewExponential(2.0)}
	if math.Abs(p.MeanRate()-0.5) > 1e-12 {
		t.Errorf("mean rate = %v, want 0.5", p.MeanRate())
	}
	st := rng.New(1)
	now := 0.0
	var acc stats.Accumulator
	for i := 0; i < 100000; i++ {
		next := p.Next(now, st)
		if next <= now {
			t.Fatal("arrival times not strictly increasing")
		}
		acc.Add(next - now)
		now = next
	}
	if math.Abs(acc.Mean()-2.0)/2.0 > 0.02 {
		t.Errorf("mean gap = %v, want 2", acc.Mean())
	}
}

// TestArrivalCVOneIsPoisson: ArrivalCV 1 selects the Poisson process, an
// exponential renewal stream at the configured rate, and not the default
// CV of 3.
func TestArrivalCVOneIsPoisson(t *testing.T) {
	base := Config{Speeds: []float64{1, 2}, Utilization: 0.7, Duration: 2e4, Seed: 9}
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg, &splitPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cv1 := base
	cv1.ArrivalCV = 1
	renewal := base
	renewal.Arrivals = RenewalProcess{Gap: dist.NewExponential(1 / base.Lambda())}
	got := run(cv1)
	if poisson := run(renewal); !reflect.DeepEqual(got, poisson) {
		t.Errorf("ArrivalCV 1 differs from an exponential renewal process:\n%+v\nvs\n%+v", got, poisson)
	}
	if def := run(base); reflect.DeepEqual(got, def) {
		t.Error("ArrivalCV 1 reproduces the default CV 3 run")
	}
}

func TestSinusoidalPoissonValidate(t *testing.T) {
	bad := []SinusoidalPoisson{
		{Rate: 0, Amplitude: 0.5, Period: 10},
		{Rate: 1, Amplitude: -0.1, Period: 10},
		{Rate: 1, Amplitude: 1.0, Period: 10},
		{Rate: 1, Amplitude: 0.5, Period: 0},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
	if (SinusoidalPoisson{Rate: 1, Amplitude: 0.5, Period: 10}).Validate() != nil {
		t.Error("valid parameters rejected")
	}
}

func TestSinusoidalPoissonMeanRate(t *testing.T) {
	p := SinusoidalPoisson{Rate: 2.0, Amplitude: 0.5, Period: 100}
	st := rng.New(3)
	now := 0.0
	count := 0
	const horizon = 200000.0
	for now < horizon {
		now = p.Next(now, st)
		count++
	}
	rate := float64(count) / horizon
	if math.Abs(rate-2.0)/2.0 > 0.02 {
		t.Errorf("observed mean rate %v, want 2", rate)
	}
}

func TestSinusoidalPoissonModulation(t *testing.T) {
	// Count arrivals in the peak half-period vs the trough half-period:
	// with amplitude 0.8 the ratio of integrated rates is
	// (1 + 2·0.8/π)/(1 − 2·0.8/π) ≈ 3.1.
	p := SinusoidalPoisson{Rate: 1.0, Amplitude: 0.8, Period: 1000}
	st := rng.New(4)
	now := 0.0
	peak, trough := 0, 0
	const cycles = 400
	for now < cycles*1000.0 {
		now = p.Next(now, st)
		phase := math.Mod(now, 1000) / 1000
		if phase < 0.5 {
			peak++ // sin > 0 half
		} else {
			trough++
		}
	}
	ratio := float64(peak) / float64(trough)
	want := (1 + 2*0.8/math.Pi) / (1 - 2*0.8/math.Pi)
	if math.Abs(ratio-want)/want > 0.05 {
		t.Errorf("peak/trough ratio %v, want ~%v", ratio, want)
	}
}

func TestSinusoidalPoissonZeroAmplitudeIsPoisson(t *testing.T) {
	p := SinusoidalPoisson{Rate: 1.5, Amplitude: 0, Period: 100}
	st := rng.New(5)
	now := 0.0
	var acc stats.Accumulator
	for i := 0; i < 100000; i++ {
		next := p.Next(now, st)
		acc.Add(next - now)
		now = next
	}
	// Exponential gaps: mean 1/1.5, CV 1.
	if math.Abs(acc.Mean()-1/1.5)*1.5 > 0.02 {
		t.Errorf("mean gap %v, want %v", acc.Mean(), 1/1.5)
	}
	if cv := acc.StdDev() / acc.Mean(); math.Abs(cv-1) > 0.02 {
		t.Errorf("gap CV %v, want 1", cv)
	}
}

func TestClusterWithSinusoidalArrivals(t *testing.T) {
	// End to end: drive a run with oscillating load and confirm the
	// realized utilization matches the configured average.
	meanSize := 1.0
	speeds := []float64{1, 1}
	rate := 0.7 * 2 / meanSize // average rho 0.7
	cfg := Config{
		Speeds:      speeds,
		Utilization: 0.7,
		JobSize:     dist.NewExponential(meanSize),
		Duration:    100000,
		Seed:        6,
		Arrivals:    SinusoidalPoisson{Rate: rate, Amplitude: 0.3, Period: 5000},
	}
	res, err := Run(cfg, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	util := (res.Utilizations[0] + res.Utilizations[1]) / 2
	if math.Abs(util-0.7) > 0.03 {
		t.Errorf("realized utilization %v, want ~0.7", util)
	}
	// Oscillating load must hurt relative to stationary Poisson at the
	// same average (convexity of delay in load).
	stationary := cfg
	stationary.Arrivals = nil
	stationary.ArrivalCV = 1
	resS, err := Run(stationary, &splitPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponseRatio <= resS.MeanResponseRatio {
		t.Errorf("oscillating load ratio %v not above stationary %v",
			res.MeanResponseRatio, resS.MeanResponseRatio)
	}
}

func TestClusterRejectsInvalidArrivalProcess(t *testing.T) {
	cfg := Config{
		Speeds:      []float64{1},
		Utilization: 0.5,
		Duration:    1000,
		Arrivals:    SinusoidalPoisson{Rate: -1, Amplitude: 0.3, Period: 100},
	}
	if _, err := Run(cfg, &fixedPolicy{}); err == nil {
		t.Error("invalid arrival process accepted")
	}
}
