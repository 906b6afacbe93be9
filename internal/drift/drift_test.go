package drift

import (
	"math"
	"testing"

	"heterosched/internal/rng"
)

func TestStepFactorAndIntegral(t *testing.T) {
	s := Step{At: 100, Factor: 2}
	cases := []struct{ t0, dt, want float64 }{
		{0, 50, 50},       // entirely before
		{200, 50, 100},    // entirely after
		{90, 20, 10 + 20}, // straddles: 10·1 + 10·2
		{100, 10, 20},     // starts at the knee
		{0, 100, 100},     // ends at the knee
	}
	for _, c := range cases {
		if got := s.Integral(c.t0, c.dt); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Integral(%g, %g) = %v, want %v", c.t0, c.dt, got, c.want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Errorf("valid step rejected: %v", err)
	}
	for _, bad := range []Step{{At: -1, Factor: 2}, {At: 0, Factor: 0}, {At: math.NaN(), Factor: 2}, {At: 0, Factor: math.Inf(1)}} {
		if bad.Validate() == nil {
			t.Errorf("invalid step %+v accepted", bad)
		}
	}
}

func TestRampFactorAndIntegral(t *testing.T) {
	r := Ramp{From: 100, To: 200, Factor: 3}
	if r.FactorAt(50) != 1 || r.FactorAt(250) != 3 {
		t.Errorf("ramp endpoints: %v %v", r.FactorAt(50), r.FactorAt(250))
	}
	if got := r.FactorAt(150); math.Abs(got-2) > 1e-12 {
		t.Errorf("ramp midpoint = %v, want 2", got)
	}
	// Whole-ramp integral: trapezoid over [100,200] with heights 1 and 3.
	if got := r.Integral(100, 100); math.Abs(got-200) > 1e-12 {
		t.Errorf("ramp integral = %v, want 200", got)
	}
	// Additivity across the knees.
	whole := r.Integral(0, 300)
	split := r.Integral(0, 130) + r.Integral(130, 170)
	if math.Abs(whole-split) > 1e-9 {
		t.Errorf("integral not additive: %v vs %v", whole, split)
	}
	if (Ramp{From: 200, To: 100, Factor: 2}).Validate() == nil {
		t.Error("inverted ramp accepted")
	}
}

func TestCycleIntegralMatchesNumeric(t *testing.T) {
	c := Cycle{Period: 1000, Amplitude: 0.5}
	lo, hi := c.Bounds()
	if lo != 0.5 || hi != 1.5 {
		t.Errorf("bounds = %v, %v", lo, hi)
	}
	// Closed-form integral vs Riemann sum.
	t0, dt := 137.0, 2718.0
	steps := 200000
	sum := 0.0
	h := dt / float64(steps)
	for i := 0; i < steps; i++ {
		sum += (1 + c.Amplitude*math.Sin(2*math.Pi*(t0+(float64(i)+0.5)*h)/c.Period)) * h
	}
	if got := c.Integral(t0, dt); math.Abs(got-sum) > 1e-3 {
		t.Errorf("cycle integral = %v, numeric = %v", got, sum)
	}
	// One full period integrates to exactly the period.
	if got := c.Integral(0, c.Period); math.Abs(got-c.Period) > 1e-9 {
		t.Errorf("full-period integral = %v, want %v", got, c.Period)
	}
	if (Cycle{Period: 0, Amplitude: 0.5}).Validate() == nil ||
		(Cycle{Period: 10, Amplitude: 1}).Validate() == nil {
		t.Error("invalid cycle accepted")
	}
}

// fixedGap is a deterministic renewal base process with unit gaps.
type fixedGap struct{ gap float64 }

func (f fixedGap) Next(now float64, _ *rng.Stream) float64 { return now + f.gap }
func (f fixedGap) MeanRate() float64                       { return 1 / f.gap }

func TestModulatedInvertsSchedule(t *testing.T) {
	// Under factor 2, a base gap g must shrink to g/2 (double the rate);
	// under factor 1 it passes through unchanged.
	m := Modulated{Base: fixedGap{gap: 10}, Schedule: Step{At: 100, Factor: 2}}
	st := rng.New(1).Derive("test")
	if got := m.Next(0, st); math.Abs(got-10) > 1e-9 {
		t.Errorf("pre-step gap: next = %v, want 10", got)
	}
	if got := m.Next(200, st); math.Abs(got-205) > 1e-9 {
		t.Errorf("post-step gap: next = %v, want 205", got)
	}
	// Straddling the step: 5 s at factor 1 burns 5 of the base gap,
	// the remaining 5 at factor 2 takes 2.5 s -> arrival at 102.5.
	if got := m.Next(95, st); math.Abs(got-102.5) > 1e-6 {
		t.Errorf("straddling gap: next = %v, want 102.5", got)
	}
	if m.MeanRate() != 0.1 {
		t.Errorf("MeanRate = %v, want base 0.1", m.MeanRate())
	}
}

func TestModulatedLongRunRate(t *testing.T) {
	// Over many cycles the realized event count must match the
	// schedule-integrated rate: base rate 1 with amplitude 0.4 averages
	// back to 1 event/s over whole periods.
	m := Modulated{Base: fixedGap{gap: 1}, Schedule: Cycle{Period: 100, Amplitude: 0.4}}
	st := rng.New(2).Derive("test")
	now, n := 0.0, 0
	for now < 10000 {
		now = m.Next(now, st)
		n++
	}
	rate := float64(n) / now
	if math.Abs(rate-1) > 0.01 {
		t.Errorf("long-run modulated rate = %v, want ~1", rate)
	}
}

func TestMisestApply(t *testing.T) {
	m := Misest{RhoErr: -0.2, SpeedErr: 0.1}
	speeds := []float64{1, 2, 10}
	st1 := rng.New(42).Derive("misest")
	st2 := rng.New(42).Derive("misest")
	rho1, s1 := m.Apply(0.5, speeds, st1)
	rho2, s2 := m.Apply(0.5, speeds, st2)
	if rho1 != 0.4 {
		t.Errorf("assumed rho = %v, want 0.4", rho1)
	}
	if rho1 != rho2 {
		t.Errorf("rho not deterministic: %v vs %v", rho1, rho2)
	}
	for i := range speeds {
		if s1[i] != s2[i] {
			t.Errorf("speed %d not deterministic: %v vs %v", i, s1[i], s2[i])
		}
		if rel := math.Abs(s1[i]/speeds[i] - 1); rel > 0.1 {
			t.Errorf("speed %d error %v exceeds SpeedErr", i, rel)
		}
	}
	if speeds[0] != 1 || speeds[2] != 10 {
		t.Error("Apply modified its input slice")
	}
	if (Misest{}).Enabled() {
		t.Error("zero Misest reports enabled")
	}
	if !(Misest{RhoErr: 0.1}).Enabled() {
		t.Error("nonzero Misest reports disabled")
	}
	if (Misest{RhoErr: -1}).Validate() == nil || (Misest{SpeedErr: 1}).Validate() == nil {
		t.Error("invalid Misest accepted")
	}
}

func TestConfigEnabledAndValidate(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil Config enabled")
	}
	if err := nilCfg.Validate(4); err != nil {
		t.Errorf("nil Config invalid: %v", err)
	}
	if (&Config{}).Enabled() {
		t.Error("zero Config enabled")
	}
	cfg := &Config{Arrival: Step{At: 10, Factor: 2}}
	if !cfg.Enabled() {
		t.Error("configured drift reports disabled")
	}
	if err := cfg.Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (&Config{SpeedSteps: []SpeedStep{{At: 0, Computer: 5, Factor: 0.5}}}).Validate(4) == nil {
		t.Error("out-of-range speed-step computer accepted")
	}
	if cfg.Validate(0) == nil {
		t.Error("zero computers accepted")
	}
}

func TestSpecStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Step{At: 100, Factor: 2}.String(), "lstep:100:2"},
		{Ramp{From: 1, To: 2, Factor: 3}.String(), "lramp:1:2:3"},
		{Cycle{Period: 86400, Amplitude: 0.5}.String(), "lcycle:86400:0.5"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
