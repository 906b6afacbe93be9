package cli

import (
	"strings"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/sched"
)

func TestParseSpeeds(t *testing.T) {
	good, err := ParseSpeeds(" 1, 2 ,10 ")
	if err != nil || len(good) != 3 || good[2] != 10 {
		t.Fatalf("ParseSpeeds = %v, %v", good, err)
	}
	for _, bad := range []string{"", " , ", "1,x", "1,-2", "0", "1,Inf", "1,NaN"} {
		if _, err := ParseSpeeds(bad); err == nil {
			t.Errorf("ParseSpeeds(%q) accepted", bad)
		}
	}
}

func TestRunParamsValidate(t *testing.T) {
	base := RunParams{Rho: 0.5, Duration: 1e5, Reps: 3, CV: 3, MeanSize: 76.8}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*RunParams)
		flag string
	}{
		{"rho negative", func(p *RunParams) { p.Rho = -0.1 }, "-rho"},
		{"rho beyond cap", func(p *RunParams) { p.Rho = MaxRho + 1 }, "-rho"},
		{"duration zero", func(p *RunParams) { p.Duration = 0 }, "-duration"},
		{"reps zero", func(p *RunParams) { p.Reps = 0 }, "-reps"},
		{"cv below one", func(p *RunParams) { p.CV = 0.5 }, "-cv"},
		{"quantum negative", func(p *RunParams) { p.Quantum = -1 }, "-quantum"},
		{"meansize zero", func(p *RunParams) { p.MeanSize = 0 }, "-meansize"},
	}
	for _, tc := range cases {
		p := base
		tc.mut(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

func TestValidateSweepRange(t *testing.T) {
	if err := ValidateSweepRange(0.3, 0.9, 0.1); err != nil {
		t.Fatalf("valid range rejected: %v", err)
	}
	for _, tc := range [][3]float64{{0.9, 0.3, 0.1}, {0.3, 0.9, 0}, {-0.1, 0.9, 0.1}, {0.3, MaxRho + 1, 0.1}} {
		if err := ValidateSweepRange(tc[0], tc[1], tc[2]); err == nil {
			t.Errorf("range %v accepted", tc)
		}
	}
}

func TestFaultParamsBuild(t *testing.T) {
	// Disabled: zero MTBF yields no config, any realloc mode still parses.
	cfg, mode, err := FaultParams{Realloc: "resolve"}.Build()
	if err != nil || cfg != nil || mode != sched.ReallocResolve {
		t.Fatalf("disabled build = %v, %v, %v", cfg, mode, err)
	}
	// Enabled round trip.
	cfg, mode, err = FaultParams{MTBF: 2e4, MTTR: 2e3, Fate: "requeue", Retries: 5, Detect: 10, Realloc: "stale"}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Enabled() || cfg.Fate != faults.RequeueToDispatcher || cfg.MaxRetries != 5 || cfg.DetectionLag != 10 {
		t.Errorf("built config %+v wrong", cfg)
	}
	if mode != sched.ReallocStale {
		t.Errorf("mode %v, want stale", mode)
	}
	if m := cfg.Uptime.Mean(); m != 2e4 {
		t.Errorf("uptime mean %v, want 2e4", m)
	}
	// Rejections, each naming its flag.
	bad := []struct {
		p    FaultParams
		flag string
	}{
		{FaultParams{MTBF: -1, MTTR: 1, Fate: "lost", Realloc: "stale"}, "-mtbf"},
		{FaultParams{MTBF: 1, MTTR: 0, Fate: "lost", Realloc: "stale"}, "-mttr"},
		{FaultParams{MTBF: 1, MTTR: 1, Fate: "evaporate", Realloc: "stale"}, "-fate"},
		{FaultParams{MTBF: 1, MTTR: 1, Fate: "lost", Retries: -1, Realloc: "stale"}, "-retries"},
		{FaultParams{MTBF: 1, MTTR: 1, Fate: "requeue", Retries: 0, Realloc: "stale"}, "-fate lost"},
		{FaultParams{MTBF: 1, MTTR: 1, Fate: "lost", Detect: -1, Realloc: "stale"}, "-detect"},
		{FaultParams{MTBF: 1, MTTR: 1, Fate: "lost", Realloc: "often"}, "-realloc"},
	}
	for _, tc := range bad {
		_, _, err := tc.p.Build()
		if err == nil {
			t.Errorf("%+v accepted", tc.p)
			continue
		}
		if !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%+v: error %q does not name %s", tc.p, err, tc.flag)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	opts := PolicyOptions{Computers: 4}
	for _, name := range []string{"WRAN", "ORAN", "WRR", "ORR", "LL", "LL*", "JSQ2", "ORRCAP0.9", "ORR-10", "orr"} {
		f, err := ParsePolicy(name, opts)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", name, err)
			continue
		}
		if f() == nil {
			t.Errorf("ParsePolicy(%q): nil policy", name)
		}
	}
	for _, name := range []string{"", "XYZ", "ORRCAP2", "ORRCAPx", "ORR-200"} {
		if _, err := ParsePolicy(name, opts); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", name)
		}
	}
	// ORRA requires a failure model...
	if _, err := ParsePolicy("ORRA", opts); err == nil {
		t.Error("ORRA accepted without a failure model")
	}
	// ...and with one, the realloc mode is applied to the static policy.
	opts.Faults = &faults.Config{Uptime: dist.NewExponential(2e4), Downtime: dist.NewExponential(2e3)}
	opts.Realloc = sched.ReallocResolve
	f, err := ParsePolicy("ORRA", opts)
	if err != nil {
		t.Fatalf("ORRA with failure model: %v", err)
	}
	st, ok := f().(*sched.Static)
	if !ok || st.Realloc != sched.ReallocResolve {
		t.Errorf("ORRA factory = %#v, want *sched.Static with resolve mode", f())
	}
}

func TestParsePolicies(t *testing.T) {
	names, factories, err := ParsePolicies(" ORR , WRR ,LL", PolicyOptions{Computers: 2})
	if err != nil || len(names) != 3 || len(factories) != 3 {
		t.Fatalf("ParsePolicies = %v, %d factories, %v", names, len(factories), err)
	}
	if _, _, err := ParsePolicies(" , ", PolicyOptions{}); err == nil {
		t.Error("empty list accepted")
	}
	if _, _, err := ParsePolicies("ORR,nope", PolicyOptions{}); err == nil {
		t.Error("bad entry accepted")
	}
}
