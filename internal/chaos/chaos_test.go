package chaos

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/probe"
)

// TestSpecRoundTrip: String/ParseSpec must be inverses over generated
// scenarios — the replay path depends on it.
func TestSpecRoundTrip(t *testing.T) {
	g := NewGenerator(nil)
	for k := 0; k < 200; k++ {
		s := g.Spec(k)
		text := s.String()
		back, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("scenario %d: ParseSpec(%q): %v", k, text, err)
		}
		if got := back.String(); got != text {
			t.Fatalf("scenario %d: round trip changed the spec:\n  first:  %s\n  second: %s", k, text, got)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("scenario %d: round trip changed the struct: %+v vs %+v", k, back, s)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"",
		"seed=1;seed=2;rho=0.5;dur=1000",
		"rho=NaN;dur=1000",
		"dur=+Inf;rho=0.5",
		"bogus=1",
		"seed",
		"stall=-5;rho=0.5;dur=1000",
		"insys=-1;rho=0.5;dur=1000",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestGeneratedSpecsBuild: every sampled scenario must pass the shared
// cli validators — a generator emitting unbuildable specs would turn
// the search into noise.
func TestGeneratedSpecsBuild(t *testing.T) {
	g := NewGenerator(nil)
	n := 200
	if testing.Short() {
		n = 50
	}
	for k := 0; k < n; k++ {
		s := g.Spec(k)
		if _, _, err := s.Build(); err != nil {
			t.Errorf("scenario %d does not build: %v\n  spec: %s", k, err, s.String())
		}
		if len(s.Layers()) == 0 {
			t.Errorf("scenario %d enables no fault layer: %s", k, s.String())
		}
	}
}

// TestGeneratorDeterministic: scenario k is a pure function of the
// search seed — same inputs, same spec, independent of call order.
func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(nil), NewGenerator(nil)
	for _, k := range []int{17, 3, 17, 99, 0} {
		if sa, sb := a.Spec(k).String(), b.Spec(k).String(); sa != sb {
			t.Fatalf("scenario %d not deterministic:\n  %s\n  %s", k, sa, sb)
		}
	}
}

// chaosOffSpec is the pristine paper model: no fault layer enabled.
func chaosOffSpec() Spec {
	return Spec{Seed: 11, Speeds: []float64{1, 1, 2, 10}, Rho: 0.6, Duration: 2e4, Policy: "ORR"}
}

// TestGoldenChaosOff locks the chaos-off path: executing an all-layers-
// off spec through the harness (probe event fan-out, in-system sampling,
// OnFinal ledger attached) must reproduce a direct cluster.Run of the
// identical configuration bit for bit, and both must match the golden
// values. A drift here means the instrumentation perturbs the
// simulation — the one thing a measurement layer must never do.
func TestGoldenChaosOff(t *testing.T) {
	spec := chaosOffSpec()
	rep, err := Execute(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() {
		t.Fatalf("pristine run violated invariants: %v", rep.Violations)
	}

	cfg, pf, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The bare run: no probe, no sampling, no ledger.
	cfg.Probe = nil
	cfg.SampleInterval = 0
	bare, err := cluster.Run(cfg, pf())
	if err != nil {
		t.Fatal(err)
	}

	if rep.Result.MeanResponseTime != bare.MeanResponseTime ||
		rep.Result.MeanResponseRatio != bare.MeanResponseRatio ||
		rep.Result.Fairness != bare.Fairness ||
		rep.Result.Jobs != bare.Jobs ||
		rep.Result.GeneratedJobs != bare.GeneratedJobs {
		t.Errorf("instrumented run diverged from bare run:\n  instrumented: T=%v R=%v F=%v jobs=%d gen=%d\n  bare:         T=%v R=%v F=%v jobs=%d gen=%d",
			rep.Result.MeanResponseTime, rep.Result.MeanResponseRatio, rep.Result.Fairness, rep.Result.Jobs, rep.Result.GeneratedJobs,
			bare.MeanResponseTime, bare.MeanResponseRatio, bare.Fairness, bare.Jobs, bare.GeneratedJobs)
	}

	// Golden values captured at introduction (seed 11, speeds 1,1,2,10,
	// rho 0.6, duration 2e4, ORR, no warm-up, drained).
	const (
		goldenMeanT = 27.17453912556
		goldenMeanR = 0.4864144220966787
		goldenJobs  = 1964
	)
	if math.Abs(rep.Result.MeanResponseTime-goldenMeanT) > 1e-9 ||
		math.Abs(rep.Result.MeanResponseRatio-goldenMeanR) > 1e-12 ||
		rep.Result.Jobs != goldenJobs {
		t.Errorf("golden drift: T=%.13g R=%.16g jobs=%d (want T=%.13g R=%.16g jobs=%d)",
			rep.Result.MeanResponseTime, rep.Result.MeanResponseRatio, rep.Result.Jobs,
			goldenMeanT, goldenMeanR, goldenJobs)
	}
}

// TestChaosSweep is the in-tree chaos search: a seeded sweep of
// composed scenarios, each checked against the full invariant
// registry. Any violation is a real bug (or a broken invariant) —
// the failure message carries the replayable spec.
func TestChaosSweep(t *testing.T) {
	n := 40
	if testing.Short() {
		n = 8
	}
	g := NewGenerator(nil)
	for k := 0; k < n; k++ {
		spec := g.Spec(k)
		rep, err := Execute(spec, Options{})
		if err != nil {
			t.Errorf("scenario %d failed to run: %v", k, err)
			continue
		}
		if rep.Failed() {
			t.Errorf("scenario %d violated invariants:\n  spec: %s", k, spec.String())
			for _, v := range rep.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
}

// TestChaosCtrlSweep is the control-plane chaos search: a seeded sweep
// focused on the ctrl and net dimensions, so every scenario stresses
// the token/query/sync message paths (often composed with dispatch-side
// network faults), each checked against the full invariant registry —
// including the token lease, token conservation and exactly-once
// ledgers.
func TestChaosCtrlSweep(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 10
	}
	cs, err := cli.ParseChaosSpec(fmt.Sprintf("seeds:%d,dims:net+ctrl,seed:9", n))
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(cs)
	ctrlScenarios := 0
	for k := 0; k < n; k++ {
		spec := g.Spec(k)
		if spec.Ctrl != "" {
			ctrlScenarios++
		}
		rep, err := Execute(spec, Options{})
		if err != nil {
			t.Errorf("scenario %d failed to run: %v", k, err)
			continue
		}
		if rep.Failed() {
			t.Errorf("scenario %d violated invariants:\n  spec: %s", k, spec.String())
			for _, v := range rep.Violations {
				t.Errorf("  %s", v)
			}
		}
	}
	// The sampler joins the ctrl layer with probability ~1/2; a sweep
	// where almost none participated would be testing nothing.
	if ctrlScenarios < n/4 {
		t.Errorf("only %d of %d scenarios enabled the control plane", ctrlScenarios, n)
	}
}

// TestSeededBugCaught: the injected double-OnFinal bug must be caught
// by the final-exactly-once invariant — this validates the harness can
// see a real violation, not just pass clean runs.
func TestSeededBugCaught(t *testing.T) {
	spec := NewGenerator(nil).Spec(3)
	rep, err := Execute(spec, Options{InjectDoubleFinal: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violated(InvFinalOnce) {
		t.Fatalf("double-final injection not caught; violations: %v", rep.Violations)
	}
	// And the same spec without the bug is clean — the violation is the
	// injection, not the scenario.
	clean, err := Execute(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Fatalf("clean replay of the same spec violated: %v", clean.Violations)
	}
}

// TestShrinkSeededBug: the shrinker must reduce a violating composed
// scenario to a minimal spec that still violates the same invariant,
// deterministically.
func TestShrinkSeededBug(t *testing.T) {
	if testing.Short() {
		t.Skip("shrinking runs many simulations")
	}
	spec := NewGenerator(nil).Spec(3)
	opts := Options{InjectDoubleFinal: 7}

	res, err := Shrink(spec, InvFinalOnce, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatalf("shrink made no progress from %s", spec.String())
	}
	if len(res.Spec.String()) >= len(spec.String()) {
		t.Errorf("shrunk spec is not smaller:\n  before: %s\n  after:  %s", spec.String(), res.Spec.String())
	}

	// The minimal reproducer replays: parse its string and re-execute.
	back, err := ParseSpec(res.Spec.String())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(back, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violated(InvFinalOnce) {
		t.Fatalf("shrunk spec no longer violates %s: %s", InvFinalOnce, res.Spec.String())
	}

	// Determinism: a second shrink from the same start lands on the
	// same spec with the same run count.
	res2, err := Shrink(spec, InvFinalOnce, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Spec.String() != res.Spec.String() || res2.Runs != res.Runs {
		t.Errorf("shrink not deterministic:\n  first:  %s (%d runs)\n  second: %s (%d runs)",
			res.Spec.String(), res.Runs, res2.Spec.String(), res2.Runs)
	}
}

// TestShrinkRejectsWrongInvariant: shrinking toward an invariant the
// spec does not violate must error instead of silently minimizing
// toward an arbitrary scenario.
func TestShrinkRejectsWrongInvariant(t *testing.T) {
	spec := chaosOffSpec()
	if _, err := Shrink(spec, InvQueueCap, Options{}); err == nil {
		t.Fatal("Shrink accepted a non-violating starting spec")
	}
}

func TestBreakerWatch(t *testing.T) {
	ev := func(target int, state string) *probe.Event {
		return &probe.Event{Kind: probe.EvBreaker, Target: target, Cause: state}
	}
	bw := newBreakerWatch()
	for _, e := range []*probe.Event{
		ev(0, "open"), ev(0, "half-open"), ev(0, "closed"), // legal cycle
		ev(1, "open"), ev(1, "half-open"), ev(1, "open"), // legal: probe failed
	} {
		if err := bw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if len(bw.violations) != 0 {
		t.Fatalf("legal transitions flagged: %v", bw.violations)
	}

	bw = newBreakerWatch()
	for _, e := range []*probe.Event{
		ev(0, "half-open"),             // closed -> half-open is illegal
		ev(2, "open"), ev(2, "closed"), // open -> closed skips half-open
	} {
		bw.Write(e)
	}
	if len(bw.violations) != 2 {
		t.Fatalf("want 2 violations, got %v", bw.violations)
	}
	for _, v := range bw.violations {
		if v.Invariant != InvBreakerLegal {
			t.Errorf("violation attributed to %s, want %s", v.Invariant, InvBreakerLegal)
		}
	}
}

func TestCheckProgress(t *testing.T) {
	occupiedSeries := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = 5
		}
		return s
	}

	// A stall: jobs in the system throughout, no terminal between t=100
	// and t=1000 with a 300 s horizon.
	v := checkProgress([]float64{100, 1000}, occupiedSeries(100), 10, 1000, 300, 0)
	if len(v) != 1 || v[0].Invariant != InvProgress {
		t.Fatalf("stall not flagged: %v", v)
	}

	// Same gap, but the system is empty during it — benign lull.
	idle := occupiedSeries(100)
	for i := 10; i < 100; i++ {
		idle[i] = 0
	}
	if v := checkProgress([]float64{100, 1000}, idle, 10, 1000, 300, 0); len(v) != 0 {
		t.Fatalf("idle gap flagged: %v", v)
	}

	// Steady terminals: no gap exceeds the horizon.
	var terms []float64
	for ti := 50.0; ti <= 1000; ti += 50 {
		terms = append(terms, ti)
	}
	if v := checkProgress(terms, occupiedSeries(100), 10, 1000, 300, 0); len(v) != 0 {
		t.Fatalf("steady progress flagged: %v", v)
	}

	// Terminals after the horizon are the drain phase — gaps there are
	// benign even with jobs present.
	if v := checkProgress([]float64{200, 400, 600, 800, 2500}, occupiedSeries(100), 10, 1000, 300, 0); len(v) != 0 {
		t.Fatalf("drain-phase gap flagged: %v", v)
	}

	// The in-system ceiling.
	over := occupiedSeries(100)
	over[40] = 1e6
	v = checkProgress(terms, over, 10, 1000, 300, 100)
	if len(v) != 1 || v[0].Invariant != InvProgress {
		t.Fatalf("ceiling breach not flagged: %v", v)
	}
}

// TestRegistryCoversViolationCodes: every verifier code maps to a
// registry invariant, and the registry names are unique.
func TestRegistryCoversViolationCodes(t *testing.T) {
	names := map[string]bool{}
	for _, inv := range Registry() {
		if names[inv.Name] {
			t.Errorf("duplicate registry name %s", inv.Name)
		}
		names[inv.Name] = true
	}
	for _, code := range []string{
		probe.VioJSON, probe.VioKind, probe.VioTime, probe.VioJobTime,
		probe.VioArrivalDup, probe.VioPreArrival, probe.VioPostTerminal,
		probe.VioNoDispatch, probe.VioUnterminated,
	} {
		if inv := invariantForCode(code); !names[inv] {
			t.Errorf("code %s maps to unregistered invariant %s", code, inv)
		}
	}
}

// TestReproducersReplayClean replays every reproducer committed under
// testdata/ (the spec line of a `chaos replay` file) and requires every
// invariant to hold: each once violated one, and the fix must stay.
func TestReproducersReplayClean(t *testing.T) {
	paths, err := filepath.Glob("testdata/*.chaos")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no reproducers under testdata/ (%v)", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseReproducer(string(b))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Execute(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("%s", v)
			}
			if rep.FinalJobs == 0 {
				t.Error("no jobs checked")
			}
		})
	}
}

// TestGeneratorSamplesDispatchPlane: the search space must actually
// exercise the dispatch plane — over a modest sample, scenarios with
// K > 1 replicas, with counter sync, with scalable policies and with
// the centralized dynamic policies all appear, the last only at K = 1.
func TestGeneratorSamplesDispatchPlane(t *testing.T) {
	g := NewGenerator(nil)
	var sharded, synced, scalable, central int
	for k := 0; k < 200; k++ {
		s := g.Spec(k)
		if s.Dispatchers != "" {
			sharded++
		}
		if s.Sync != "" {
			synced++
		}
		switch {
		case strings.HasPrefix(s.Policy, "jsq"), strings.HasPrefix(s.Policy, "pod"), s.Policy == "jiq":
			scalable++
		case s.Policy == "LL", s.Policy == "LL*", s.Policy == "JSQ2":
			central++
			if s.Dispatchers != "" {
				t.Errorf("scenario %d shards the centralized policy %s: %s", k, s.Policy, s.String())
			}
		}
	}
	if sharded == 0 || synced == 0 || scalable == 0 || central == 0 {
		t.Fatalf("200 scenarios sampled %d sharded / %d synced / %d scalable / %d centralized; every dimension must appear",
			sharded, synced, scalable, central)
	}
}

// TestCompoundDispatcherCrashSharded is the compound regression the
// sharding PR adds: dispatcher crashes (network/control-plane layer)
// composed with K > 1 dispatcher replicas and the exactly-once delivery
// loop. Buffered jobs replayed after a crash must route through the
// sharded dispatcher without violating conservation, final-exactly-once
// or the queue invariants, for both a static sharded plan with counter
// sync and a scalable JIQ fleet.
func TestCompoundDispatcherCrashSharded(t *testing.T) {
	base := Spec{Seed: 11, Rho: 0.6, Duration: 20000}
	base.NetfaultParams = cli.NetfaultParams{
		Netfault: "loss:0.05,lat:5,crash:5000:200,down:buffer",
		AckTO:    "60:4",
		DState:   "acks",
	}
	cases := []struct {
		label       string
		policy      string
		dispatchers string
		sync        string
	}{
		{"static rr sync", "ORR", "4:rr", "500"},
		{"static hash no-sync", "ORR", "4:hash", ""},
		{"scalable jiq hash", "jiq", "4:hash", ""},
		{"scalable jsq2 rr", "jsq(2)", "2:rr", ""},
	}
	for _, c := range cases {
		s := base
		s.Policy = c.policy
		s.Dispatchers = c.dispatchers
		s.Sync = c.sync
		back, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("%s: round trip: %v", c.label, err)
		}
		rep, err := Execute(back, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if rep.Failed() {
			t.Errorf("%s violated invariants:\n  spec: %s", c.label, s.String())
			for _, v := range rep.Violations {
				t.Errorf("  %s", v)
			}
		}
		if rep.FinalJobs == 0 {
			t.Errorf("%s: no jobs checked", c.label)
		}
	}
}
