package main

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/sim"
)

func TestSweepValues(t *testing.T) {
	got := sweepValues(0.3, 0.9, 0.2)
	want := []float64{0.3, 0.5, 0.7, 0.9}
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("value[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if sweepValues(0.9, 0.3, 0.1) != nil {
		t.Error("inverted range accepted")
	}
	if sweepValues(0.3, 0.9, 0) != nil {
		t.Error("zero step accepted")
	}
	if got := sweepValues(0.5, 0.5, 0.1); len(got) != 1 {
		t.Errorf("single point = %v", got)
	}
}

func TestSweepPolicyNames(t *testing.T) {
	cases := map[string]string{
		"ORR":      "ORR",
		"ll":       "LL",
		"JSQ2":     "JSQ(2)",
		"ORRcap.8": "ORRcap(0.8)",
		"ORR-10":   "ORR(-10%)",
	}
	for in, want := range cases {
		f, err := cli.ParsePolicy(in, cli.PolicyOptions{Computers: 2})
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", in, err)
			continue
		}
		if got := f().Name(); got != want {
			t.Errorf("ParsePolicy(%q).Name() = %q, want %q", in, got, want)
		}
	}
	if _, err := cli.ParsePolicy("nope", cli.PolicyOptions{}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunSweepSmoke(t *testing.T) {
	names, factories, err := cli.ParsePolicies("ORR,WRR", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tables, csvT, _, err := runSweep([]float64{1, 2}, []float64{0.4, 0.6}, names, factories,
		5000, 2, 1, 1, cli.Layers{}, cli.ProbeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables", len(tables))
	}
	out := csvT.String()
	if !strings.Contains(out, "ORR") || !strings.Contains(out, "0.6") {
		t.Errorf("csv table missing content:\n%s", out)
	}
}

// TestRunSweepWithFaults: a fault-enabled sweep grows the lost-jobs and
// degraded-response tables.
func TestRunSweepWithFaults(t *testing.T) {
	fc := &faults.Config{
		Uptime:   dist.NewExponential(2e3),
		Downtime: dist.NewExponential(200),
		Fate:     faults.RequeueToDispatcher,
	}
	var factories []cluster.PolicyFactory
	names := []string{"ORR"}
	f, err := cli.ParsePolicy("ORR", cli.PolicyOptions{Computers: 2, Faults: fc})
	if err != nil {
		t.Fatal(err)
	}
	factories = append(factories, f)
	tables, _, _, err := runSweep([]float64{1, 2}, []float64{0.3}, names, factories,
		1e4, 2, 1, 1, cli.Layers{Faults: fc}, cli.ProbeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d tables, want 5 (3 metrics + lost + degraded)", len(tables))
	}
	if s := tables[3].String(); !strings.Contains(s, "jobs lost") {
		t.Errorf("missing lost table:\n%s", s)
	}
}

// TestRunSweepWithOverload: an overload-enabled sweep may cross rho = 1
// and grows the goodput, drops and deadline-miss tables.
func TestRunSweepWithOverload(t *testing.T) {
	ovCfg, err := cli.OverloadParams{
		QCap: "30", Admit: "reject-when-full", Deadline: "exp:800", Retry: 1,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	names, factories, err := cli.ParsePolicies("ORR", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tables, _, _, err := runSweep([]float64{1, 2}, []float64{0.8, 1.2}, names, factories,
		1e4, 2, 1, 1, cli.Layers{Overload: ovCfg}, cli.ProbeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 7 {
		t.Fatalf("got %d tables, want 7 (3 metrics + goodput + drops + misses + streaming percentiles)", len(tables))
	}
	good := tables[3].String()
	if !strings.Contains(good, "goodput") {
		t.Errorf("missing goodput table:\n%s", good)
	}
	if drops := tables[4].String(); !strings.Contains(drops, "dropped") {
		t.Errorf("missing drops table:\n%s", drops)
	}
	if pct := tables[6].String(); !strings.Contains(pct, "p50/p90/p99/p999") {
		t.Errorf("missing streaming percentile table:\n%s", pct)
	}
}

// TestRunSweepWithProbe: a probe-enabled sweep grows the interarrival-CV
// table, writes one event stream per cell into the events directory, and
// returns per-cell metrics for the manifest.
func TestRunSweepWithProbe(t *testing.T) {
	dir := t.TempDir()
	names, factories, err := cli.ParsePolicies("ORR,ORAN", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pp := cli.ProbeParams{Probe: true, Events: dir}
	tables, _, metrics, err := runSweep([]float64{1, 2}, []float64{0.5}, names, factories,
		1e4, 1, 1, 1, cli.Layers{}, pp)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d tables, want 5 (3 metrics + interarrival CV + decomposition)", len(tables))
	}
	if s := tables[3].String(); !strings.Contains(s, "interarrival CV") {
		t.Errorf("missing CV table:\n%s", s)
	}
	for _, want := range []string{"interarrival_cv.ORR.rho0.5", "interarrival_cv.ORAN.rho0.5"} {
		if _, ok := metrics[want]; !ok {
			t.Errorf("manifest metrics missing %q (have %v)", want, metrics)
		}
	}
	// The §3 ordering: ORR's substreams are smoother than ORAN's.
	if !(metrics["interarrival_cv.ORR.rho0.5"] < metrics["interarrival_cv.ORAN.rho0.5"]) {
		t.Errorf("interarrival CV: ORR %v not below ORAN %v",
			metrics["interarrival_cv.ORR.rho0.5"], metrics["interarrival_cv.ORAN.rho0.5"])
	}
	for _, f := range []string{"ORR-rho0.5.jsonl", "ORAN-rho0.5.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing cell event stream: %v", err)
		}
	}
}

// badInitPolicy fails at Init, standing in for any per-cell setup error
// (e.g. alloc.ErrBadInput on a degenerate grid point).
type badInitPolicy struct{}

func (badInitPolicy) Name() string                { return "BAD" }
func (badInitPolicy) Init(*cluster.Context) error { return errors.New("synthetic cell failure") }
func (badInitPolicy) Select(*sim.Job) int         { return 0 }
func (badInitPolicy) Departed(*sim.Job)           {}

// TestRunSweepSkipsBadCells: a cell whose run fails must not abort the
// sweep — its cells render "-" in every table, a note names the cell,
// and the healthy policy's column still fills in.
func TestRunSweepSkipsBadCells(t *testing.T) {
	names, factories, err := cli.ParsePolicies("ORR", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "BAD")
	factories = append(factories, func() cluster.Policy { return badInitPolicy{} })
	tables, csvT, _, err := runSweep([]float64{1, 2}, []float64{0.4, 0.6}, names, factories,
		5000, 2, 1, 1, cli.Layers{}, cli.ProbeParams{})
	if err != nil {
		t.Fatalf("sweep aborted on a bad cell: %v", err)
	}
	// A skipped cell renders as a lone "-" in the BAD column (the last
	// cell of each data row), never as a number.
	cell := regexp.MustCompile(`(?m)^0\.4\s+\S+\s+-\s*$`)
	ratio := tables[1].String()
	if !cell.MatchString(ratio) {
		t.Errorf("ratio table missing skipped-cell placeholder:\n%s", ratio)
	}
	if !strings.Contains(ratio, "skipped cell BAD at rho=0.4: ") ||
		!strings.Contains(ratio, "synthetic cell failure") {
		t.Errorf("ratio table missing skip note:\n%s", ratio)
	}
	// The healthy column still has numeric cells.
	if out := csvT.String(); !strings.Contains(out, "ORR") {
		t.Errorf("csv table lost the healthy policy:\n%s", out)
	}
	for _, tb := range tables[:3] {
		if s := tb.String(); !cell.MatchString(s) {
			t.Errorf("table missing placeholder:\n%s", s)
		}
	}
}

// TestRunSweepWithDrift: drift plus an adaptive ORR sweep runs end to
// end and keeps its tables; the adaptive loop needs a Replannable
// policy, which ORR is.
func TestRunSweepWithDrift(t *testing.T) {
	names, factories, err := cli.ParsePolicies("ORR", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	driftCfg, adaptCfg, err := cli.DriftParams{
		Drift:  "lstep:5000:2",
		Replan: "100:0.85:500",
	}.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	tables, _, _, err := runSweep([]float64{1, 2}, []float64{0.4}, names, factories,
		1e4, 2, 1, 1, cli.Layers{Drift: driftCfg, Adapt: adaptCfg}, cli.ProbeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	if s := tables[1].String(); strings.Contains(s, "skipped cell") {
		t.Errorf("drift sweep produced skipped cells:\n%s", s)
	}
}

// TestRunSweepWithNetfault: a netfault-enabled sweep grows the
// network-loss and resubmission tables.
func TestRunSweepWithNetfault(t *testing.T) {
	nfCfg, err := cli.NetfaultParams{Netfault: "loss:0.1,lat:2", AckTO: "25:2"}.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	names, factories, err := cli.ParsePolicies("ORR", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tables, _, _, err := runSweep([]float64{1, 2}, []float64{0.4}, names, factories,
		1e4, 2, 1, 1, cli.Layers{Netfault: nfCfg}, cli.ProbeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d tables, want 5 (3 metrics + net-lost + resubmits)", len(tables))
	}
	if s := tables[3].String(); !strings.Contains(s, "lost to the network") {
		t.Errorf("missing net-lost table:\n%s", s)
	}
	if s := tables[4].String(); !strings.Contains(s, "resubmissions") {
		t.Errorf("missing resubmission table:\n%s", s)
	}
}

// TestRunSweepWithCtrl: a control-plane-enabled sweep grows the control
// loss and query-wait tables; the query-wait cell is "-" for a policy
// that issues no probes (static ORR) and numeric for one that does
// (jsq(2) — and jiq too, whose empty-token fallback samples queues).
func TestRunSweepWithCtrl(t *testing.T) {
	ctrlCfg, err := cli.CtrlParams{Ctrl: "loss:0.2,lat:2,lease:300,qto:30"}.Build(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	names, factories, err := cli.ParsePolicies("ORR,jsq(2)", cli.PolicyOptions{Computers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tables, _, _, err := runSweep([]float64{1, 2}, []float64{0.4}, names, factories,
		1e4, 2, 1, 1, cli.Layers{Ctrl: ctrlCfg}, cli.ProbeParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("got %d tables, want 5 (3 metrics + ctrl-lost + query wait)", len(tables))
	}
	lost := tables[3].String()
	if !strings.Contains(lost, "control messages lost") {
		t.Errorf("missing control-loss table:\n%s", lost)
	}
	wait := tables[4].String()
	if !strings.Contains(wait, "query wait") {
		t.Errorf("missing query-wait table:\n%s", wait)
	}
	// ORR (first policy column) never probes: its wait cell is "-";
	// jsq(2) (last column) probes every decision: numeric.
	cell := regexp.MustCompile(`(?m)^0\.4\s+-\s+\S+\s*$`)
	if !cell.MatchString(wait) {
		t.Errorf("query-wait row shape wrong (want ORR \"-\", jsq numeric):\n%s", wait)
	}
}
