package benchreg

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

const rawOutput = `goos: linux
goarch: amd64
pkg: heterosched/internal/sim
cpu: Intel(R) Xeon(R) CPU
BenchmarkEngineSteadyState-8    	10141957	       114.9 ns/op	   8699745 events/s	       0 B/op	       0 allocs/op
BenchmarkEngineSteadyStateRef-8 	 4533810	       260.0 ns/op	   3845599 events/s	     182 B/op	       3 allocs/op
BenchmarkEngineHeapOps-8        	 7603846	       157.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkTable1DynamicSplit/OPT/PS-8         	      37	  31234567 ns/op
PASS
ok  	heterosched/internal/sim	12.345s
`

func TestParseRaw(t *testing.T) {
	rep, err := Parse(strings.NewReader(rawOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.CPU != "Intel(R) Xeon(R) CPU" {
		t.Errorf("provenance = %q/%q/%q", rep.GoOS, rep.GoArch, rep.CPU)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(rep.Results), rep.Results)
	}
	r, ok := rep.Find("EngineSteadyState")
	if !ok {
		t.Fatal("EngineSteadyState not found")
	}
	if r.NsPerOp != 114.9 || r.BytesPerOp != 0 || r.AllocsPerOp != 0 || r.Iterations != 10141957 {
		t.Errorf("EngineSteadyState = %+v", r)
	}
	if r.Metrics["events/s"] != 8699745 {
		t.Errorf("events/s = %v, want 8699745", r.Metrics["events/s"])
	}
	if r, ok = rep.Find("EngineSteadyStateRef"); !ok || r.AllocsPerOp != 3 {
		t.Errorf("EngineSteadyStateRef = %+v (found %v)", r, ok)
	}
	// Sub-benchmark keeps its path; missing -benchmem fields default to -1.
	if r, ok = rep.Find("Table1DynamicSplit/OPT/PS"); !ok || r.BytesPerOp != -1 || r.AllocsPerOp != -1 {
		t.Errorf("Table1DynamicSplit/OPT/PS = %+v (found %v)", r, ok)
	}
}

func TestParseTest2JSON(t *testing.T) {
	// The same content as emitted by `go test -json`: each output line is
	// wrapped in an event, interleaved with non-output events.
	var sb strings.Builder
	sb.WriteString(`{"Action":"start","Package":"heterosched/internal/sim"}` + "\n")
	for _, line := range strings.Split(strings.TrimSuffix(rawOutput, "\n"), "\n") {
		ev, err := json.Marshal(map[string]string{"Action": "output", "Output": line + "\n"})
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(append(ev, '\n'))
	}
	sb.WriteString(`{"Action":"pass","Package":"heterosched/internal/sim"}` + "\n")

	rep, err := Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rep.Results))
	}
	if r, _ := rep.Find("EngineHeapOps"); r.NsPerOp != 157.9 {
		t.Errorf("EngineHeapOps ns/op = %v, want 157.9", r.NsPerOp)
	}
}

func TestParseMergesRepeatsBestOf(t *testing.T) {
	// `-count 3` output: three lines per benchmark; the merged record must
	// keep the fastest time and the highest throughput metric.
	const repeats = `
BenchmarkEngineSteadyState-8 	100	 120.0 ns/op	 8000000 events/s	 0 B/op	 0 allocs/op
BenchmarkEngineSteadyState-8 	120	  80.0 ns/op	12000000 events/s	 0 B/op	 0 allocs/op
BenchmarkEngineSteadyState-8 	110	 200.0 ns/op	 5000000 events/s	 0 B/op	 1 allocs/op
`
	rep, err := Parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("parsed %d results, want 1 merged record", len(rep.Results))
	}
	r := rep.Results[0]
	if r.NsPerOp != 80 || r.AllocsPerOp != 0 || r.Iterations != 120 {
		t.Errorf("merged record = %+v, want best-of (80 ns, 0 allocs, 120 iters)", r)
	}
	if r.Metrics["events/s"] != 12000000 {
		t.Errorf("merged events/s = %v, want 12000000", r.Metrics["events/s"])
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkEngineSteadyState-8":      "EngineSteadyState",
		"BenchmarkEngineSteadyState":        "EngineSteadyState",
		"BenchmarkTable1DynamicSplit/a-b-4": "Table1DynamicSplit/a-b",
		"BenchmarkFigure2-16":               "Figure2",
	} {
		if got := NormalizeName(in); got != want {
			t.Errorf("NormalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rep, err := Parse(strings.NewReader(rawOutput))
	if err != nil {
		t.Fatal(err)
	}
	rep.Date = "2026-08-06"
	rep.Git = "abc1234"
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != rep.Date || got.Git != rep.Git || len(got.Results) != len(rep.Results) {
		t.Errorf("round trip lost data: %+v", got)
	}
	r, _ := got.Find("EngineSteadyState")
	if r.Metrics["events/s"] != 8699745 {
		t.Errorf("round trip lost custom metric: %+v", r)
	}
}

func TestLoadRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rep := &Report{Schema: SchemaVersion + 1, Results: []Result{{Name: "X"}}}
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("Load accepted schema %d: err=%v", SchemaVersion+1, err)
	}
}

func mkReport(results ...Result) *Report {
	return &Report{Schema: SchemaVersion, Results: results}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := mkReport(
		Result{Name: "EngineSteadyState", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "Figure2", NsPerOp: 1000, AllocsPerOp: 50},
	)
	cur := mkReport(
		Result{Name: "EngineSteadyState", NsPerOp: 108, AllocsPerOp: 0}, // +8% < 10%
		Result{Name: "Figure2", NsPerOp: 5000, AllocsPerOp: 500},        // not hot: informational
	)
	deltas, err := Compare(base, cur, Thresholds{MaxNsRegression: 0.10})
	if err != nil {
		t.Fatalf("Compare failed: %v", err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	for _, d := range deltas {
		if d.Regressed {
			t.Errorf("%s flagged as regressed", d.Name)
		}
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	base := mkReport(Result{Name: "EngineHeapOps", NsPerOp: 100, AllocsPerOp: 0})
	cur := mkReport(Result{Name: "EngineHeapOps", NsPerOp: 120, AllocsPerOp: 0})
	deltas, err := Compare(base, cur, Thresholds{MaxNsRegression: 0.10})
	if err == nil {
		t.Fatal("Compare passed a +20% ns/op regression on a hot benchmark")
	}
	if !strings.Contains(err.Error(), "EngineHeapOps") {
		t.Errorf("error does not name the benchmark: %v", err)
	}
	if len(deltas) != 1 || !deltas[0].Regressed {
		t.Errorf("delta not flagged: %+v", deltas)
	}
}

func TestCompareAllocRegressionFailsRegardlessOfNs(t *testing.T) {
	base := mkReport(Result{Name: "PSServerUpdate", NsPerOp: 100, AllocsPerOp: 0})
	cur := mkReport(Result{Name: "PSServerUpdate", NsPerOp: 50, AllocsPerOp: 1}) // faster but allocating
	if _, err := Compare(base, cur, Thresholds{MaxNsRegression: 0.10}); err == nil {
		t.Fatal("Compare passed an allocs/op regression on a hot benchmark")
	}
	// Disabling the ns gate must not disable the allocs gate.
	if _, err := Compare(base, cur, Thresholds{MaxNsRegression: 0}); err == nil {
		t.Fatal("allocs/op gate vanished with the ns gate disabled")
	}
}

func TestCompareMissingHotBenchFails(t *testing.T) {
	base := mkReport(Result{Name: "EngineSteadyState", NsPerOp: 100, AllocsPerOp: 0})
	cur := mkReport(Result{Name: "Other", NsPerOp: 1, AllocsPerOp: -1})
	if _, err := Compare(base, cur, Thresholds{MaxNsRegression: 0.10}); err == nil {
		t.Fatal("Compare passed with a hot baseline benchmark missing from the current run")
	}
}

func TestCompareCustomHotPrefixes(t *testing.T) {
	base := mkReport(Result{Name: "MyBench", NsPerOp: 100, AllocsPerOp: 0})
	cur := mkReport(Result{Name: "MyBench", NsPerOp: 300, AllocsPerOp: 0})
	if _, err := Compare(base, cur, Thresholds{MaxNsRegression: 0.10}); err != nil {
		t.Fatalf("MyBench is not in the default hot set, Compare should pass: %v", err)
	}
	if _, err := Compare(base, cur, Thresholds{MaxNsRegression: 0.10, HotPrefixes: []string{"MyBench"}}); err == nil {
		t.Fatal("custom hot prefix ignored")
	}
}

func TestFormatDeltas(t *testing.T) {
	base := mkReport(
		Result{Name: "EngineSteadyState", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "EngineHeapOps", NsPerOp: 100, AllocsPerOp: 0},
	)
	cur := mkReport(
		Result{Name: "EngineSteadyState", NsPerOp: 95, AllocsPerOp: 0},
		Result{Name: "EngineHeapOps", NsPerOp: 150, AllocsPerOp: 0},
	)
	deltas, _ := Compare(base, cur, Thresholds{MaxNsRegression: 0.10})
	out := FormatDeltas(deltas)
	if !strings.Contains(out, "EngineSteadyState") || !strings.Contains(out, "✗") {
		t.Errorf("table missing expected content:\n%s", out)
	}
}

// dispatchOutput is `go test -bench` output from internal/dispatch with
// the given RoundRobinNext ns/op at n = 8, 200 and 3200.
func dispatchOutput(ns8, ns200, ns3200 float64) string {
	return fmt.Sprintf(`pkg: heterosched/internal/dispatch
BenchmarkRoundRobinNext/n=8-2         	40000000	        %v ns/op	       0 B/op	       0 allocs/op
BenchmarkRoundRobinNext/n=200-2       	40000000	        %v ns/op	       0 B/op	       0 allocs/op
BenchmarkRoundRobinNext/n=3200-2      	40000000	        %v ns/op	       0 B/op	       0 allocs/op
BenchmarkRoundRobinStartUp-2          	    1600	    684736 ns/op	  199520 B/op	       4 allocs/op
BenchmarkRandomNext/n=8-2             	48709484	        22.97 ns/op	       0 B/op	       0 allocs/op
BenchmarkRandomNext/n=3200-2          	11927602	       108.1 ns/op	       0 B/op	       0 allocs/op
`, ns8, ns200, ns3200)
}

func TestCheckFlat(t *testing.T) {
	for _, c := range []struct {
		name            string
		ns8, ns200, big float64
		ok              bool
	}{
		{"ring, flat in n", 26.5, 28.2, 29.3, true},
		{"heap, log n", 42.7, 99.1, 171.4, false}, // ×4.0
		{"limit is inclusive", 30, 45, 60, true},
	} {
		rep, err := Parse(strings.NewReader(dispatchOutput(c.ns8, c.ns200, c.big)))
		if err != nil {
			t.Fatal(err)
		}
		flats, err := CheckFlat(rep, DefaultFlatRules)
		if (err == nil) != c.ok {
			t.Errorf("%s: CheckFlat error %v, want ok = %v", c.name, err, c.ok)
		}
		if len(flats) != 1 {
			t.Fatalf("%s: %d flats, want 1", c.name, len(flats))
		}
		f := flats[0]
		if f.SmallN != 8 || f.LargeN != 3200 || f.Ratio != c.big/c.ns8 {
			t.Errorf("%s: %+v, want n=8 → n=3200, ratio %v", c.name, f, c.big/c.ns8)
		}
		if out := FormatFlats(flats); !strings.Contains(out, "RoundRobinNext") {
			t.Errorf("%s: table misses the family:\n%s", c.name, out)
		}
	}
}

// TestCheckFlatNeedsTwoSizes: a run that lost all but one size of a
// gated family, or the whole family, fails rather than passing vacuously.
func TestCheckFlatNeedsTwoSizes(t *testing.T) {
	one := mkReport(Result{Name: "RoundRobinNext/n=3200", NsPerOp: 170})
	none := mkReport(Result{Name: "RoundRobinNextSomething", NsPerOp: 1}, Result{Name: "RandomNext/n=8", NsPerOp: 1})
	for name, rep := range map[string]*Report{"one size": one, "no size": none} {
		if _, err := CheckFlat(rep, DefaultFlatRules); err == nil || !strings.Contains(err.Error(), "RoundRobinNext") {
			t.Errorf("%s: CheckFlat error %v, want a failure naming the family", name, err)
		}
	}
}
