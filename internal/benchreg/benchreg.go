// Package benchreg is the benchmark-regression harness: it parses `go
// test -bench -benchmem` output (raw text or test2json), normalizes it
// into a schema-versioned report, and compares reports against a
// committed baseline with configurable thresholds.
//
// The gate (cmd/benchreg check, wired as `make benchcheck`) fails on a
// >Threshold ns/op regression or ANY allocs/op regression on the tagged
// hot-path benchmarks. ns/op is hardware-dependent — comparisons are only
// meaningful against a baseline recorded on similar hardware, so CI runs
// with extra headroom — while allocs/op is exact everywhere: the
// zero-allocation hot path (see internal/sim) is enforced bit-for-bit on
// any machine.
package benchreg

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the report layout; bump on incompatible
// changes so stale baselines are rejected instead of misread.
const SchemaVersion = 1

// Result is one normalized benchmark measurement.
type Result struct {
	// Name is the benchmark name without the "Benchmark" prefix and the
	// trailing "-GOMAXPROCS" suffix (sub-benchmarks keep their "/" path).
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem; -1 when absent.
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric units (e.g. "events/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is a schema-versioned set of benchmark results plus provenance.
type Report struct {
	Schema int `json:"schema"`
	// Date is the recording date (YYYY-MM-DD), supplied by the caller.
	Date string `json:"date"`
	// Git is `git describe --always --dirty` at recording time.
	Git string `json:"git,omitempty"`
	// GoOS/GoArch/CPU describe the recording machine.
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Results are sorted by name.
	Results []Result `json:"results"`
}

// Find returns the result with the given normalized name.
func (r *Report) Find(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Name == name {
			return res, true
		}
	}
	return Result{}, false
}

// NormalizeName strips the "Benchmark" prefix and the "-GOMAXPROCS"
// suffix: "BenchmarkEngineSteadyState-8" → "EngineSteadyState".
func NormalizeName(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// testEvent is the subset of test2json's event stream we care about.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// Parse reads `go test -bench` output — raw text or test2json lines,
// detected per line — and returns the benchmark results, sorted by name.
// Context lines (goos/goarch/cpu) populate the report's provenance.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Schema: SchemaVersion}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue // interleaved non-JSON noise
			}
			if ev.Action != "output" {
				continue
			}
			line = strings.TrimSuffix(ev.Output, "\n")
		}
		parseLine(rep, line)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchreg: reading bench output: %w", err)
	}
	rep.Results = mergeRepeats(rep.Results)
	sort.Slice(rep.Results, func(i, k int) bool { return rep.Results[i].Name < rep.Results[k].Name })
	return rep, nil
}

// mergeRepeats folds `-count N` repetitions of the same benchmark into a
// best-of record: minimum ns/op, B/op and allocs/op, maximum throughput
// metrics. The best repetition is the least noise-contaminated one, which
// makes the regression gate robust to transient load on shared machines.
func mergeRepeats(results []Result) []Result {
	byName := make(map[string]int, len(results))
	out := results[:0]
	for _, r := range results {
		i, seen := byName[r.Name]
		if !seen {
			byName[r.Name] = len(out)
			out = append(out, r)
			continue
		}
		m := &out[i]
		if r.NsPerOp < m.NsPerOp {
			m.NsPerOp = r.NsPerOp
		}
		if r.BytesPerOp >= 0 && (m.BytesPerOp < 0 || r.BytesPerOp < m.BytesPerOp) {
			m.BytesPerOp = r.BytesPerOp
		}
		if r.AllocsPerOp >= 0 && (m.AllocsPerOp < 0 || r.AllocsPerOp < m.AllocsPerOp) {
			m.AllocsPerOp = r.AllocsPerOp
		}
		if r.Iterations > m.Iterations {
			m.Iterations = r.Iterations
		}
		for k, v := range r.Metrics {
			if m.Metrics == nil {
				m.Metrics = make(map[string]float64)
			}
			if v > m.Metrics[k] {
				m.Metrics[k] = v
			}
		}
	}
	return out
}

// parseLine folds one output line into the report.
func parseLine(rep *Report, line string) {
	switch {
	case strings.HasPrefix(line, "goos: "):
		rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
		return
	case strings.HasPrefix(line, "goarch: "):
		rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
		return
	case strings.HasPrefix(line, "cpu: "):
		rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
		return
	}
	if !strings.HasPrefix(line, "Benchmark") {
		return
	}
	fields := strings.Fields(line)
	// Name, iterations, then (value, unit) pairs.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return
	}
	res := Result{
		Name:        NormalizeName(fields[0]),
		Iterations:  iters,
		BytesPerOp:  -1,
		AllocsPerOp: -1,
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	rep.Results = append(rep.Results, res)
}

// Load reads a report JSON file, rejecting unknown schema versions.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchreg: %s: %w", path, err)
	}
	if rep.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchreg: %s has schema %d, this build understands %d — re-record the baseline",
			path, rep.Schema, SchemaVersion)
	}
	return &rep, nil
}

// Save writes a report as indented JSON.
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Thresholds parameterize the regression gate.
type Thresholds struct {
	// MaxNsRegression is the tolerated relative ns/op increase on
	// hot-path benchmarks (0.10 = +10%). Zero or negative disables the
	// ns/op gate (allocs/op is still enforced).
	MaxNsRegression float64
	// HotPrefixes tag the gating benchmarks by normalized-name prefix.
	HotPrefixes []string
}

// DefaultHotPrefixes are the event-engine hot-path benchmarks
// (internal/sim) whose regressions fail the build, plus the online
// estimators (internal/stats) the adaptive layer calls once per job.
var DefaultHotPrefixes = []string{
	"EngineSteadyState",
	"EngineHeapOps",
	"EngineHold",
	"EngineReschedule",
	"EngineScheduleStep",
	"PSServerUpdate",
	"PSServerThroughput",
	"EstimatorSteadyState",
}

// Hot reports whether the (normalized) benchmark name is tagged hot-path.
func (t Thresholds) Hot(name string) bool {
	prefixes := t.HotPrefixes
	if prefixes == nil {
		prefixes = DefaultHotPrefixes
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// Delta is the comparison of one benchmark across two reports.
type Delta struct {
	Name                  string
	Hot                   bool
	BaseNs, CurNs         float64
	NsRatio               float64 // CurNs/BaseNs; NaN when BaseNs == 0
	BaseAllocs, CurAllocs float64
	Regressed             bool
	Reasons               []string
}

// Compare evaluates the current report against the baseline. It returns
// one Delta per benchmark present in both reports (sorted by name) and
// an error listing every hot-path regression — including hot baseline
// benchmarks missing from the current run, which would otherwise let a
// deleted benchmark silently lift its gate.
func Compare(base, cur *Report, th Thresholds) ([]Delta, error) {
	var deltas []Delta
	var failures []string
	for _, b := range base.Results {
		c, ok := cur.Find(b.Name)
		if !ok {
			if th.Hot(b.Name) {
				failures = append(failures, fmt.Sprintf("%s: present in baseline but not in current run", b.Name))
			}
			continue
		}
		d := Delta{
			Name:       b.Name,
			Hot:        th.Hot(b.Name),
			BaseNs:     b.NsPerOp,
			CurNs:      c.NsPerOp,
			NsRatio:    math.NaN(),
			BaseAllocs: b.AllocsPerOp,
			CurAllocs:  c.AllocsPerOp,
		}
		if b.NsPerOp > 0 {
			d.NsRatio = c.NsPerOp / b.NsPerOp
		}
		if d.Hot {
			if th.MaxNsRegression > 0 && b.NsPerOp > 0 &&
				c.NsPerOp > b.NsPerOp*(1+th.MaxNsRegression) {
				d.Reasons = append(d.Reasons, fmt.Sprintf("ns/op %.4g → %.4g (%+.1f%%, limit %+.0f%%)",
					b.NsPerOp, c.NsPerOp, (d.NsRatio-1)*100, th.MaxNsRegression*100))
			}
			if b.AllocsPerOp >= 0 && c.AllocsPerOp > b.AllocsPerOp {
				d.Reasons = append(d.Reasons, fmt.Sprintf("allocs/op %v → %v (any increase fails)",
					b.AllocsPerOp, c.AllocsPerOp))
			}
			if len(d.Reasons) > 0 {
				d.Regressed = true
				failures = append(failures, fmt.Sprintf("%s: %s", d.Name, strings.Join(d.Reasons, "; ")))
			}
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, k int) bool { return deltas[i].Name < deltas[k].Name })
	if len(failures) > 0 {
		return deltas, fmt.Errorf("benchreg: %d hot-path regression(s):\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	return deltas, nil
}

// FormatDeltas renders a comparison table; hot benchmarks are marked and
// regressions flagged.
func FormatDeltas(deltas []Delta) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s %12s %12s %8s %16s\n", "benchmark", "base ns/op", "cur ns/op", "Δ%", "allocs/op")
	for _, d := range deltas {
		mark := "  "
		if d.Hot {
			mark = "H "
		}
		if d.Regressed {
			mark = "✗ "
		}
		pct := "n/a"
		if !math.IsNaN(d.NsRatio) {
			pct = fmt.Sprintf("%+.1f", (d.NsRatio-1)*100)
		}
		allocs := "n/a"
		if d.BaseAllocs >= 0 || d.CurAllocs >= 0 {
			allocs = fmt.Sprintf("%v → %v", d.BaseAllocs, d.CurAllocs)
		}
		fmt.Fprintf(&sb, "%s%-42s %12.4g %12.4g %8s %16s\n", mark, d.Name, d.BaseNs, d.CurNs, pct, allocs)
	}
	return sb.String()
}
