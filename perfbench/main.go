// Command perfbench is the end-to-end benchmark of the simulator. It runs
// one workload, one simulation at a time through cluster.Run, for a fixed
// host-time budget, checks every run's output, and prints every metric by
// name and unit. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload fleet --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced run and reports the per-layer metrics instead. Reported times
// are scaled to a reference host speed (see calib.go).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times the set-up (input construction plus one
// untimed warm-up run) is repeated; setup_s is the median.
const setupReps = 9

// minRuns keeps the tail defined and at or above the median: the tail
// percentile needs at least ten runs beyond it.
const minRuns = 21

// digestRuns is how many leading runs the printed digest covers, so it
// compares across commits whose run counts differ.
const digestRuns = 8

func main() {
	name := flag.String("workload", "", "workload: paper, fleet or faulty")
	seed := flag.Uint64("seed", 1, "workload seed; run i simulates at a seed derived from it")
	seconds := flag.Float64("seconds", 30, "host seconds to measure")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer run")
	spansDir := flag.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	if !(*seconds > 0) {
		fatal(fmt.Errorf("--seconds %v: want a positive number", *seconds))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	var rep *report
	if *trace == 1 {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		rep, err = tracedRun(w, *seed, *seconds, path)
	} else {
		rep, err = endToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s, seed %d, trace %d: %d timed runs\n", w.name, *seed, *trace, rep.runs)
	fmt.Printf("  why: %s\n  one run: %s\n", w.why, w.heterosim())
	for _, n := range rep.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, k := range rep.order {
		m := rep.metrics[k]
		fmt.Printf("  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Printf("  %-28s %14.6g ratio (%d of %d runs)\n", "run_fail_ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	for _, e := range rep.errs {
		fmt.Printf("  failed: %v\n", e)
	}
	fmt.Printf("digest %s %s over the first %d runs\n", w.name, rep.digest, min(rep.runs, digestRuns))
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one invocation's metrics and its run ledger.
type report struct {
	order     []string
	metrics   map[string]metric
	notes     []string
	runs      int // timed runs
	attempted int // every run: warm-ups, timed and traced passes
	failed    int
	errs      []error // the first few failures
	digest    string
}

func (r *report) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.order = append(r.order, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note counts one run in the ledger.
func (r *report) note(o outcome) {
	r.attempted++
	if o.err != nil {
		r.fail(o.err)
	}
}

// fail counts a failure not tied to a new run (a digest mismatch).
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// warmupSeed is the simulation seed of every set-up's warm-up run. It
// does not depend on --seed: run cost varies from seed to seed, and a
// fixed warm-up keeps setup_s timing the same work in every invocation.
var warmupSeed = runSeed(0, -1)

// setUp builds the workload's input and runs one untimed warm-up,
// setupReps times, and returns the last input with the median set-up
// time in reference-host seconds, scaled by the warm-up's kernel runs.
func setUp(w workload, rep *report) (*input, float64, error) {
	var in *input
	var secs []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		var err error
		if in, err = w.build(); err != nil {
			return nil, 0, err
		}
		o := in.run(warmupSeed, in.factory())
		rep.note(o)
		secs = append(secs, time.Since(t0).Seconds()*o.scale())
	}
	return in, median(secs), nil
}

// timedRuns runs operations 0, 1, ... until budget host seconds have
// passed and at least least runs are done.
func timedRuns(in *input, seed uint64, budget float64, least int, rep *report) []outcome {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	var runs []outcome
	for i := 0; i < least || time.Now().Before(deadline); i++ {
		o := in.run(runSeed(seed, i), in.factory())
		rep.note(o)
		runs = append(runs, o)
	}
	return runs
}

// endToEnd measures workload w's end-to-end metrics.
func endToEnd(w workload, seed uint64, seconds float64) (*report, error) {
	rep := &report{}
	in, setupS, err := setUp(w, rep)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runs := timedRuns(in, seed, seconds, minRuns, rep)
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	jobs := float64(sumJobs(runs))
	secs := make([]float64, len(runs))
	hostSecs := make([]float64, len(runs))
	kernelSecs := make([]float64, len(runs))
	tbar := make([]float64, 0, len(runs))
	for i, o := range runs {
		secs[i] = o.refSecs()
		hostSecs[i] = o.secs
		kernelSecs[i] = o.kernel
		if o.err == nil {
			tbar = append(tbar, o.tbar)
		}
	}
	sort.Float64s(secs)
	tailS, pct, ok := tail(secs, 10)
	if !ok {
		return nil, fmt.Errorf("%d runs leave no tail with ten beyond", len(secs))
	}
	rep.runs = len(runs)
	rep.add("sim_jobs_per_s", "1/s", jobsPerSec(runs))
	rep.add("run_s_p50", "s", median(secs))
	rep.add("run_s_tail", "s", tailS)
	rep.add("alloc_bytes_per_job", "B", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), jobs))
	rep.add("peak_rss_mb", "MB", rss)
	rep.add("setup_s", "s", setupS)
	rep.notes = append(rep.notes,
		fmt.Sprintf("run_s_tail is p%.4g of %d runs", pct, len(secs)),
		fmt.Sprintf("host speed: kernel median %.4g ms (reference %.4g ms); unscaled run_s_p50 %.4g s",
			median(kernelSecs)*1e3, calRefSeconds*1e3, median(hostSecs)),
		fmt.Sprintf("T̄ over runs: min %.4g  median %.4g  max %.4g s (reference %.4g, band ×%g)",
			minOf(tbar), median(tbar), maxOf(tbar), w.refT, refBand))
	rep.digest = digest(runs[:min(len(runs), digestRuns)])
	return rep, nil
}

// jobsPerSec is the median over runs of simulated jobs per
// reference-host second. The median keeps the few runs whose seeds pile
// up long PS queues, and so cost more per job, from moving the figure.
func jobsPerSec(runs []outcome) float64 {
	rates := make([]float64, len(runs))
	for i, o := range runs {
		rates[i] = ratio(float64(o.jobs), o.refSecs())
	}
	return median(rates)
}

// meanRefSecs is the mean time of runs in reference-host seconds.
func meanRefSecs(runs []outcome) float64 {
	s := 0.0
	for _, o := range runs {
		s += o.refSecs()
	}
	return ratio(s, float64(len(runs)))
}

func sumJobs(runs []outcome) int64 {
	var n int64
	for _, o := range runs {
		n += o.jobs
	}
	return n
}

// median returns the median of xs (the mean of the middle two for even
// lengths); xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the sample at the highest percentile of sorted that
// leaves at least beyond samples above it, and that percentile. It
// reports false when sorted holds beyond samples or fewer.
func tail(sorted []float64, beyond int) (v, pct float64, ok bool) {
	n := len(sorted)
	if n <= beyond {
		return 0, 0, false
	}
	k := n - 1 - beyond
	return sorted[k], 100 * float64(k+1) / float64(n), true
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
