// Command benchreg is the benchmark-regression harness front end. It runs
// the repository's benchmark suites (`go test -bench -benchmem`),
// normalizes the output into a schema-versioned JSON report (see
// internal/benchreg), and gates changes against a committed baseline.
//
// Modes (first argument):
//
//	benchreg baseline -out BENCH_2026-10-19.json
//	    Run the suites and write a new baseline report.
//
//	benchreg check -baseline BENCH_2026-10-19.json [-save current.json]
//	    Run the suites, compare against the baseline, print the delta
//	    table and exit non-zero on any hot-path regression: ns/op worse
//	    than -threshold, or ANY allocs/op increase. It also exits
//	    non-zero when RoundRobinNext's ns/op at its largest n exceeds
//	    twice that at its smallest in the current run
//	    (benchreg.DefaultFlatRules). This is `make benchcheck`.
//
//	benchreg run [-save current.json]
//	    Run the suites and print the normalized report without comparing.
//
// All modes accept -input FILE to parse previously captured `go test
// -bench` output (raw text or `go test -json`) instead of running the
// benchmarks — useful for archiving CI logs or re-checking an old run.
//
// ns/op is hardware-dependent: compare against baselines recorded on
// similar hardware, and give CI extra -threshold headroom. allocs/op is
// exact on any machine; the zero-allocation hot path is enforced
// everywhere.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"heterosched/internal/benchreg"
	"heterosched/internal/probe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	mode := os.Args[1]
	fs := flag.NewFlagSet("benchreg "+mode, flag.ExitOnError)
	var (
		pkgs      = fs.String("pkgs", ".,./internal/sim,./internal/stats,./internal/dispatch", "comma-separated packages whose benchmarks to run (root macro suite + engine, estimator and dispatcher micro-benchmarks)")
		benchPat  = fs.String("bench", ".", "benchmark name pattern passed to -bench")
		benchtime = fs.String("benchtime", "1s", "per-benchmark measuring time passed to -benchtime")
		count     = fs.Int("count", 3, "benchmark repetitions passed to -count; repeats are merged best-of to shed scheduling noise")
		input     = fs.String("input", "", "parse this `go test -bench` output file ('-' for stdin) instead of running")
		save      = fs.String("save", "", "write the normalized current report to this JSON file")
		out       = fs.String("out", "", "baseline mode: write the baseline report to this JSON file")
		baseline  = fs.String("baseline", "", "check mode: baseline JSON report to compare against")
		threshold = fs.Float64("threshold", 0.10, "tolerated relative ns/op regression on hot benchmarks (0 disables the ns gate)")
		hot       = fs.String("hot", "", "comma-separated hot-path name prefixes (default: the engine hot-path set)")
	)
	fs.Parse(os.Args[2:])

	switch mode {
	case "run", "check", "baseline":
	default:
		usage()
	}
	if mode == "baseline" && *out == "" {
		fatal(fmt.Errorf("baseline mode requires -out"))
	}
	if mode == "check" && *baseline == "" {
		fatal(fmt.Errorf("check mode requires -baseline"))
	}

	cur, err := currentReport(*input, *pkgs, *benchPat, *benchtime, *count)
	if err != nil {
		fatal(err)
	}
	if len(cur.Results) == 0 {
		fatal(fmt.Errorf("no benchmark results parsed — wrong -pkgs/-bench, or a failed run"))
	}
	cur.Date = time.Now().UTC().Format("2006-01-02")
	cur.Git = probe.GitDescribe(".")

	if *save != "" {
		if err := cur.Save(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("benchreg: wrote %s (%d benchmarks)\n", *save, len(cur.Results))
	}

	switch mode {
	case "baseline":
		if err := cur.Save(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("benchreg: wrote baseline %s (%d benchmarks, git %s)\n", *out, len(cur.Results), cur.Git)

	case "run":
		for _, r := range cur.Results {
			extra := ""
			if v, ok := r.Metrics["events/s"]; ok {
				extra = fmt.Sprintf("  %.4g events/s", v)
			}
			allocs := "n/a"
			if r.AllocsPerOp >= 0 {
				allocs = fmt.Sprintf("%v", r.AllocsPerOp)
			}
			fmt.Printf("%-44s %12.4g ns/op  %8s allocs/op%s\n", r.Name, r.NsPerOp, allocs, extra)
		}

	case "check":
		base, err := benchreg.Load(*baseline)
		if err != nil {
			fatal(err)
		}
		th := benchreg.Thresholds{MaxNsRegression: *threshold}
		if *hot != "" {
			th.HotPrefixes = strings.Split(*hot, ",")
		}
		deltas, cmpErr := benchreg.Compare(base, cur, th)
		fmt.Printf("benchreg: baseline %s (%s, git %s) vs current (git %s)\n",
			*baseline, base.Date, base.Git, cur.Git)
		fmt.Print(benchreg.FormatDeltas(deltas))
		flats, flatErr := benchreg.CheckFlat(cur, benchreg.DefaultFlatRules)
		fmt.Print(benchreg.FormatFlats(flats))
		if cmpErr != nil {
			fatal(cmpErr)
		}
		if flatErr != nil {
			fatal(flatErr)
		}
		fmt.Println("benchreg: ok — no hot-path regressions, every gated family flat in n")
	}
}

// currentReport obtains the current measurements: by parsing a captured
// output file, or by running `go test -bench` over the requested packages.
func currentReport(input, pkgs, benchPat, benchtime string, count int) (*benchreg.Report, error) {
	if input != "" {
		var r io.Reader
		if input == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(input)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		return benchreg.Parse(r)
	}

	var combined bytes.Buffer
	for _, pkg := range strings.Split(pkgs, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		args := []string{"test", "-run", "^$", "-bench", benchPat, "-benchmem",
			"-benchtime", benchtime, "-count", fmt.Sprint(count), pkg}
		fmt.Fprintf(os.Stderr, "benchreg: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stdout = io.MultiWriter(&combined, os.Stderr)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go test -bench %s: %w", pkg, err)
		}
	}
	return benchreg.Parse(&combined)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: benchreg <run|check|baseline> [flags]
  benchreg baseline -out BENCH_<date>.json
  benchreg check -baseline BENCH_<date>.json [-threshold 0.10] [-save cur.json]
  benchreg run [-save cur.json]
run 'benchreg <mode> -h' for flags`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreg:", err)
	os.Exit(1)
}
