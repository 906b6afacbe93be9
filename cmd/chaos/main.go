// Command chaos drives the chaos harness (internal/chaos): randomized
// composition of the simulator's fault layers, checked in-process
// against the invariant registry, with automatic shrinking of any
// violating scenario to a minimal replayable reproducer.
//
// Usage:
//
//	chaos search [-chaos spec] [-out dir] [-v]
//	chaos replay -spec scenario [-out dir]
//	chaos shrink -spec scenario -invariant name [-out dir]
//	chaos list
//
// search samples seeded scenarios from the -chaos search space
// (seeds:N,intensity:X,dims:fail+over+drift+net,dur:T,rho:R,
// speeds:S1+S2+...,seed:S,stall:T,insys:N — every knob optional) and
// runs each against the full registry. A violating scenario is
// immediately shrunk and its minimal reproducer written to
// <out>/repro-<k>.chaos; the exit code is 1 if anything violated.
//
// replay runs one serialized scenario — a spec string or a path to a
// reproducer file — and reports every violation. With -out it also
// exports the run's lifecycle event stream (events.jsonl) and a run
// manifest (manifest.json) in the probe schema, so probecheck and the
// replay tooling work on chaos runs unchanged.
//
// shrink delta-debugs a violating scenario down to a minimal spec that
// still violates the named invariant (see `chaos list` for the
// registry).
//
// The -inject-double-final flag (replay/search/shrink) plants a
// deliberate double-OnFinal accounting bug for every job ID divisible
// by its value. It exists to validate the harness end to end: a seeded
// bug must be caught by the final-exactly-once invariant and shrunk to
// a deterministic reproducer. It is never set in honest runs.
//
// Scenarios are deterministic: the same spec string (or the same search
// seed and index) replays the same simulation, event for event.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"heterosched/internal/chaos"
	"heterosched/internal/cli"
	"heterosched/internal/probe"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "search":
		runSearch(os.Args[2:])
	case "replay":
		runReplay(os.Args[2:])
	case "shrink":
		runShrink(os.Args[2:])
	case "list":
		runList()
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "chaos: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  chaos search [-chaos spec] [-out dir] [-v]     sample and check scenarios
  chaos replay -spec scenario [-out dir]         re-run one scenario
  chaos shrink -spec scenario -invariant name    minimize a violating scenario
  chaos list                                     print the invariant registry`)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
	os.Exit(2)
}

func runList() {
	for _, inv := range chaos.Registry() {
		fmt.Printf("%-20s %s\n", inv.Name, inv.Desc)
	}
}

func runSearch(args []string) {
	fs := flag.NewFlagSet("chaos search", flag.ExitOnError)
	spec := fs.String("chaos", "seeds:200", "chaos search spec (seeds:N,intensity:X,dims:...,dur:T,...)")
	out := fs.String("out", "", "directory for reproducer artifacts of violating scenarios")
	verbose := fs.Bool("v", false, "print every scenario, not just violations")
	inject := fs.Int64("inject-double-final", 0, "test-only: double the OnFinal accounting for job IDs divisible by this")
	fs.Parse(args)

	cs, err := cli.ChaosParams{Chaos: *spec}.Build()
	if err != nil {
		fatal(err)
	}
	if cs == nil {
		fatal(fmt.Errorf("empty -chaos spec"))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	g := chaos.NewGenerator(cs)
	opts := chaos.Options{InjectDoubleFinal: *inject}
	violated := 0
	start := time.Now()
	for k := 0; k < g.Scenarios(); k++ {
		sc := g.Spec(k)
		rep, err := chaos.Execute(sc, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: scenario %d: %v\n", k, err)
			violated++
			continue
		}
		if !rep.Failed() {
			if *verbose {
				fmt.Printf("scenario %4d ok        layers=%s jobs=%d\n",
					k, strings.Join(sc.Layers(), "+"), rep.Result.GeneratedJobs)
			}
			continue
		}
		violated++
		fmt.Printf("scenario %4d VIOLATED  layers=%s\n  spec: %s\n",
			k, strings.Join(sc.Layers(), "+"), sc.String())
		for _, v := range rep.Violations {
			fmt.Printf("  %s\n", v)
		}
		// Shrink toward the first violated invariant and persist the
		// minimal reproducer.
		inv := rep.Violations[0].Invariant
		res, err := chaos.Shrink(sc, inv, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: scenario %d: shrink: %v\n", k, err)
			continue
		}
		fmt.Printf("  shrunk (%d runs, %d steps) to: %s\n", res.Runs, res.Steps, res.Spec.String())
		if *out != "" {
			path := filepath.Join(*out, fmt.Sprintf("repro-%d.chaos", k))
			if err := writeRepro(path, res.Spec, inv, *inject); err != nil {
				fatal(err)
			}
			fmt.Printf("  reproducer: %s\n", path)
		}
	}
	fmt.Printf("chaos search: %d scenarios, %d violated (%.2fs)\n",
		g.Scenarios(), violated, time.Since(start).Seconds())
	if violated > 0 {
		os.Exit(1)
	}
}

func runReplay(args []string) {
	fs := flag.NewFlagSet("chaos replay", flag.ExitOnError)
	specArg := fs.String("spec", "", "scenario spec string, or path to a reproducer file")
	out := fs.String("out", "", "directory for events.jsonl and manifest.json artifacts")
	inject := fs.Int64("inject-double-final", 0, "test-only: double the OnFinal accounting for job IDs divisible by this")
	fs.Parse(args)

	sc, err := loadSpec(*specArg)
	if err != nil {
		fatal(err)
	}
	opts := chaos.Options{InjectDoubleFinal: *inject}

	var events *os.File
	var jw *probe.JSONLWriter
	start := time.Now()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		events, err = os.Create(filepath.Join(*out, "events.jsonl"))
		if err != nil {
			fatal(err)
		}
		jw = probe.NewJSONLWriter(events)
		opts.Events = jw
	}

	rep, err := chaos.Execute(sc, opts)
	if err != nil {
		fatal(err)
	}
	if events != nil {
		if err := events.Close(); err != nil {
			fatal(err)
		}
		m := probe.NewManifest("chaos", args, start)
		m.Seed = sc.Seed
		m.WallSeconds = time.Since(start).Seconds()
		m.SimTime = rep.Result.SimulatedTime
		m.Config["spec"] = sc.String()
		m.Config["layers"] = strings.Join(sc.Layers(), "+")
		m.Metrics["mean_response_time"] = rep.Result.MeanResponseTime
		m.Metrics["mean_response_ratio"] = rep.Result.MeanResponseRatio
		m.Metrics["generated_jobs"] = float64(rep.Result.GeneratedJobs)
		m.Metrics["violations"] = float64(len(rep.Violations))
		if err := m.WriteFile(filepath.Join(*out, "manifest.json")); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("spec: %s\nlayers: %s\njobs: %d generated, %d finalized, %d events verified\n",
		sc.String(), strings.Join(sc.Layers(), "+"),
		rep.Result.GeneratedJobs, rep.FinalJobs, rep.EventStats.Events)
	if !rep.Failed() {
		fmt.Println("invariants: all ok")
		return
	}
	fmt.Printf("invariants: %d violations\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  %s\n", v)
	}
	os.Exit(1)
}

func runShrink(args []string) {
	fs := flag.NewFlagSet("chaos shrink", flag.ExitOnError)
	specArg := fs.String("spec", "", "scenario spec string, or path to a reproducer file")
	invariant := fs.String("invariant", "", "invariant to preserve while shrinking (see `chaos list`)")
	out := fs.String("out", "", "directory for the minimal reproducer file")
	inject := fs.Int64("inject-double-final", 0, "test-only: double the OnFinal accounting for job IDs divisible by this")
	fs.Parse(args)

	sc, err := loadSpec(*specArg)
	if err != nil {
		fatal(err)
	}
	if *invariant == "" {
		fatal(fmt.Errorf("shrink needs -invariant (see `chaos list`)"))
	}
	res, err := chaos.Shrink(sc, *invariant, chaos.Options{InjectDoubleFinal: *inject})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("shrunk in %d runs (%d accepted steps)\n  from: %s\n  to:   %s\n",
		res.Runs, res.Steps, sc.String(), res.Spec.String())
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		path := filepath.Join(*out, "repro.chaos")
		if err := writeRepro(path, res.Spec, *invariant, *inject); err != nil {
			fatal(err)
		}
		fmt.Printf("  reproducer: %s\n", path)
	}
}

// loadSpec resolves -spec: a path to a reproducer file (first
// non-comment line holds the spec) or a literal spec string.
func loadSpec(arg string) (chaos.Spec, error) {
	if arg == "" {
		return chaos.Spec{}, fmt.Errorf("missing -spec (a scenario string or reproducer file)")
	}
	if b, err := os.ReadFile(arg); err == nil {
		sc, err := chaos.ParseReproducer(string(b))
		if err != nil {
			return sc, fmt.Errorf("%s: %w", arg, err)
		}
		return sc, nil
	}
	return chaos.ParseSpec(arg)
}

// writeRepro persists a minimal reproducer: the spec line plus comments
// recording what it violates and how to replay it.
func writeRepro(path string, sc chaos.Spec, invariant string, inject int64) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# chaos reproducer: violates %s\n", invariant)
	fmt.Fprintf(&b, "# replay: chaos replay -spec %s", path)
	if inject > 0 {
		fmt.Fprintf(&b, " -inject-double-final %d", inject)
	}
	b.WriteString("\n")
	b.WriteString(sc.String())
	b.WriteString("\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
