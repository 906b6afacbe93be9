// Package chaos is the deterministic chaos-search engine: it samples
// composed fault scenarios from the cross-product of the repository's
// fault layers (compute faults × overload protection × parameter drift
// × network/control-plane faults), runs each against the cluster
// simulator with an in-process invariant registry attached, and
// delta-debugs any violating scenario down to a minimal reproducer.
//
// The paper's model is the happy path: a perfect dispatcher, perfect
// links, static parameters. Each robustness layer was stress-tested on
// its own when it landed; this package searches the *composition*,
// which is where schedulers actually break. Everything is seeded — the
// same spec string replays the same run, event for event.
package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
)

// Spec is one fully-determined chaos scenario. The workload fields are
// typed; the layers are the embedded cli.LayerFlags, the raw values of
// the front ends' layer flags (-dispatchers, -mtbf, -qcap, -drift,
// -netfault, -ctrl, ...). A scenario string names each set layer flag
// as a key with its value in the flag's own grammar, and Build runs
// the same internal/cli build chain as heterosim, so a scenario is
// trivially reproducible from the command line and the shrinker can
// drop grammar items one by one. A zero layer field is unset and means
// the flag's default; an all-unset spec runs the pristine paper model.
type Spec struct {
	// Seed drives every random stream of the run.
	Seed uint64
	// Speeds is the relative speed vector (default 1,1,2,10).
	Speeds []float64
	// Rho is the offered utilization.
	Rho float64
	// Duration is the horizon in simulated seconds; every scenario
	// drains past it so conservation is checkable.
	Duration float64
	// Policy is the dispatch policy mnemonic (default ORR).
	Policy string

	cli.LayerFlags

	// Watchdog bounds, serialized so a reproducer is self-contained.
	// Stall 0 and MaxInSystem 0 pick defaults at Execute time.
	Stall       float64
	MaxInSystem int64
}

// fnum formats a float the way the spec grammar round-trips it.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String serializes the spec as ";"-separated key=value pairs, layer
// values verbatim in their flag grammars (they may themselves contain
// commas and colons, which is why the item separator is ";"). Only
// non-zero fields are emitted; ParseSpec(s.String()) reproduces s.
func (s Spec) String() string {
	var items []string
	add := func(k, v string) { items = append(items, k+"="+v) }
	add("seed", strconv.FormatUint(s.Seed, 10))
	if len(s.Speeds) > 0 {
		sp := make([]string, len(s.Speeds))
		for i, v := range s.Speeds {
			sp[i] = fnum(v)
		}
		add("speeds", strings.Join(sp, ","))
	}
	add("rho", fnum(s.Rho))
	add("dur", fnum(s.Duration))
	if s.Policy != "" {
		add("policy", s.Policy)
	}
	items = append(items, s.LayerFlags.Items()...)
	if s.Stall > 0 {
		add("stall", fnum(s.Stall))
	}
	if s.MaxInSystem > 0 {
		add("insys", strconv.FormatInt(s.MaxInSystem, 10))
	}
	return strings.Join(items, ";")
}

// ParseReproducer parses a reproducer file's text: its first line that
// is neither blank nor a '#' comment holds the spec.
func ParseReproducer(text string) (Spec, error) {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			return ParseSpec(line)
		}
	}
	return Spec{}, fmt.Errorf("reproducer holds no spec line")
}

// ParseSpec parses a serialized scenario back into a Spec. The layer
// values are stored verbatim; deep validation happens in Build, exactly
// as the front ends do it.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	s = strings.TrimSpace(s)
	if s == "" {
		return sp, fmt.Errorf("empty chaos scenario spec")
	}
	seen := map[string]bool{}
	for _, item := range strings.Split(s, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return sp, fmt.Errorf("bad scenario item %q (want key=value)", item)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return sp, fmt.Errorf("duplicate scenario key %q", key)
		}
		seen[key] = true
		num := func(what string) (float64, error) {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return 0, fmt.Errorf("bad %s %q: %v", what, val, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("%s %v must be finite", what, v)
			}
			return v, nil
		}
		var err error
		switch key {
		case "seed":
			if sp.Seed, err = strconv.ParseUint(val, 10, 64); err != nil {
				return sp, fmt.Errorf("bad seed %q: %v", val, err)
			}
		case "speeds":
			if sp.Speeds, err = cli.ParseSpeeds(val); err != nil {
				return sp, err
			}
		case "rho":
			if sp.Rho, err = num("rho"); err != nil {
				return sp, err
			}
		case "dur":
			if sp.Duration, err = num("duration"); err != nil {
				return sp, err
			}
		case "policy":
			sp.Policy = val
		case "stall":
			if sp.Stall, err = num("stall horizon"); err != nil {
				return sp, err
			}
			if sp.Stall < 0 {
				return sp, fmt.Errorf("stall horizon %v must be >= 0", sp.Stall)
			}
		case "insys":
			if sp.MaxInSystem, err = strconv.ParseInt(val, 10, 64); err != nil {
				return sp, fmt.Errorf("bad in-system cap %q: %v", val, err)
			}
			if sp.MaxInSystem < 0 {
				return sp, fmt.Errorf("in-system cap %d must be >= 0", sp.MaxInSystem)
			}
		default:
			var known bool
			if known, err = sp.LayerFlags.Set(key, val); !known {
				return sp, fmt.Errorf("unknown scenario key %q", key)
			}
			if err != nil {
				return sp, err
			}
		}
	}
	return sp, nil
}

// Layers returns the names of the fault layers this spec enables, in
// registry order (faults, overload, drift, netfault).
func (s Spec) Layers() []string {
	var l []string
	if s.MTBF > 0 {
		l = append(l, "faults")
	}
	if s.QCap != "" || s.Admit != "" || s.Deadline != "" || s.Timeout > 0 || s.Breaker != "" {
		l = append(l, "overload")
	}
	if s.Drift != "" {
		l = append(l, "drift")
	}
	if s.Netfault != "" || s.AckTO != "" || s.DState != "" {
		l = append(l, "netfault")
	}
	if s.Ctrl != "" {
		l = append(l, "ctrl")
	}
	return l
}

// Build assembles the cluster configuration and policy factory for a
// checked run of this scenario: Config's, except that the run drains
// (conservation needs every arrival to resolve) and skips warm-up (the
// OnFinal ledger must cover every job).
func (s Spec) Build() (cluster.Config, cluster.PolicyFactory, error) {
	cfg, pf, err := s.Config()
	if err != nil {
		return cfg, nil, err
	}
	drain := true
	cfg.WarmupFraction = -1
	cfg.Drain = &drain
	return cfg, pf, nil
}

// Config assembles the cluster configuration and policy factory for
// this scenario through the front ends' layer build chain
// (LayerFlags.WithDefaults().Build, cli.ParsePolicy, Layers.Apply), with
// the front ends' warm-up and drain: a spec that builds is a spec the
// front ends would accept, and it runs as the heterosim command with
// the same flags.
func (s Spec) Config() (cluster.Config, cluster.PolicyFactory, error) {
	var cfg cluster.Config
	speeds := s.Speeds
	if len(speeds) == 0 {
		speeds = []float64{1, 1, 2, 10}
	}
	if !(s.Rho >= 0) || s.Rho > cli.MaxRho {
		return cfg, nil, fmt.Errorf("rho %v outside [0, %v]", s.Rho, float64(cli.MaxRho))
	}
	if !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
		return cfg, nil, fmt.Errorf("duration %v must be positive and finite", s.Duration)
	}
	layers, err := s.LayerFlags.WithDefaults().Build(len(speeds))
	if err != nil {
		return cfg, nil, err
	}
	policyName := s.Policy
	if policyName == "" {
		policyName = "ORR"
	}
	pf, err := cli.ParsePolicy(policyName, layers.Policy)
	if err != nil {
		return cfg, nil, err
	}

	cfg = cluster.Config{
		Speeds:      speeds,
		Utilization: s.Rho,
		Duration:    s.Duration,
		Seed:        s.Seed,
	}
	layers.Apply(&cfg)
	return cfg, pf, nil
}

// queueCap returns the bounded-queue capacity this spec configures, or
// 0 when queues are unbounded (the queue-cap invariant is vacuous).
func (s Spec) queueCap() int {
	if s.QCap == "" {
		return 0
	}
	capv, _, err := cli.ParseQueueCapSpec(s.QCap)
	if err != nil {
		return 0
	}
	return capv
}
