// Package cli holds the input parsing and validation shared by the
// command-line front ends (cmd/heterosim, cmd/sweep) and the chaos
// scenarios (internal/chaos): speed lists, run parameters, the
// policy-mnemonic parser, and the layer flags (LayerFlags), declared
// once for all of them. Everything is validated up front with
// actionable messages, so bad flags never reach the panicking
// constructors deeper in the stack.
package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/faults"
	"heterosched/internal/sched"
)

// ParseSpeeds parses a comma-separated speed list and validates every
// entry (positive, finite).
func ParseSpeeds(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	speeds := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("bad speed %q: %v", p, err)
		}
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("speed %q must be positive and finite", p)
		}
		speeds = append(speeds, v)
	}
	if len(speeds) == 0 {
		return nil, fmt.Errorf("no speeds given (want e.g. -speeds 1,1,2,10)")
	}
	return speeds, nil
}

// parseFinite parses s, surrounding space trimmed, as a finite number;
// errors name the value what.
func parseFinite(s, what string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", what, s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%s %v must be finite", what, v)
	}
	return v, nil
}

// specItems calls fn for every non-empty item of a comma-separated spec
// list, split into its kind and colon-separated parts, and stops at the
// first error.
func specItems(s string, fn func(item, kind string, parts []string) error) error {
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, _ := strings.Cut(item, ":")
		var parts []string
		if rest != "" {
			parts = strings.Split(rest, ":")
		}
		if err := fn(item, strings.TrimSpace(kind), parts); err != nil {
			return err
		}
	}
	return nil
}

// MaxRho bounds the utilization the front ends accept. Overload studies
// need ρ ≥ 1; the cap only rejects typos (an offered load of 10× the
// system capacity is already far beyond anything the overload mechanisms
// are designed to illuminate).
const MaxRho = 10

// RunParams are the common run parameters every front end validates.
type RunParams struct {
	Rho      float64 // utilization, in [0, MaxRho]; >= 1 is overload
	Duration float64 // simulated seconds, > 0
	Reps     int     // replications, >= 1
	CV       float64 // arrival CV, >= 1
	Quantum  float64 // RR slice, >= 0 (0 = PS)
	MeanSize float64 // mean job size, > 0
}

// Validate checks every parameter and returns the first problem with a
// message naming the flag.
func (p RunParams) Validate() error {
	if math.IsNaN(p.Rho) || p.Rho < 0 || p.Rho > MaxRho {
		return fmt.Errorf("-rho %v: utilization must be in [0, %v] (values >= 1 simulate overload)", p.Rho, float64(MaxRho))
	}
	if !(p.Duration > 0) || math.IsInf(p.Duration, 0) {
		return fmt.Errorf("-duration %v: must be positive and finite", p.Duration)
	}
	if p.Reps < 1 {
		return fmt.Errorf("-reps %d: need at least one replication", p.Reps)
	}
	if math.IsNaN(p.CV) || p.CV < 1 {
		return fmt.Errorf("-cv %v: arrival CV below 1 is not representable by the H2 process", p.CV)
	}
	if p.Quantum < 0 || math.IsNaN(p.Quantum) || math.IsInf(p.Quantum, 0) {
		return fmt.Errorf("-quantum %v: must be >= 0 (0 selects processor sharing)", p.Quantum)
	}
	if !(p.MeanSize > 0) || math.IsInf(p.MeanSize, 0) {
		return fmt.Errorf("-meansize %v: must be positive and finite", p.MeanSize)
	}
	return nil
}

// ValidateSweepRange checks a -from/-to/-step utilization sweep.
func ValidateSweepRange(from, to, step float64) error {
	if math.IsNaN(from) || from < 0 || from > MaxRho {
		return fmt.Errorf("-from %v: utilization must be in [0, %v]", from, float64(MaxRho))
	}
	if math.IsNaN(to) || to < 0 || to > MaxRho {
		return fmt.Errorf("-to %v: utilization must be in [0, %v]", to, float64(MaxRho))
	}
	if to < from {
		return fmt.Errorf("-to %v below -from %v", to, from)
	}
	if !(step > 0) {
		return fmt.Errorf("-step %v: must be positive", step)
	}
	return nil
}

// FaultParams are the failure-model flags shared by the front ends.
type FaultParams struct {
	MTBF    float64 // mean time between failures; 0 disables injection
	MTTR    float64 // mean time to repair
	Fate    string  // lost | restart | resume | requeue
	Retries int     // requeue budget, >= 1 under requeue
	Detect  float64 // detection lag in seconds
	Realloc string  // stale | resolve
}

// Build validates the fault flags and assembles the faults.Config
// (exponential uptime and downtime with the given means) plus the
// reallocation mode. A zero MTBF returns a nil config: no injection.
func (p FaultParams) Build() (*faults.Config, sched.ReallocMode, error) {
	mode, err := sched.ParseReallocMode(p.Realloc)
	if err != nil {
		return nil, 0, fmt.Errorf("-realloc: %v", err)
	}
	if p.MTBF == 0 {
		return nil, mode, nil
	}
	if !(p.MTBF > 0) || math.IsInf(p.MTBF, 0) {
		return nil, 0, fmt.Errorf("-mtbf %v: must be positive and finite (0 disables failures)", p.MTBF)
	}
	if !(p.MTTR > 0) || math.IsInf(p.MTTR, 0) {
		return nil, 0, fmt.Errorf("-mttr %v: must be positive and finite when -mtbf is set", p.MTTR)
	}
	fate, err := faults.ParseFate(p.Fate)
	if err != nil {
		return nil, 0, fmt.Errorf("-fate: %v", err)
	}
	if p.Retries < 0 {
		return nil, 0, fmt.Errorf("-retries %d: must be >= 0", p.Retries)
	}
	// faults.Config reads a zero MaxRetries as DefaultMaxRetries, so a
	// zero budget would silently run as 3.
	if p.Retries == 0 && fate == faults.RequeueToDispatcher {
		return nil, 0, fmt.Errorf("-retries 0: -fate requeue needs a budget of at least 1 (a zero budget loses every interrupted job, which is -fate lost)")
	}
	if p.Detect < 0 || math.IsNaN(p.Detect) || math.IsInf(p.Detect, 0) {
		return nil, 0, fmt.Errorf("-detect %v: must be >= 0 and finite", p.Detect)
	}
	return &faults.Config{
		Uptime:       dist.NewExponential(p.MTBF),
		Downtime:     dist.NewExponential(p.MTTR),
		Fate:         fate,
		MaxRetries:   p.Retries,
		DetectionLag: p.Detect,
	}, mode, nil
}

// PolicyOptions parameterize the policy parser.
type PolicyOptions struct {
	// Realloc is applied to every static policy (reaction to failures).
	Realloc sched.ReallocMode
	// Faults supplies the planned availability for the ORRA mnemonic;
	// nil or disabled makes ORRA an error.
	Faults *faults.Config
	// Computers is the cluster size (needed to expand ORRA's
	// availability vector).
	Computers int
	// Sharding configures multi-dispatcher simulation (K replicas).
	// Static and scalable policies shard; the centralized dynamic
	// policies (LL, LL*, JSQ2) reject K > 1.
	Sharding ShardingParams
}

// ParsePolicy parses one policy mnemonic into a factory. Recognized:
// WRAN, ORAN, WRR, ORR (the paper's Table 2 grid), LL, LL* (instant
// updates), JSQ2, ORRA (availability-aware ORR; requires -mtbf),
// ORRCAPx (utilization cap x), ORR±e (load estimation error e%), and
// the scalable-dispatch family jsq(d), pod(d)[:speed|alpha], jiq
// (case-insensitive).
func ParsePolicy(name string, opts PolicyOptions) (cluster.PolicyFactory, error) {
	static := func(mk func() *sched.Static) cluster.PolicyFactory {
		return func() cluster.Policy {
			p := mk()
			p.Realloc = opts.Realloc
			if opts.Sharding.Enabled() {
				p.Dispatchers = opts.Sharding.Dispatchers
				p.ShardBy = opts.Sharding.ShardBy
				p.SyncEvery = opts.Sharding.SyncEvery
			}
			return p
		}
	}
	scalable := func(mk func() *sched.Scalable) cluster.PolicyFactory {
		return func() cluster.Policy {
			p := mk()
			if opts.Sharding.Enabled() {
				p.Dispatchers = opts.Sharding.Dispatchers
				p.ShardBy = opts.Sharding.ShardBy
			}
			return p
		}
	}
	central := func(mnemonic string, mk func() cluster.Policy) (cluster.PolicyFactory, error) {
		if opts.Sharding.Enabled() {
			return nil, fmt.Errorf("policy %s is a centralized dynamic scheduler and cannot shard (-dispatchers %d)", mnemonic, opts.Sharding.Dispatchers)
		}
		return mk, nil
	}
	if f, ok, err := parseScalablePolicy(name, opts, scalable); ok || err != nil {
		return f, err
	}
	upper := strings.ToUpper(strings.TrimSpace(name))
	switch upper {
	case "WRAN":
		return static(sched.WRAN), nil
	case "ORAN":
		return static(sched.ORAN), nil
	case "WRR":
		return static(sched.WRR), nil
	case "ORR":
		return static(sched.ORR), nil
	case "LL":
		return central("LL", func() cluster.Policy { return sched.NewLeastLoad() })
	case "LL*":
		return central("LL*", func() cluster.Policy { return &sched.LeastLoad{Instant: true} })
	case "JSQ2":
		return central("JSQ2", func() cluster.Policy { return sched.NewPowerOfTwo() })
	case "ORRA":
		if !opts.Faults.Enabled() {
			return nil, fmt.Errorf("policy ORRA needs a failure model (set -mtbf and -mttr)")
		}
		av, err := opts.Faults.PlannedAvailability(opts.Computers)
		if err != nil {
			return nil, fmt.Errorf("policy ORRA: %v", err)
		}
		return static(func() *sched.Static { return sched.ORRAvailability(av) }), nil
	}
	if strings.HasPrefix(upper, "ORRCAP") {
		v, err := strconv.ParseFloat(upper[6:], 64)
		if err != nil || !(v > 0) || v > 1 {
			return nil, fmt.Errorf("policy %q: ORRCAPx needs a cap x in (0, 1], e.g. ORRCAP0.9", name)
		}
		return static(func() *sched.Static { return sched.ORRCapped(v) }), nil
	}
	if strings.HasPrefix(upper, "ORR") {
		pct, err := strconv.ParseFloat(upper[3:], 64)
		if err != nil {
			return nil, fmt.Errorf("unknown policy %q", name)
		}
		rel := pct / 100
		if rel <= -1 || rel >= 1 {
			return nil, fmt.Errorf("policy %q: estimation error must be within ±100%%", name)
		}
		return static(func() *sched.Static { return sched.ORRWithLoadError(rel) }), nil
	}
	return nil, fmt.Errorf("unknown policy %q (want WRAN, ORAN, WRR, ORR, LL, LL*, JSQ2, ORRA, ORRCAPx, ORR±e, jsq(d), pod(d)[:speed|alpha] or jiq)", name)
}

// parseScalablePolicy recognizes the scalable-dispatch mnemonics:
// jsq(d), pod(d), pod(d):speed, pod(d):alpha and jiq, case-insensitive.
// ok reports whether the name belongs to this family at all; a
// malformed member (e.g. "jsq(0)") is ok with a non-nil error.
func parseScalablePolicy(name string, opts PolicyOptions, wrap func(mk func() *sched.Scalable) cluster.PolicyFactory) (cluster.PolicyFactory, bool, error) {
	lower := strings.ToLower(strings.TrimSpace(name))
	if lower == "jiq" {
		return wrap(sched.JIQ), true, nil
	}
	sampled := func(prefix string) (int, string, bool, error) {
		if !strings.HasPrefix(lower, prefix+"(") {
			return 0, "", false, nil
		}
		rest := lower[len(prefix)+1:]
		dPart, variant, _ := strings.Cut(rest, ")")
		variant = strings.TrimPrefix(variant, ":")
		d, err := strconv.Atoi(dPart)
		if err != nil || !strings.Contains(rest, ")") {
			return 0, "", true, fmt.Errorf("policy %q: want %s(d) with an integer sample width d, e.g. %s(2)", name, prefix, prefix)
		}
		if d < 1 || d > dispatch.MaxSampleWidth {
			return 0, "", true, fmt.Errorf("policy %q: sample width must be in [1, %d]", name, dispatch.MaxSampleWidth)
		}
		// Sampling more computers than exist would silently clamp to JSQ
		// over the whole fleet — reject the typo instead of masking it.
		if opts.Computers > 0 && d > opts.Computers {
			return 0, "", true, fmt.Errorf("policy %q: sample width %d exceeds the fleet size %d", name, d, opts.Computers)
		}
		return d, variant, true, nil
	}
	if d, variant, ok, err := sampled("jsq"); ok {
		if err != nil {
			return nil, true, err
		}
		if variant != "" {
			return nil, true, fmt.Errorf("policy %q: jsq(d) takes no variant suffix", name)
		}
		return wrap(func() *sched.Scalable { return sched.JSQd(d) }), true, nil
	}
	if d, variant, ok, err := sampled("pod"); ok {
		if err != nil {
			return nil, true, err
		}
		switch variant {
		case "", "speed":
			return wrap(func() *sched.Scalable { return sched.PodSpeed(d) }), true, nil
		case "alpha":
			return wrap(func() *sched.Scalable { return sched.PodAlpha(d) }), true, nil
		default:
			return nil, true, fmt.Errorf("policy %q: pod(d) variant must be speed or alpha", name)
		}
	}
	return nil, false, nil
}

// ParsePolicies parses a comma-separated policy list.
func ParsePolicies(list string, opts PolicyOptions) ([]string, []cluster.PolicyFactory, error) {
	var names []string
	var factories []cluster.PolicyFactory
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		f, err := ParsePolicy(n, opts)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, n)
		factories = append(factories, f)
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("no policies given")
	}
	return names, factories, nil
}
