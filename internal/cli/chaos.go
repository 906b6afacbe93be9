package cli

import (
	"fmt"
	"strconv"
	"strings"
)

// This file parses the -chaos flag shared by the chaos front end: the
// search-space specification the scenario generator samples from. The
// sampled scenarios themselves serialize through internal/chaos (whose
// layer keys are the LayerFlags of layers.go); the search spec stays
// here so every front-end grammar lives in one package, fuzzed the same
// way (FuzzChaosSpecs in fuzz_test.go).

// ChaosParams are the raw chaos-search flag values.
type ChaosParams struct {
	// Chaos is a comma-separated search spec:
	// seeds:N,intensity:X,dims:fail+over+drift+net,dur:T,rho:R,
	// speeds:S1+S2+...,seed:S,stall:T,insys:N. Empty disables the search.
	Chaos string
}

// ChaosSearch is the parsed search configuration consumed by the
// internal/chaos generator: how many scenarios to sample, how hard to
// push each fault dimension, and which dimensions participate. It is
// plain data — cli sits below internal/chaos in the dependency order.
type ChaosSearch struct {
	// Scenarios is the number of seeded scenarios to sample (seeds:N).
	Scenarios int
	// Intensity in (0, 1] scales every sampled fault parameter from
	// mild toward the configured maxima (intensity:X, default 0.5).
	Intensity float64
	// DimFaults/DimOverload/DimDrift/DimNet/DimCtrl gate the fault
	// layers the sampler may compose (dims:fail+over+drift+net+ctrl,
	// default all).
	DimFaults, DimOverload, DimDrift, DimNet, DimCtrl bool
	// Duration is the per-scenario horizon in simulated seconds
	// (dur:T, default 2e4).
	Duration float64
	// Rho is the base utilization; 0 lets the sampler draw one per
	// scenario (rho:R).
	Rho float64
	// Speeds is the relative speed vector (speeds:1+1+2+10, '+'
	// separated because the item list itself is comma-separated).
	Speeds []float64
	// Seed is the master search seed; scenario k derives its own
	// substream from it (seed:S, default 1).
	Seed uint64
	// Stall is the progress-watchdog horizon: a window of that many
	// simulated seconds with jobs in the system but no terminal outcome
	// is a violation. 0 picks a default from the duration (stall:T).
	Stall float64
	// MaxInSystem is the watchdog's in-system ceiling; 0 picks a
	// default from the sampled load (insys:N).
	MaxInSystem int64
}

// Build parses and validates the chaos flag. Empty input returns
// (nil, nil): no search, nothing constructed.
func (p ChaosParams) Build() (*ChaosSearch, error) {
	cs, err := ParseChaosSpec(p.Chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %v", err)
	}
	return cs, nil
}

// ParseChaosSpec parses the comma-separated chaos search spec. Empty
// input returns nil. Defaults: 50 scenarios, intensity 0.5, all four
// dimensions, duration 2e4, speeds 1,1,2,10, seed 1, auto watchdog.
func ParseChaosSpec(s string) (*ChaosSearch, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	cs := &ChaosSearch{
		Scenarios: 50,
		Intensity: 0.5,
		DimFaults: true, DimOverload: true, DimDrift: true, DimNet: true, DimCtrl: true,
		Duration: 2e4,
		Speeds:   []float64{1, 1, 2, 10},
		Seed:     1,
	}
	seen := map[string]bool{}
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, _ := strings.Cut(item, ":")
		kind = strings.TrimSpace(kind)
		rest = strings.TrimSpace(rest)
		if seen[kind] {
			return nil, fmt.Errorf("duplicate chaos item %q", kind)
		}
		seen[kind] = true
		switch kind {
		case "seeds":
			n, err := strconv.Atoi(rest)
			if err != nil {
				return nil, fmt.Errorf("bad scenario count %q: %v", rest, err)
			}
			if n < 1 {
				return nil, fmt.Errorf("scenario count %d must be >= 1", n)
			}
			cs.Scenarios = n
		case "intensity":
			v, err := parseFinite(rest, "intensity")
			if err != nil {
				return nil, err
			}
			if !(v > 0 && v <= 1) {
				return nil, fmt.Errorf("intensity %v outside (0, 1]", v)
			}
			cs.Intensity = v
		case "dims":
			cs.DimFaults, cs.DimOverload, cs.DimDrift, cs.DimNet, cs.DimCtrl = false, false, false, false, false
			for _, d := range strings.Split(rest, "+") {
				switch strings.TrimSpace(d) {
				case "fail":
					cs.DimFaults = true
				case "over":
					cs.DimOverload = true
				case "drift":
					cs.DimDrift = true
				case "net":
					cs.DimNet = true
				case "ctrl":
					cs.DimCtrl = true
				case "":
					continue
				default:
					return nil, fmt.Errorf("unknown chaos dimension %q (want fail, over, drift, net or ctrl)", strings.TrimSpace(d))
				}
			}
			if !cs.DimFaults && !cs.DimOverload && !cs.DimDrift && !cs.DimNet && !cs.DimCtrl {
				return nil, fmt.Errorf("empty dims %q (want at least one of fail, over, drift, net, ctrl)", item)
			}
		case "dur":
			v, err := parseFinite(rest, "duration")
			if err != nil {
				return nil, err
			}
			if !(v > 0) {
				return nil, fmt.Errorf("duration %v must be positive", v)
			}
			cs.Duration = v
		case "rho":
			v, err := parseFinite(rest, "rho")
			if err != nil {
				return nil, err
			}
			if v < 0 || v > MaxRho {
				return nil, fmt.Errorf("rho %v outside [0, %v]", v, float64(MaxRho))
			}
			cs.Rho = v
		case "speeds":
			sp, err := ParseSpeeds(strings.ReplaceAll(rest, "+", ","))
			if err != nil {
				return nil, err
			}
			cs.Speeds = sp
		case "seed":
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad seed %q: %v", rest, err)
			}
			cs.Seed = v
		case "stall":
			v, err := parseFinite(rest, "stall horizon")
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fmt.Errorf("stall horizon %v must be >= 0 (0 = auto)", v)
			}
			cs.Stall = v
		case "insys":
			n, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad in-system cap %q: %v", rest, err)
			}
			if n < 0 {
				return nil, fmt.Errorf("in-system cap %d must be >= 0 (0 = auto)", n)
			}
			cs.MaxInSystem = n
		default:
			return nil, fmt.Errorf("unknown chaos item %q (want seeds:N, intensity:X, dims:fail+over+drift+net+ctrl, dur:T, rho:R, speeds:S1+S2+..., seed:S, stall:T or insys:N)", kind)
		}
	}
	if cs.Stall > 0 && cs.Stall > cs.Duration {
		return nil, fmt.Errorf("stall horizon %v exceeds the scenario duration %v", cs.Stall, cs.Duration)
	}
	return cs, nil
}
