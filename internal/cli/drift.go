package cli

import (
	"fmt"
	"strconv"
	"strings"

	"heterosched/internal/cluster"
	"heterosched/internal/drift"
)

// This file parses the parameter-drift and adaptive re-planning flags
// shared by the front ends: -drift, -estimator and -replan. Every spec
// parser returns a clean error on malformed input (they are fuzzed in
// fuzz_test.go); nothing here panics.

// DriftParams are the raw drift/adaptation flag values.
type DriftParams struct {
	// Drift is a comma-separated perturbation list:
	// lstep:T:F | lramp:T0:T1:F | lcycle:P:A | sstep:T:F[:IDX] |
	// mis:RHOERR[:SPEEDERR]. Empty disables drift.
	Drift string
	// Replan is "CHECK:TRIP:COOLDOWN[:BAND[:MINN]]"; empty disables the
	// adaptive loop.
	Replan string
	// Estimator is "win:N" or "ewma:ALPHA"; empty means the default
	// (win:256). Only meaningful with Replan.
	Estimator string
}

// Build validates the drift flags against the cluster size and
// assembles the configurations. All-empty parameters return (nil, nil):
// no drift, no adaptation, bit-identical runs.
func (p DriftParams) Build(computers int) (*drift.Config, *cluster.AdaptConfig, error) {
	dc, err := ParseDriftSpec(p.Drift)
	if err != nil {
		return nil, nil, fmt.Errorf("-drift: %v", err)
	}
	if dc != nil {
		if err := dc.Validate(computers); err != nil {
			return nil, nil, fmt.Errorf("-drift: %v", err)
		}
	}
	ac, err := ParseReplanSpec(p.Replan)
	if err != nil {
		return nil, nil, fmt.Errorf("-replan: %v", err)
	}
	est, hasEst, err := ParseEstimatorSpec(p.Estimator)
	if err != nil {
		return nil, nil, fmt.Errorf("-estimator: %v", err)
	}
	if hasEst {
		if ac == nil {
			return nil, nil, fmt.Errorf("-estimator: requires -replan (the estimators feed the re-planning watchdog)")
		}
		ac.Estimator = est
	}
	if ac != nil {
		if err := ac.Validate(); err != nil {
			return nil, nil, err
		}
	}
	return dc, ac, nil
}

// ParseDriftSpec parses a comma-separated drift perturbation list. At
// most one arrival-rate schedule (lstep/lramp/lcycle) and one
// misestimation item are allowed; speed steps may repeat. Empty input
// returns nil (no drift).
func ParseDriftSpec(s string) (*drift.Config, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	cfg := &drift.Config{}
	haveMis := false
	err := specItems(s, func(item, kind string, parts []string) error {
		switch kind {
		case "lstep", "lramp", "lcycle":
			if cfg.Arrival != nil {
				return fmt.Errorf("duplicate arrival-rate schedule %q (at most one of lstep/lramp/lcycle)", item)
			}
			switch kind {
			case "lstep":
				if len(parts) != 2 {
					return fmt.Errorf("bad spec %q (want lstep:T:FACTOR)", item)
				}
				at, err := parseFinite(parts[0], "step time")
				if err != nil {
					return err
				}
				f, err := parseFinite(parts[1], "step factor")
				if err != nil {
					return err
				}
				cfg.Arrival = drift.Step{At: at, Factor: f}
			case "lramp":
				if len(parts) != 3 {
					return fmt.Errorf("bad spec %q (want lramp:FROM:TO:FACTOR)", item)
				}
				from, err := parseFinite(parts[0], "ramp start")
				if err != nil {
					return err
				}
				to, err := parseFinite(parts[1], "ramp end")
				if err != nil {
					return err
				}
				f, err := parseFinite(parts[2], "ramp factor")
				if err != nil {
					return err
				}
				cfg.Arrival = drift.Ramp{From: from, To: to, Factor: f}
			default:
				if len(parts) != 2 {
					return fmt.Errorf("bad spec %q (want lcycle:PERIOD:AMPLITUDE)", item)
				}
				period, err := parseFinite(parts[0], "cycle period")
				if err != nil {
					return err
				}
				amp, err := parseFinite(parts[1], "cycle amplitude")
				if err != nil {
					return err
				}
				cfg.Arrival = drift.Cycle{Period: period, Amplitude: amp}
			}
			// Validate the schedule here, not only in Config.Validate:
			// the parser must reject a bad spec on its own (negative
			// times, non-positive factors) so every caller gets the same
			// verdict regardless of whether it runs deep validation.
			if err := cfg.Arrival.Validate(); err != nil {
				return err
			}
		case "sstep":
			if len(parts) != 2 && len(parts) != 3 {
				return fmt.Errorf("bad spec %q (want sstep:T:FACTOR[:COMPUTER])", item)
			}
			at, err := parseFinite(parts[0], "speed-step time")
			if err != nil {
				return err
			}
			f, err := parseFinite(parts[1], "speed-step factor")
			if err != nil {
				return err
			}
			idx := -1
			if len(parts) == 3 {
				if idx, err = strconv.Atoi(strings.TrimSpace(parts[2])); err != nil {
					return fmt.Errorf("bad speed-step computer %q: %v", parts[2], err)
				}
				if idx < 0 {
					return fmt.Errorf("speed-step computer %d must be >= 0 (omit for all computers)", idx)
				}
			}
			cfg.SpeedSteps = append(cfg.SpeedSteps, drift.SpeedStep{At: at, Computer: idx, Factor: f})
		case "mis":
			if haveMis {
				return fmt.Errorf("duplicate misestimation spec %q", item)
			}
			if len(parts) != 1 && len(parts) != 2 {
				return fmt.Errorf("bad spec %q (want mis:RHOERR[:SPEEDERR])", item)
			}
			rhoErr, err := parseFinite(parts[0], "rho error")
			if err != nil {
				return err
			}
			speedErr := 0.0
			if len(parts) == 2 {
				if speedErr, err = parseFinite(parts[1], "speed error"); err != nil {
					return err
				}
			}
			cfg.Misest = drift.Misest{RhoErr: rhoErr, SpeedErr: speedErr}
			haveMis = true
		default:
			return fmt.Errorf("unknown drift spec %q (want lstep:T:F, lramp:T0:T1:F, lcycle:P:A, sstep:T:F[:IDX] or mis:RHOERR[:SPEEDERR])", item)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return cfg, nil
}

// ParseEstimatorSpec parses "win:N" or "ewma:ALPHA". Empty returns the
// default configuration with hasSpec false.
func ParseEstimatorSpec(s string) (cfg cluster.EstimatorConfig, hasSpec bool, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return cluster.EstimatorConfig{}, false, nil
	}
	kind, rest, ok := strings.Cut(s, ":")
	kind = strings.TrimSpace(kind)
	if !ok {
		return cfg, false, fmt.Errorf("bad estimator spec %q (want win:N or ewma:ALPHA)", s)
	}
	switch kind {
	case "win":
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			return cfg, false, fmt.Errorf("bad window size %q: %v", rest, err)
		}
		if n < 2 {
			return cfg, false, fmt.Errorf("window size %d must be >= 2", n)
		}
		return cluster.EstimatorConfig{Kind: cluster.EstimatorWindow, Window: n}, true, nil
	case "ewma":
		a, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return cfg, false, fmt.Errorf("bad EWMA alpha %q: %v", rest, err)
		}
		if !(a > 0 && a <= 1) {
			return cfg, false, fmt.Errorf("EWMA alpha %v outside (0, 1]", a)
		}
		return cluster.EstimatorConfig{Kind: cluster.EstimatorEWMA, Alpha: a}, true, nil
	}
	return cfg, false, fmt.Errorf("unknown estimator kind %q (want win or ewma)", kind)
}

// ParseReplanSpec parses "CHECK:TRIP:COOLDOWN[:BAND[:MINN]]": watchdog
// period, per-computer utilization trip threshold, cooldown between
// plan changes, optional hysteresis band and minimum estimator sample
// count. Empty returns nil (no adaptive loop).
func ParseReplanSpec(s string) (*cluster.AdaptConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 3 || len(parts) > 5 {
		return nil, fmt.Errorf("bad replan spec %q (want CHECK:TRIP:COOLDOWN[:BAND[:MINN]])", s)
	}
	check, err := parseFinite(parts[0], "check interval")
	if err != nil {
		return nil, err
	}
	if !(check > 0) {
		return nil, fmt.Errorf("check interval %v must be positive", check)
	}
	trip, err := parseFinite(parts[1], "trip threshold")
	if err != nil {
		return nil, err
	}
	cooldown, err := parseFinite(parts[2], "cooldown")
	if err != nil {
		return nil, err
	}
	cfg := &cluster.AdaptConfig{CheckInterval: check, RhoTrip: trip, Cooldown: cooldown}
	if len(parts) >= 4 {
		if cfg.Band, err = parseFinite(parts[3], "hysteresis band"); err != nil {
			return nil, err
		}
	}
	if len(parts) == 5 {
		minn, err := strconv.ParseInt(strings.TrimSpace(parts[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad min samples %q: %v", parts[4], err)
		}
		cfg.MinSamples = minn
	}
	return cfg, nil
}
