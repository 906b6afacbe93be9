package cli

import (
	"fmt"
	"strings"

	"heterosched/internal/ctrlplane"
)

// This file parses the -ctrl flag shared by the front ends: the physical
// control-plane spec carrying idle tokens, state queries and counter-sync
// frames. Like the netfault parsers, it returns clean errors on malformed
// input (fuzzed in fuzz_test.go); nothing here panics.

// CtrlParams is the raw control-plane flag value.
type CtrlParams struct {
	// Ctrl is a comma-separated control-plane item list:
	// loss:P[:LINK] | dup:P[:LINK] | lat:MEAN[:LINK] | lease:T | qto:T |
	// part:FROM:TO[:L1+L2+...] | dpart:FROM:TO[:K1+K2+...].
	// Empty disables the layer (oracle state, bit-identical runs).
	Ctrl string
}

// Build parses and validates the control-plane spec against the cluster
// size and the dispatcher replica count. Empty input returns nil: no
// control plane, policies keep their oracle state views.
func (p CtrlParams) Build(computers, dispatchers int) (*ctrlplane.Config, error) {
	cfg, err := ParseCtrlSpec(p.Ctrl)
	if err != nil {
		return nil, fmt.Errorf("-ctrl: %v", err)
	}
	if cfg == nil {
		return nil, nil
	}
	if err := cfg.Validate(computers, dispatchers); err != nil {
		return nil, fmt.Errorf("-ctrl: %v", err)
	}
	return cfg, nil
}

// ParseCtrlSpec parses a comma-separated control-plane item list: link
// models (loss/dup/lat, with an optional per-computer link index), the
// idle-token lease (lease:T), the query timeout (qto:T), dispatcher↔
// computer partition windows (part:...) and replica↔replica sync
// partition windows (dpart:...). Empty input returns nil (no control
// plane).
func ParseCtrlSpec(s string) (*ctrlplane.Config, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	cfg := &ctrlplane.Config{}
	var links linkItems
	haveLease, haveQTO := false, false
	err := specItems(s, func(item, kind string, parts []string) error {
		if handled, err := links.parse(item, kind, parts); handled {
			return err
		}
		switch kind {
		case "lease", "qto":
			have := &haveLease
			field := &cfg.Lease
			what := "token lease"
			if kind == "qto" {
				have, field, what = &haveQTO, &cfg.QueryTO, "query timeout"
			}
			if *have {
				return fmt.Errorf("duplicate %s item %q", kind, item)
			}
			*have = true
			if len(parts) != 1 {
				return fmt.Errorf("bad spec %q (want %s:T)", item, kind)
			}
			v, err := parseFinite(parts[0], what)
			if err != nil {
				return err
			}
			if v <= 0 {
				return fmt.Errorf("%s %g must be positive", what, v)
			}
			*field = v
		case "dpart":
			p, err := parsePartition(item, kind, parts)
			if err != nil {
				return err
			}
			cfg.SyncPartitions = append(cfg.SyncPartitions, p)
		default:
			return fmt.Errorf("unknown ctrl spec %q (want loss:P[:LINK], dup:P[:LINK], lat:MEAN[:LINK], lease:T, qto:T, part:FROM:TO[:L1+L2+...], or dpart:FROM:TO[:K1+K2+...])", item)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cfg.Links = links.build()
	if !cfg.Enabled() {
		return nil, nil
	}
	return cfg, nil
}
