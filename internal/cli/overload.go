package cli

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/dist"
	"heterosched/internal/sim"
)

// This file parses the overload-protection flags shared by the front
// ends: -qcap, -admit, -deadline, -timeout, -retry, -backoff and
// -breaker. Every spec parser returns a clean error on malformed input
// (they are fuzzed in fuzz_test.go); nothing here panics.

// OverloadParams are the raw overload-protection flag values.
type OverloadParams struct {
	QCap     string  // "K" or "K:oldest|newest"; "" or "0" disables
	Admit    string  // none | reject-when-full | token-bucket:RATE[:BURST]
	Deadline string  // exp:MEAN | const:V | uni:LO:HI, optional :kill|:mark
	Timeout  float64 // dispatcher timeout in seconds; 0 disables
	Retry    int     // retry budget after timeouts/rejections
	Backoff  string  // BASE:MAX[:JITTER]; "" keeps defaults
	Breaker  string  // CONSEC:COOLDOWN[:RATIO:WINDOW]; "" disables
}

// Build validates the overload flags and assembles the cluster
// configuration. All-default parameters return nil: no overload layer at
// all (bit-identical runs).
func (p OverloadParams) Build() (*cluster.OverloadConfig, error) {
	cfg := &cluster.OverloadConfig{}
	var err error
	if cfg.QueueCap, cfg.Drop, err = ParseQueueCapSpec(p.QCap); err != nil {
		return nil, fmt.Errorf("-qcap: %v", err)
	}
	if cfg.Admission, cfg.TokenRate, cfg.TokenBurst, err = ParseAdmissionSpec(p.Admit); err != nil {
		return nil, fmt.Errorf("-admit: %v", err)
	}
	if cfg.Deadline, cfg.DeadlineAction, err = ParseDeadlineSpec(p.Deadline); err != nil {
		return nil, fmt.Errorf("-deadline: %v", err)
	}
	if p.Timeout < 0 || math.IsNaN(p.Timeout) || math.IsInf(p.Timeout, 0) {
		return nil, fmt.Errorf("-timeout %v: must be >= 0 and finite", p.Timeout)
	}
	cfg.Timeout = p.Timeout
	if p.Retry < 0 {
		return nil, fmt.Errorf("-retry %d: must be >= 0", p.Retry)
	}
	cfg.RetryBudget = p.Retry
	if cfg.BackoffBase, cfg.BackoffMax, cfg.BackoffJitter, err = ParseBackoffSpec(p.Backoff); err != nil {
		return nil, fmt.Errorf("-backoff: %v", err)
	}
	if cfg.Breaker, err = ParseBreakerSpec(p.Breaker); err != nil {
		return nil, fmt.Errorf("-breaker: %v", err)
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ParseQueueCapSpec parses "K" or "K:oldest|newest". Empty and "0"
// disable the bound (cap 0).
func ParseQueueCapSpec(s string) (int, sim.DropPolicy, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, sim.DropNewest, nil
	}
	capPart, dropPart, hasDrop := strings.Cut(s, ":")
	capv, err := strconv.Atoi(strings.TrimSpace(capPart))
	if err != nil {
		return 0, 0, fmt.Errorf("bad queue cap %q: %v", capPart, err)
	}
	if capv < 0 {
		return 0, 0, fmt.Errorf("queue cap %d must be >= 0 (0 disables the bound)", capv)
	}
	drop := sim.DropNewest
	if hasDrop {
		switch strings.TrimSpace(dropPart) {
		case "newest":
			drop = sim.DropNewest
		case "oldest":
			drop = sim.DropOldest
		default:
			return 0, 0, fmt.Errorf("bad drop policy %q (want oldest or newest)", dropPart)
		}
	}
	return capv, drop, nil
}

// ParseAdmissionSpec parses "none", "reject-when-full" or
// "token-bucket:RATE[:BURST]" (burst defaults to 1).
func ParseAdmissionSpec(s string) (cluster.AdmissionPolicy, float64, float64, error) {
	s = strings.TrimSpace(s)
	switch s {
	case "", "none":
		return cluster.AdmitAll, 0, 0, nil
	case "reject-when-full":
		return cluster.RejectWhenFull, 0, 0, nil
	}
	if rest, ok := strings.CutPrefix(s, "token-bucket:"); ok {
		parts := strings.Split(rest, ":")
		if len(parts) > 2 {
			return 0, 0, 0, fmt.Errorf("bad token-bucket spec %q (want token-bucket:RATE[:BURST])", s)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("bad token rate %q: %v", parts[0], err)
		}
		burst := 1.0
		if len(parts) == 2 {
			if burst, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
				return 0, 0, 0, fmt.Errorf("bad token burst %q: %v", parts[1], err)
			}
		}
		if !(rate > 0) || math.IsInf(rate, 0) {
			return 0, 0, 0, fmt.Errorf("token rate %v must be positive and finite", rate)
		}
		if !(burst >= 1) || math.IsInf(burst, 0) {
			return 0, 0, 0, fmt.Errorf("token burst %v must be at least 1", burst)
		}
		return cluster.TokenBucketAdmission, rate, burst, nil
	}
	return 0, 0, 0, fmt.Errorf("unknown admission policy %q (want none, reject-when-full or token-bucket:RATE[:BURST])", s)
}

// ParseDeadlineSpec parses a relative-deadline distribution with an
// optional action suffix: "exp:MEAN", "const:V" or "uni:LO:HI", each
// optionally followed by ":kill" (default) or ":mark". Empty disables
// deadlines.
func ParseDeadlineSpec(s string) (dist.Distribution, cluster.DeadlineAction, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, cluster.DeadlineKill, nil
	}
	parts := strings.Split(s, ":")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	action := cluster.DeadlineKill
	switch parts[len(parts)-1] {
	case "kill":
		parts = parts[:len(parts)-1]
	case "mark":
		action = cluster.DeadlineMark
		parts = parts[:len(parts)-1]
	}
	num := func(i int, what string) (float64, error) {
		v, err := parseFinite(parts[i], what)
		if err == nil && v <= 0 {
			err = fmt.Errorf("%s %v must be positive and finite", what, v)
		}
		return v, err
	}
	if len(parts) == 0 {
		return nil, 0, fmt.Errorf("bad deadline spec %q (want exp:MEAN, const:V or uni:LO:HI, optional :kill|:mark)", s)
	}
	switch parts[0] {
	case "exp":
		if len(parts) != 2 {
			return nil, 0, fmt.Errorf("bad deadline spec %q (want exp:MEAN)", s)
		}
		mean, err := num(1, "deadline mean")
		if err != nil {
			return nil, 0, err
		}
		return dist.NewExponential(mean), action, nil
	case "const":
		if len(parts) != 2 {
			return nil, 0, fmt.Errorf("bad deadline spec %q (want const:V)", s)
		}
		v, err := num(1, "deadline")
		if err != nil {
			return nil, 0, err
		}
		return dist.Deterministic{Value: v}, action, nil
	case "uni":
		if len(parts) != 3 {
			return nil, 0, fmt.Errorf("bad deadline spec %q (want uni:LO:HI)", s)
		}
		lo, err := num(1, "deadline lower bound")
		if err != nil {
			return nil, 0, err
		}
		hi, err := num(2, "deadline upper bound")
		if err != nil {
			return nil, 0, err
		}
		if hi < lo {
			return nil, 0, fmt.Errorf("deadline bounds inverted: %v > %v", lo, hi)
		}
		return dist.Uniform{Lo: lo, Hi: hi}, action, nil
	}
	return nil, 0, fmt.Errorf("unknown deadline distribution %q (want exp, const or uni)", parts[0])
}

// ParseBackoffSpec parses "BASE:MAX[:JITTER]". Empty keeps the built-in
// defaults (1 s base, 60 s cap, no jitter).
func ParseBackoffSpec(s string) (base, max, jitter float64, err error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, 0, 0, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("bad backoff spec %q (want BASE:MAX[:JITTER])", s)
	}
	if base, err = strconv.ParseFloat(strings.TrimSpace(parts[0]), 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad backoff base %q: %v", parts[0], err)
	}
	if max, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
		return 0, 0, 0, fmt.Errorf("bad backoff max %q: %v", parts[1], err)
	}
	if !(base > 0) || math.IsInf(base, 0) {
		return 0, 0, 0, fmt.Errorf("backoff base %v must be positive and finite", base)
	}
	if max < base || math.IsInf(max, 0) || math.IsNaN(max) {
		return 0, 0, 0, fmt.Errorf("backoff max %v must be >= base %v and finite", max, base)
	}
	if len(parts) == 3 {
		if jitter, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64); err != nil {
			return 0, 0, 0, fmt.Errorf("bad backoff jitter %q: %v", parts[2], err)
		}
		if jitter < 0 || jitter > 1 || math.IsNaN(jitter) {
			return 0, 0, 0, fmt.Errorf("backoff jitter %v must be in [0, 1]", jitter)
		}
	}
	return base, max, jitter, nil
}

// ParseBreakerSpec parses "CONSEC:COOLDOWN[:RATIO:WINDOW]". CONSEC 0
// with a ratio criterion gives a pure sliding-window breaker. Empty
// disables breakers.
func ParseBreakerSpec(s string) (*dispatch.BreakerConfig, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 2 && len(parts) != 4 {
		return nil, fmt.Errorf("bad breaker spec %q (want CONSEC:COOLDOWN[:RATIO:WINDOW])", s)
	}
	consec, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return nil, fmt.Errorf("bad breaker consecutive-failure threshold %q: %v", parts[0], err)
	}
	cooldown, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return nil, fmt.Errorf("bad breaker cooldown %q: %v", parts[1], err)
	}
	cfg := &dispatch.BreakerConfig{Consecutive: consec, Cooldown: cooldown}
	if len(parts) == 4 {
		if cfg.Ratio, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64); err != nil {
			return nil, fmt.Errorf("bad breaker ratio %q: %v", parts[2], err)
		}
		if cfg.Window, err = strconv.Atoi(strings.TrimSpace(parts[3])); err != nil {
			return nil, fmt.Errorf("bad breaker window %q: %v", parts[3], err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}
