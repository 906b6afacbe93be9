package chaos

import (
	"strconv"
	"strings"
)

// ShrinkResult is the outcome of minimizing a violating scenario.
type ShrinkResult struct {
	// Spec is the minimal scenario still violating the target invariant.
	Spec Spec
	// Invariant is the invariant the shrink preserved.
	Invariant string
	// Runs is how many candidate executions the shrink spent.
	Runs int
	// Steps is how many accepted reductions it took.
	Steps int
}

// maxShrinkRuns bounds the total executions one shrink may spend; the
// greedy fixpoint normally converges well under this.
const maxShrinkRuns = 200

// Shrink delta-debugs a violating scenario down to a locally minimal
// reproducer: it repeatedly proposes simplifications (drop a fault
// layer, drop one grammar item inside a layer, clear one overload
// knob, halve the horizon, soften a rate) and keeps a candidate only
// if the run still violates the SAME invariant. opts must be the
// options the violation was found under — a seeded bug injected via
// Options travels with the shrink, a real bug needs nothing. The
// result is deterministic: candidates are tried in a fixed order and
// every accepted spec replays identically from its string.
//
// invariant selects which broken invariant to preserve; it must be one
// the spec currently violates (an Invariant of Report.Violations).
func Shrink(spec Spec, invariant string, opts Options) (*ShrinkResult, error) {
	res := &ShrinkResult{Spec: spec, Invariant: invariant}
	// still reports whether a candidate spec keeps the target violation.
	still := func(c Spec) bool {
		if res.Runs >= maxShrinkRuns {
			return false
		}
		res.Runs++
		rep, err := Execute(c, opts)
		if err != nil {
			return false // an invalid simplification is just skipped
		}
		return rep.Violated(invariant)
	}

	// Confirm the starting point actually violates the target; otherwise
	// the caller handed us the wrong invariant and we must not "shrink"
	// toward an arbitrary spec.
	if !still(spec) {
		return res, errNotViolating(spec, invariant)
	}

	for {
		improved := false
		for _, cand := range candidates(res.Spec) {
			if res.Runs >= maxShrinkRuns {
				return res, nil
			}
			if still(cand) {
				res.Spec = cand
				res.Steps++
				improved = true
				break // restart candidate generation from the smaller spec
			}
		}
		if !improved {
			return res, nil
		}
	}
}

type shrinkError struct{ msg string }

func (e shrinkError) Error() string { return e.msg }

func errNotViolating(s Spec, inv string) error {
	return shrinkError{"chaos: spec does not violate " + inv + ": " + s.String()}
}

// candidates proposes simplifications of s, most aggressive first:
// whole layers, then items within layers, then scalar softening. Each
// candidate changes exactly one thing, so an accepted step is easy to
// read off the spec diff.
func candidates(s Spec) []Spec {
	var out []Spec
	add := func(c Spec) { out = append(out, c) }

	// Drop whole layers.
	if s.MTBF > 0 {
		c := s
		c.MTBF, c.MTTR, c.Fate, c.Retries, c.Detect = 0, 0, "", 0, 0
		add(c)
	}
	if s.QCap != "" || s.Admit != "" || s.Deadline != "" || s.Timeout > 0 || s.Backoff != "" || s.Breaker != "" {
		c := s
		c.QCap, c.Admit, c.Deadline, c.Backoff, c.Breaker = "", "", "", "", ""
		c.Timeout, c.Retry = 0, 0
		add(c)
	}
	if s.Drift != "" {
		c := s
		c.Drift = ""
		add(c)
	}
	if s.Netfault != "" || s.AckTO != "" || s.DState != "" {
		c := s
		c.Netfault, c.AckTO, c.DState = "", "", ""
		add(c)
	}
	if s.Ctrl != "" {
		c := s
		c.Ctrl = ""
		add(c)
	}

	// Clear individual overload knobs. Some combinations are invalid on
	// their own (reject-when-full without a queue cap) — Build rejects
	// them and the shrinker skips on.
	for _, f := range []func(*Spec){
		func(c *Spec) { c.QCap = "" },
		func(c *Spec) { c.Admit = "" },
		func(c *Spec) { c.Deadline = "" },
		func(c *Spec) { c.Timeout, c.Retry = 0, 0 },
		func(c *Spec) { c.Backoff = "" },
		func(c *Spec) { c.Breaker = "" },
	} {
		c := s
		f(&c)
		if c.String() != s.String() {
			add(c)
		}
	}
	if s.DState != "" {
		c := s
		c.DState = ""
		add(c)
	}

	// Drop one comma item from the multi-item layer grammars.
	for _, items := range dropEach(s.Drift) {
		c := s
		c.Drift = items
		add(c)
	}
	for _, items := range dropEach(s.Netfault) {
		c := s
		c.Netfault = items
		add(c)
	}
	// Some ctrl item subsets are invalid on their own (loss without
	// qto) — Build rejects them and the shrinker skips on.
	for _, items := range dropEach(s.Ctrl) {
		c := s
		c.Ctrl = items
		add(c)
	}

	// Halve the horizon (floor 1000 s keeps enough arrivals to mean
	// anything) — shorter reproducers replay faster.
	if s.Duration/2 >= 1000 {
		c := s
		c.Duration = s.Duration / 2
		// Per-duration layer parameters scale so the fault still occurs
		// in the shorter run.
		if c.MTBF > s.Duration/4 {
			c.MTBF = s.Duration / 4
		}
		add(c)
	}

	// Soften the load.
	if s.Rho > 0.35 {
		c := s
		c.Rho = roundSig(s.Rho*0.75, 4)
		add(c)
	}

	// Soften the fault layer: fewer, shorter outages.
	if s.MTBF > 0 {
		c := s
		c.MTBF = roundSig(s.MTBF*2, 6)
		add(c)
		c = s
		c.MTTR = roundSig(s.MTTR/2, 6)
		add(c)
		if s.Detect > 0 {
			c = s
			c.Detect = 0
			add(c)
		}
		if s.Retries > 1 {
			c = s
			c.Retries = 1
			add(c)
		}
	}

	// Halve numeric values inside netfault items (loss, dup, lat rates).
	for _, nf := range halveEachRate(s.Netfault) {
		c := s
		c.Netfault = nf
		add(c)
	}

	// Drop the last (fastest) computer — smaller fleets are easier to
	// trace by hand.
	if len(s.Speeds) > 2 {
		c := s
		c.Speeds = append([]float64(nil), s.Speeds[:len(s.Speeds)-1]...)
		add(c)
	}
	return out
}

// dropEach returns spec with one comma item removed, once per item;
// nothing for specs with fewer than two items (whole-layer drop covers
// the single-item case).
func dropEach(spec string) []string {
	if spec == "" {
		return nil
	}
	items := strings.Split(spec, ",")
	if len(items) < 2 {
		return nil
	}
	out := make([]string, 0, len(items))
	for i := range items {
		rest := make([]string, 0, len(items)-1)
		rest = append(rest, items[:i]...)
		rest = append(rest, items[i+1:]...)
		out = append(out, strings.Join(rest, ","))
	}
	return out
}

// halveEachRate rewrites one loss:/dup: item at a time with its rate
// halved — softened faults that still reproduce make the cause easier
// to see.
func halveEachRate(spec string) []string {
	if spec == "" {
		return nil
	}
	items := strings.Split(spec, ",")
	var out []string
	for i, it := range items {
		kind, rest, ok := strings.Cut(it, ":")
		if !ok || (kind != "loss" && kind != "dup") {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || v <= 1e-4 {
			continue
		}
		mod := append([]string(nil), items...)
		mod[i] = kind + ":" + strconv.FormatFloat(roundSig(v/2, 6), 'g', -1, 64)
		out = append(out, strings.Join(mod, ","))
	}
	return out
}

// roundSig rounds v to n significant decimal digits so shrunken specs
// stay readable instead of accumulating float dust.
func roundSig(v float64, n int) float64 {
	s := strconv.FormatFloat(v, 'g', n, 64)
	r, _ := strconv.ParseFloat(s, 64)
	return r
}
