package chaos

import (
	"fmt"

	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/probe"
	"heterosched/internal/sim"
)

// Options tune one chaos execution.
type Options struct {
	// Events, when non-nil, additionally receives the full lifecycle
	// event stream (e.g. a probe.JSONLWriter over a file, for replay
	// artifacts). The in-process checkers run regardless.
	Events probe.EventWriter
	// InjectDoubleFinal is a test-only seeded bug: every job whose ID is
	// a multiple of this value has its OnFinal accounting fire twice,
	// violating final-exactly-once on purpose. It exists to prove the
	// harness catches and shrinks real violations (see TestShrinkSeededBug
	// and cmd/chaos -inject-double-final); 0 in any honest run.
	InjectDoubleFinal int64
}

// Report is the outcome of one checked chaos run.
type Report struct {
	// Spec is the scenario that ran.
	Spec Spec
	// Result is the cluster run result.
	Result *cluster.Result
	// EventStats summarizes the in-process event verification.
	EventStats *probe.VerifyStats
	// Violations lists every broken invariant, empty on a clean run.
	Violations []Violation
	// FinalJobs is the number of distinct jobs the OnFinal ledger saw.
	FinalJobs int64
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Violated reports whether the named invariant was broken.
func (r *Report) Violated(name string) bool {
	for _, v := range r.Violations {
		if v.Invariant == name {
			return true
		}
	}
	return false
}

// stallHorizon resolves the watchdog horizon: explicit, or half the
// scenario duration — generous enough that legitimate lulls (a long
// partition, a crashed dispatcher waiting out its MTTR) do not trip it,
// tight enough to flag a run that stopped finishing jobs wholesale.
func (s Spec) stallHorizon() float64 {
	if s.Stall > 0 {
		return s.Stall
	}
	return s.Duration / 2
}

// inSystemCeiling resolves the watchdog's in-system bound: explicit, or
// twice the expected total arrival count (the in-system count can never
// legitimately exceed the number of generated jobs, so the default only
// trips on accounting corruption — a negative wrap, a leak of recycled
// jobs — not on honest queue growth).
func (s Spec) inSystemCeiling() int64 {
	if s.MaxInSystem > 0 {
		return s.MaxInSystem
	}
	var sum float64
	for _, v := range s.Speeds {
		sum += v
	}
	if sum == 0 {
		sum = 14 // default 1,1,2,10
	}
	lambda := s.Rho * sum / dist.PaperJobSize().Mean()
	n := int64(2 * lambda * s.Duration)
	if n < 1000 {
		n = 1000
	}
	return n
}

// Execute runs one scenario with the full invariant registry attached
// in-process: a probe event sink feeds the lifecycle verifier, the
// breaker state-machine watch and the terminal-progress watch, while
// the cluster result supplies the conservation ledger and queue
// high-water marks. No JSONL export is needed (attach Options.Events
// for a replay artifact). The returned Report carries every violation;
// err is reserved for specs that fail to build or run at all.
func Execute(spec Spec, opts Options) (*Report, error) {
	cfg, pf, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("chaos: spec %q: %v", spec.String(), err)
	}

	stall := spec.stallHorizon()
	sampleDT := stall / 8
	if min := spec.Duration / 2000; sampleDT < min {
		sampleDT = min
	}
	verifier := probe.NewVerifier()
	bw := newBreakerWatch()
	tw := &terminalWatch{}
	tok := &tokenWatch{}
	sinks := fanoutSink{verifier, bw, tw, tok}
	if opts.Events != nil {
		sinks = append(sinks, opts.Events)
	}
	pb, err := probe.New(probe.Options{Events: sinks})
	if err != nil {
		return nil, err
	}
	cfg.Probe = pb
	cfg.SampleInterval = sampleDT

	ledger := map[int64]int64{}
	cfg.OnFinal = func(j *sim.Job, o cluster.Outcome) {
		ledger[j.ID]++
		if opts.InjectDoubleFinal > 0 && j.ID%opts.InjectDoubleFinal == 0 {
			ledger[j.ID]++
		}
	}

	res, err := cluster.Run(cfg, pf())
	if err != nil {
		return nil, fmt.Errorf("chaos: spec %q: %v", spec.String(), err)
	}
	if err := sinks.Flush(); err != nil {
		return nil, err
	}

	rep := &Report{Spec: spec, Result: res, FinalJobs: int64(len(ledger))}

	// conservation: every generated arrival reached exactly one terminal
	// outcome (the run drained), and nothing is left in the system.
	var terminated int64
	for _, c := range res.Outcomes {
		terminated += c
	}
	if terminated != res.GeneratedJobs {
		rep.add(InvConservation, "generated %d jobs but recorded %d terminal outcomes", res.GeneratedJobs, terminated)
	}
	if res.FinalInSystem != 0 {
		rep.add(InvConservation, "%d jobs still in the system after the drain", res.FinalInSystem)
	}

	// final-exactly-once: the OnFinal ledger (warm-up is zero, so every
	// job is covered).
	var dupJobs, dupCalls int64
	firstDup := int64(-1)
	for id, c := range ledger {
		if c != 1 {
			dupJobs++
			dupCalls += c - 1
			if firstDup < 0 || id < firstDup {
				firstDup = id
			}
		}
	}
	if dupJobs > 0 {
		rep.add(InvFinalOnce, "%d jobs saw multiple OnFinal calls (%d extra calls; first: job %d)", dupJobs, dupCalls, firstDup)
	}
	if rep.FinalJobs != terminated {
		rep.add(InvFinalOnce, "OnFinal covered %d jobs but %d terminal outcomes were recorded", rep.FinalJobs, terminated)
	}

	// Event-stream invariants from the in-process verifier.
	rep.EventStats = verifier.Finish(true)
	for _, v := range rep.EventStats.Details {
		rep.Violations = append(rep.Violations, Violation{Invariant: invariantForCode(v.Code), Detail: v.Msg})
	}
	if extra := rep.EventStats.Violations - int64(len(rep.EventStats.Details)); extra > 0 {
		rep.add(InvLifecycle, "%d further event-stream violations truncated", extra)
	}

	// queue-cap: the bounded queues' high-water marks.
	if qcap := spec.queueCap(); qcap > 0 && res.Overload != nil {
		for i, m := range res.Overload.MaxOccupancy {
			if m > qcap {
				rep.add(InvQueueCap, "computer %d held %d jobs with queue cap %d", i, m, qcap)
			}
		}
	}

	rep.Violations = append(rep.Violations, bw.violations...)
	rep.Violations = append(rep.Violations, tok.violations...)

	// Control-plane ledgers: conservation up to loss and exactly-once
	// under duplication, straight from the run's token counters.
	if cs := res.Ctrl; cs != nil {
		if held := cs.TokensSpent + cs.TokensExpired + cs.TokensDiscarded + cs.TokensExtant; held != cs.TokensAccepted {
			rep.add(InvTokenConserve, "accepted %d tokens but spent %d + expired %d + discarded %d + extant %d = %d",
				cs.TokensAccepted, cs.TokensSpent, cs.TokensExpired, cs.TokensDiscarded, cs.TokensExtant, held)
		}
		if cs.TokensDelivered != cs.TokensAccepted+cs.TokensDeduped {
			rep.add(InvCtrlDedup, "delivered %d token copies but accepted %d + deduped %d",
				cs.TokensDelivered, cs.TokensAccepted, cs.TokensDeduped)
		}
	}
	rep.Violations = append(rep.Violations,
		checkProgress(tw.times, res.InSystemSeries, sampleDT, spec.Duration, stall, spec.inSystemCeiling())...)
	return rep, nil
}

// add appends a formatted violation.
func (r *Report) add(inv, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}
