package cluster

import (
	"fmt"

	"heterosched/internal/probe"
)

// Outcome classifies how a job left the system. Every admitted arrival
// reaches exactly one outcome; Config.OnFinal receives it, and Completed
// selects the completions.
type Outcome int

const (
	// OutcomeCompleted is a normal completion (within deadline, if any).
	OutcomeCompleted Outcome = iota
	// OutcomeLate is a completion after the job's deadline under
	// DeadlineMark (counted as a deadline miss, excluded from goodput).
	OutcomeLate
	// OutcomeKilledDeadline is a deadline expiry under DeadlineKill.
	OutcomeKilledDeadline
	// OutcomeShedOverflow is a bounded-queue overflow shed.
	OutcomeShedOverflow
	// OutcomeDroppedRetryBudget is a drop after the dispatcher retry
	// budget was exhausted (timeouts/rejections).
	OutcomeDroppedRetryBudget
	// OutcomeRejectedAdmission is a drop at admission control (token
	// bucket) before any dispatch.
	OutcomeRejectedAdmission
	// OutcomeLostFailure is a job discarded by the fault machinery (fate
	// Lost, or the failure-requeue budget exhausted).
	OutcomeLostFailure
	// OutcomeLostNetwork is a job the network-fault layer gave up on: its
	// dispatch was never accepted by any computer (lost or blocked on
	// every transmission) and the resubmission budget is exhausted.
	OutcomeLostNetwork
	// OutcomeDroppedDispatcher is a job that arrived while the dispatcher
	// was crashed and was rejected by the downtime policy (drop, or buffer
	// overflow).
	OutcomeDroppedDispatcher

	numOutcomes
)

// NumOutcomes is the number of distinct terminal outcomes; valid
// Outcome values are 0 ≤ o < NumOutcomes. Result.Outcomes has this
// length.
const NumOutcomes = int(numOutcomes)

var outcomeNames = [numOutcomes]string{
	"completed",
	"late",
	"deadline-killed",
	"shed",
	"retry-dropped",
	"rejected",
	"failure-lost",
	"net-lost",
	"dispatcher-drop",
}

// String returns the outcome's wire name, used in traces and manifests.
func (o Outcome) String() string {
	if o < 0 || o >= numOutcomes {
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
	return outcomeNames[o]
}

// ParseOutcome maps a wire name back to its Outcome.
func ParseOutcome(s string) (Outcome, error) {
	for o, name := range outcomeNames {
		if s == name {
			return Outcome(o), nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown outcome %q", s)
}

// Completed reports whether the job finished its work (possibly late), as
// opposed to being killed, shed, dropped, rejected or lost.
func (o Outcome) Completed() bool {
	return o == OutcomeCompleted || o == OutcomeLate
}

// terminalCauses lists every cause string probeEvent can report, in
// outcome order, for pre-registering allocation-free per-cause span
// aggregates.
func terminalCauses() []string {
	out := make([]string, numOutcomes)
	for o := Outcome(0); o < numOutcomes; o++ {
		_, out[o] = o.probeEvent()
	}
	return out
}

// probeEvent maps an outcome to its terminal lifecycle event kind and
// cause string.
func (o Outcome) probeEvent() (probe.EventKind, string) {
	switch o {
	case OutcomeCompleted:
		return probe.EvDeparture, ""
	case OutcomeLate:
		return probe.EvDeparture, "late"
	case OutcomeKilledDeadline:
		return probe.EvKill, "deadline"
	case OutcomeShedOverflow:
		return probe.EvDrop, "shed"
	case OutcomeDroppedRetryBudget:
		return probe.EvDrop, "retry-budget"
	case OutcomeRejectedAdmission:
		return probe.EvDrop, "admission"
	case OutcomeLostFailure:
		return probe.EvDrop, "failure"
	case OutcomeLostNetwork:
		return probe.EvDrop, "network"
	case OutcomeDroppedDispatcher:
		return probe.EvDrop, "dispatcher-down"
	default:
		return probe.EvDrop, o.String()
	}
}
