package experiments

import (
	"fmt"
	"strings"

	"heterosched/internal/chaos"
	"heterosched/internal/cluster"
)

// The extension studies that price the paper's assumptions (ext-faults,
// -overload, -drift, -netfaults, -sharding, -control) write every point
// of their tables as a layered cell: a policy mnemonic and layer flags
// as chaos scenario items in the flags' own grammar, e.g.
//
//	policy=ORR;mtbf=2e4;mttr=2e3;fate=requeue;detect=10;realloc=resolve
//
// on a fleet, at an offered load, over a horizon. chaos.ParseSpec reads
// the items and chaos.Spec.Config builds the run through the chain
// heterosim, sweep and chaos share, so each cell is one heterosim
// command and runs as a chaos scenario under the invariant registry.

// A cell is one layered point of an extension study.
type cell struct {
	label string
	chaos.Spec
}

// layered parses the items of a cell labeled label for a run of dur
// simulated seconds on speeds at offered load rho, from o's seed.
func (o Options) layered(label string, speeds []float64, rho, dur float64, items ...string) (cell, error) {
	sp, err := chaos.ParseSpec(strings.Join(items, ";"))
	if err != nil {
		return cell{}, fmt.Errorf("%s: %w", label, err)
	}
	sp.Speeds, sp.Rho, sp.Duration, sp.Seed = speeds, rho, dur, o.Seed
	return cell{label, sp}, nil
}

// runCell runs o.Reps replications of c.
func (o Options) runCell(c cell) (*cluster.ReplicatedResult, error) {
	cfg, pf, err := c.Config()
	if err != nil {
		return nil, err
	}
	return cluster.RunReplications(cfg, pf, o.Reps)
}
