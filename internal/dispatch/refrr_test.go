package dispatch

import "math"

// This file preserves the O(n) Algorithm 2 dispatcher — a full scan for
// the minimum next and a full pass for step 2.h's decrement on every
// arrival — verbatim under a renamed type. The lockstep tests in
// rrlockstep_test.go drive it and RoundRobin with the same fractions,
// masks and counter syncs and compare every decision, which is how the
// offset-and-heaps RoundRobin is shown to change performance only.
//
// Do not "fix" or modernize this code; its value is being exactly what
// shipped before the rewrite.

// refRR is the scan-based Algorithm 2 dispatcher.
type refRR struct {
	fractions []float64
	assign    []int64
	next      []float64

	up  []bool
	eff []float64
}

func newRefRR(fractions []float64) (*refRR, error) {
	fr, err := checkFractions(fractions)
	if err != nil {
		return nil, err
	}
	rr := &refRR{
		fractions: fr,
		assign:    make([]int64, len(fr)),
		next:      make([]float64, len(fr)),
	}
	rr.eff = rr.fractions
	for i := range rr.next {
		rr.next[i] = 1 // guard value (step 1.b)
	}
	return rr, nil
}

func (rr *refRR) isUp(i int) bool { return rr.up == nil || rr.up[i] }

func (rr *refRR) Name() string { return "RR" }
func (rr *refRR) N() int       { return len(rr.fractions) }

func (rr *refRR) Next() int {
	// Steps 2.b–2.c: select the computer with minimum next, breaking ties
	// by the smaller normalized assignment count. Down computers are
	// skipped and their counters frozen.
	sel := -1
	minNext := math.Inf(1)
	norAssign := -1.0
	for i, f := range rr.eff {
		if f == 0 || !rr.isUp(i) {
			continue // step 2.c.1: never select zero-fraction computers
		}
		switch {
		case sel == -1 || minNext > rr.next[i]:
			minNext = rr.next[i]
			norAssign = float64(rr.assign[i]+1) / f
			sel = i
		case minNext == rr.next[i] && norAssign > float64(rr.assign[i]+1)/f:
			norAssign = float64(rr.assign[i]+1) / f
			sel = i
		}
	}
	if sel < 0 {
		panic("dispatch: all fractions zero") // impossible: Σα = 1 over the up-set
	}
	// Step 2.d: a computer's first selection resets its guard value.
	if rr.assign[sel] == 0 {
		rr.next[sel] = 0
	}
	// Steps 2.e–2.f: schedule its next turn 1/α ahead; count the job.
	rr.next[sel] += 1 / rr.eff[sel]
	rr.assign[sel]++
	// Step 2.h: one system arrival has elapsed for every started computer.
	for i := range rr.next {
		if rr.assign[i] != 0 && rr.isUp(i) {
			rr.next[i]--
		}
	}
	return sel
}

func (rr *refRR) SetUp(up []bool) error {
	if up == nil {
		rr.up = nil
		rr.eff = rr.fractions
		return nil
	}
	if err := checkMask(up, len(rr.fractions)); err != nil {
		return err
	}
	rr.up = append([]bool(nil), up...)
	rr.eff = maskWeights(rr.fractions, up)
	return nil
}

func (rr *refRR) SyncShare() ([]int64, []float64) {
	return append([]int64(nil), rr.assign...), append([]float64(nil), rr.next...)
}

func (rr *refRR) SyncApply(assign []int64, next []float64) {
	if len(assign) != len(rr.assign) || len(next) != len(rr.next) {
		return
	}
	copy(rr.assign, assign)
	copy(rr.next, next)
}

var (
	_ Masked = (*refRR)(nil)
	_ Syncer = (*refRR)(nil)
)
