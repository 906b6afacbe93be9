package dispatch

import (
	"errors"
	"fmt"
)

// This file adds failure masking to the three dispatchers: when computers
// fail (internal/faults), the scheduler — once it detects the failure —
// must stop routing jobs into the dead backends. SetUp installs an up-set
// mask; the dispatcher renormalizes its target fractions over the
// surviving computers and never returns a masked index. With no mask
// installed (or after SetUp(nil)) behavior is bit-identical to the
// unmasked dispatchers.

// ErrNoComputerUp is returned by SetUp when the mask leaves no computer
// selectable. Callers typically keep the previous mask in that case: with
// the whole cluster down there is no good routing decision, and jobs
// queue at dead computers until a repair.
var ErrNoComputerUp = errors.New("dispatch: mask leaves no computer up")

// Masked is a Dispatcher that can exclude down computers from selection.
type Masked interface {
	Dispatcher
	// SetUp replaces the availability mask: Next will only return
	// indices i with up[i] == true, redistributing the masked computers'
	// fractions over the survivors. SetUp(nil) clears the mask. It
	// returns ErrNoComputerUp (leaving the previous mask in place) when
	// no computer would remain selectable, and an error on a length
	// mismatch.
	SetUp(up []bool) error
}

var (
	_ Masked = (*Random)(nil)
	_ Masked = (*RoundRobin)(nil)
	_ Masked = (*CyclicWRR)(nil)
)

// maskWeights renormalizes fr over the up computers. When every surviving
// fraction is zero (e.g. a stale optimized allocation whose only loaded
// computers all failed), it falls back to an equal split over the up-set.
func maskWeights(fr []float64, up []bool) []float64 {
	sum := 0.0
	nUp := 0
	for i, u := range up {
		if u {
			sum += fr[i]
			nUp++
		}
	}
	w := make([]float64, len(fr))
	for i, u := range up {
		switch {
		case !u:
		case sum > 0:
			w[i] = fr[i] / sum
		default:
			w[i] = 1 / float64(nUp)
		}
	}
	return w
}

// checkMask validates an up mask against n computers.
func checkMask(up []bool, n int) error {
	if len(up) != n {
		return fmt.Errorf("dispatch: mask has %d entries for %d computers", len(up), n)
	}
	for _, u := range up {
		if u {
			return nil
		}
	}
	return ErrNoComputerUp
}

// SetUp installs the availability mask on the random dispatcher by
// rebuilding the cumulative selection vector over the up computers.
func (r *Random) SetUp(up []bool) error {
	if up == nil {
		r.maskedCum = nil
		return nil
	}
	if err := checkMask(up, len(r.fr)); err != nil {
		return err
	}
	w := maskWeights(r.fr, up)
	cum := make([]float64, len(w))
	run := 0.0
	last := 0
	for i, wi := range w {
		run += wi
		cum[i] = run
		if up[i] {
			last = i
		}
	}
	// Pin the last up computer (and the flat tail after it) to exactly 1
	// so the inverse-CDF search always lands on an up index: a down index
	// j has cum[j] == cum[j−1] (or 0 at j = 0), so it is never the first
	// entry above u.
	for i := last; i < len(cum); i++ {
		cum[i] = 1
	}
	r.maskedCum = cum
	return nil
}

// SetUp installs the availability mask on the smoothed round-robin
// dispatcher, renormalizing the target fractions over the up computers.
// Down computers are frozen (skipped in selection, next counters held) so
// a repaired computer rejoins the rotation smoothly. The counters are
// read under the old mask, and the ring, the far heap and the unstarted
// queue are rebuilt, O(n log n).
func (rr *RoundRobin) SetUp(up []bool) error {
	if up != nil {
		if err := checkMask(up, len(rr.fractions)); err != nil {
			return err
		}
	}
	rr.clearRing()
	rr.settle()
	if up == nil {
		rr.up = nil
		rr.eff = rr.fractions
	} else {
		rr.up = append([]bool(nil), up...)
		rr.eff = maskWeights(rr.fractions, up)
	}
	rr.rebuild()
	return nil
}

// SetUp installs the availability mask on the cyclic WRR dispatcher. The
// masked cycle serves only the up computers' quotas, which renormalizes
// the realized fractions without rebuilding the quota vector.
func (c *CyclicWRR) SetUp(up []bool) error {
	if up == nil {
		c.up = nil
		c.upQuota = 0
		return nil
	}
	if err := checkMask(up, len(c.quota)); err != nil {
		return err
	}
	c.up = append([]bool(nil), up...)
	c.upQuota = 0
	for i, u := range up {
		if u {
			c.upQuota += c.quota[i]
		}
	}
	return nil
}

// nextMasked is the masked selection path of CyclicWRR.Next: advance
// through the up computers' remaining quotas, resetting the cycle when
// the up-set has exhausted it.
func (c *CyclicWRR) nextMasked() int {
	n := len(c.quota)
	if c.upQuota == 0 {
		// Degenerate mask: every surviving computer has a zero base
		// quota. Fall back to plain round-robin over the up-set.
		for tries := 0; tries < n; tries++ {
			c.ptr = (c.ptr + 1) % n
			if c.up[c.ptr] {
				return c.ptr
			}
		}
		panic("dispatch: cyclic WRR mask left no computer up")
	}
	for pass := 0; pass < 2; pass++ {
		for tries := 0; tries < n; tries++ {
			if c.up[c.ptr] && c.sent[c.ptr] < c.quota[c.ptr] {
				c.sent[c.ptr]++
				return c.ptr
			}
			c.ptr = (c.ptr + 1) % n
		}
		// Every up computer exhausted its quota: start a new cycle.
		for i := range c.sent {
			c.sent[i] = 0
		}
	}
	panic("dispatch: cyclic WRR found no eligible computer")
}
