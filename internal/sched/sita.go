package sched

import (
	"errors"
	"fmt"
	"sort"

	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/numeric"
	"heterosched/internal/sim"
)

// SITA is Size-Interval Task Assignment with equal load (SITA-E), the
// known-size policy family of the paper's related work (Crovella,
// Harchol-Balter & Murta [5,7]; Schroeder & Harchol-Balter [15]): the job
// size range is cut into contiguous intervals, one per computer, with
// cutoffs chosen so every computer receives a load share proportional to
// its speed. Small jobs go to slow computers, the heavy tail to fast ones.
//
// Unlike the paper's static schemes, SITA requires each job's size
// a priori ("this assumption is not needed in our work", §1) — it is
// included as the informed upper reference for the static family,
// particularly under FCFS servers where isolating the heavy tail is what
// task assignment is really about.
type SITA struct {
	// JobSizes is the workload's size distribution; cutoffs are computed
	// from its load integral. Must match the simulated workload for the
	// equal-load property to hold.
	JobSizes dist.BoundedPareto

	cutoffs []float64 // ascending; len n−1
	order   []int     // computer indices sorted by ascending speed
}

var _ cluster.Policy = (*SITA)(nil)

// NewSITA returns a SITA-E policy for the given Bounded Pareto workload.
func NewSITA(sizes dist.BoundedPareto) *SITA { return &SITA{JobSizes: sizes} }

// Name returns "SITA-E".
func (s *SITA) Name() string { return "SITA-E" }

// Init computes the equal-load cutoffs for the run's computer speeds: the
// cutoff after cumulative capacity share c solves
// PartialMean(x)/Mean = c, found by bisection (the load integral is
// continuous and strictly increasing on [k, p]).
func (s *SITA) Init(ctx *cluster.Context) error {
	n := len(ctx.Speeds)
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(a, b int) bool { return ctx.Speeds[s.order[a]] < ctx.Speeds[s.order[b]] })

	total := 0.0
	for _, sp := range ctx.Speeds {
		total += sp
	}
	mean := s.JobSizes.Mean()
	s.cutoffs = make([]float64, 0, n-1)
	cum := 0.0
	for _, idx := range s.order[:n-1] {
		cum += ctx.Speeds[idx]
		share := cum / total
		x, err := numeric.Bisect(func(x float64) float64 {
			return s.JobSizes.PartialMean(x)/mean - share
		}, s.JobSizes.K, s.JobSizes.P, 1e-12*s.JobSizes.P, 200)
		if err != nil && !errors.Is(err, numeric.ErrNoConvergence) {
			return fmt.Errorf("sched: SITA cutoff at share %v: %w", share, err)
		}
		s.cutoffs = append(s.cutoffs, x)
	}
	return nil
}

// Select routes the job by its size interval.
func (s *SITA) Select(j *sim.Job) int {
	k := sort.SearchFloat64s(s.cutoffs, j.Size)
	return s.order[k]
}

// Departed is a no-op: SITA is static given the size.
func (s *SITA) Departed(*sim.Job) {}
