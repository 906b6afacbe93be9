package sim

import (
	"fmt"
	"math"
)

// This file implements Server's Evict and Resume for the two server
// disciplines, supporting computer failure injection (internal/faults):
// Evict models the instant a computer dies with work in progress, Resume
// models re-admitting that work after repair. With no failures injected,
// none of this code runs and server behavior is unchanged.

func checkRemaining(j *Job) {
	if j.Remaining < 0 || math.IsNaN(j.Remaining) {
		panic(fmt.Sprintf("sim: job %d has invalid remaining demand %v", j.ID, j.Remaining))
	}
}

// Evict removes every job from the processor-sharing set, recording each
// job's remaining demand (attained target minus current virtual time).
func (s *PSServer) Evict() []*Job {
	if len(s.jobs) == 0 {
		return nil
	}
	s.advance()
	if s.nextEv.Active() {
		s.nextEv.Cancel()
		s.nextEv = Event{}
	}
	out := s.jobs
	s.jobs = nil
	for _, j := range out {
		rem := j.attained - s.vtime
		if rem < 0 {
			rem = 0 // the job was at its departure instant
		}
		j.Remaining = rem
		j.heapIdx = -1
	}
	s.busyTime += s.engine.Now() - s.busySince
	return out
}

// Resume re-admits an evicted job with demand j.Remaining. A zero-demand
// job departs via an immediate event.
func (s *PSServer) Resume(j *Job) {
	checkRemaining(j)
	s.advance()
	if len(s.jobs) == 0 {
		s.busySince = s.engine.Now()
		s.vtime = 0
	}
	j.attained = s.vtime + j.Remaining
	s.push(j)
	s.reschedule()
}

// Evict removes every job from the run queue. The head job is charged for
// the portion of its current slice already executed.
func (s *RRServer) Evict() []*Job {
	if len(s.queue) == 0 {
		return nil
	}
	if s.sliceEv.Active() {
		s.sliceEv.Cancel()
		s.sliceEv = Event{}
		head := s.queue[0]
		head.attained -= (s.engine.Now() - s.sliceStart) * s.speed
		if head.attained < 0 {
			head.attained = 0
		}
	}
	out := s.queue
	s.queue = nil
	for _, j := range out {
		j.Remaining = j.attained
	}
	s.busyTime += s.engine.Now() - s.busySince
	return out
}

// Resume re-admits an evicted job at the tail of the run queue with
// demand j.Remaining.
func (s *RRServer) Resume(j *Job) {
	checkRemaining(j)
	j.attained = j.Remaining
	s.queue = append(s.queue, j)
	if len(s.queue) == 1 {
		s.busySince = s.engine.Now()
		s.startSlice()
	}
}
