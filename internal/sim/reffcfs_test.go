package sim

import (
	"fmt"
	"math"
	"testing"

	"heterosched/internal/rng"
)

// This file preserves the dedicated FCFS server — one event per job, a
// completion that ignores the rounding residual — verbatim under renamed
// types. The simulator builds FCFS computers as RRServers with an
// infinite quantum; TestRRInfiniteQuantumMatchesFCFS drives both with the
// same operations and requires identical departures, Remaining,
// InService and BusyTime, proving that the deletion changed no output.
//
// Do not "fix" or modernize this code; its value is being exactly what
// shipped before the merge.

// refFCFS serves jobs one at a time in arrival order.
type refFCFS struct {
	engine   *Engine
	speed    float64
	onDepart func(*Job)

	queue     []*Job
	headEv    Event
	headStart float64 // engine time the head job began service
	// finishFn is the finishHead method value, bound once so each service
	// completion does not allocate a fresh closure.
	finishFn func()

	busyTime  float64
	busySince float64
}

// newRefFCFS creates a first-come-first-served server.
func newRefFCFS(en *Engine, speed float64, onDepart func(*Job)) *refFCFS {
	if !(speed > 0) {
		panic(fmt.Sprintf("sim: FCFS server speed must be positive, got %v", speed))
	}
	s := &refFCFS{engine: en, speed: speed, onDepart: onDepart}
	s.finishFn = s.finishHead
	return s
}

// InService returns queued plus running jobs.
func (s *refFCFS) InService() int { return len(s.queue) }

// BusyTime returns cumulative non-idle time up to the engine's clock.
func (s *refFCFS) BusyTime() float64 {
	if len(s.queue) > 0 {
		return s.busyTime + (s.engine.Now() - s.busySince)
	}
	return s.busyTime
}

// Arrive enqueues a job, starting it immediately if the server is idle.
func (s *refFCFS) Arrive(j *Job) {
	if !(j.Size > 0) {
		panic(fmt.Sprintf("sim: job %d has non-positive size %v", j.ID, j.Size))
	}
	j.attained = j.Size // remaining work at speed 1
	s.queue = append(s.queue, j)
	if len(s.queue) == 1 {
		s.busySince = s.engine.Now()
		s.startHead()
	}
}

func (s *refFCFS) startHead() {
	head := s.queue[0]
	s.headStart = s.engine.Now()
	s.headEv = s.engine.ScheduleAfter(head.attained/s.speed, s.finishFn)
}

// finishHead completes the running head job. The head cannot have changed
// since startHead: Remove and Evict cancel the pending event before
// touching the queue.
func (s *refFCFS) finishHead() {
	s.headEv = Event{}
	head := s.queue[0]
	s.queue = s.queue[1:]
	head.Completion = s.engine.Now()
	if len(s.queue) == 0 {
		s.busyTime += s.engine.Now() - s.busySince
	} else {
		s.startHead()
	}
	if s.onDepart != nil {
		s.onDepart(head)
	}
}

// Evict removes every job from the FCFS queue. The head job is charged
// for the service it received since it started.
func (s *refFCFS) Evict() []*Job {
	if len(s.queue) == 0 {
		return nil
	}
	if s.headEv.Active() {
		s.headEv.Cancel()
		s.headEv = Event{}
		head := s.queue[0]
		head.attained -= (s.engine.Now() - s.headStart) * s.speed
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

// Resume re-admits an evicted job at the tail of the FCFS queue with
// demand j.Remaining.
func (s *refFCFS) Resume(j *Job) {
	checkRemaining(j)
	j.attained = j.Remaining
	s.queue = append(s.queue, j)
	if len(s.queue) == 1 {
		s.busySince = s.engine.Now()
		s.startHead()
	}
}

// Remove extracts j from the FCFS queue. A running head job is charged
// for the service it received since it started.
func (s *refFCFS) Remove(j *Job) bool {
	idx := -1
	for i, q := range s.queue {
		if q == j {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	if idx == 0 && s.headEv.Active() {
		s.headEv.Cancel()
		s.headEv = Event{}
		j.attained -= (s.engine.Now() - s.headStart) * s.speed
		if j.attained < 0 {
			j.attained = 0
		}
	}
	j.Remaining = j.attained
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	if len(s.queue) == 0 {
		s.busyTime += s.engine.Now() - s.busySince
	} else if idx == 0 && !s.headEv.Active() {
		s.startHead()
	}
	return true
}

var _ Server = (*refFCFS)(nil)

// TestRRInfiniteQuantumMatchesFCFS drives an RRServer with an infinite
// quantum beside refFCFS through random arrivals, evictions, resumes and
// removals, and requires the same departures in the same order at the
// same times, and the same Remaining, InService and BusyTime after every
// step. Half the sizes lie in [4096, 21600), the paper's upper range,
// where attained − (attained/speed)·speed can exceed RR's 1e-12
// completion tolerance at speeds that are not powers of two: without the
// last-slice rule RR would take a micro-slice that FCFS never took.
func TestRRInfiniteQuantumMatchesFCFS(t *testing.T) {
	trials, steps := 300, 400
	if testing.Short() {
		trials = 60
	}
	speeds := []float64{1, 1.5, 3, 7, 10, 0.37}
	for trial := 0; trial < trials; trial++ {
		speed := speeds[trial%len(speeds)]
		st := rng.New(uint64(trial) + 1)
		var enRR, enRef Engine
		var doneRR, doneRef []*Job
		rr := NewRRServer(&enRR, speed, math.Inf(1), func(j *Job) { doneRR = append(doneRR, j) })
		ref := newRefFCFS(&enRef, speed, func(j *Job) { doneRef = append(doneRef, j) })
		// Each job exists twice, one copy per server; jobs[k] is the pair
		// of the job with ID k. held lists the evicted and removed jobs
		// awaiting Resume.
		var jobs [][2]*Job
		var held []int
		// With arrivals at half the steps, the mean gap puts the offered
		// load near 0.9, so queues build up and drain.
		meanSize := 0.5*(4096+21600)/2 + 0.5*20
		meanGap := 0.5 * meanSize / speed / 0.9
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d (speed %v) step %d: %s", trial, speed, step, fmt.Sprintf(format, args...))
		}
		check := func(step int) {
			t.Helper()
			if len(doneRR) != len(doneRef) {
				fail(step, "RR departed %d jobs, FCFS %d", len(doneRR), len(doneRef))
			}
			for k := range doneRR {
				a, b := doneRR[k], doneRef[k]
				if a.ID != b.ID || a.Completion != b.Completion {
					fail(step, "departure %d: RR job %d at %v, FCFS job %d at %v", k, a.ID, a.Completion, b.ID, b.Completion)
				}
			}
			if a, b := rr.InService(), ref.InService(); a != b {
				fail(step, "InService RR %d, FCFS %d", a, b)
			}
			if a, b := rr.BusyTime(), ref.BusyTime(); a != b {
				fail(step, "BusyTime RR %v, FCFS %v", a, b)
			}
		}
		sameRemaining := func(step int, a, b *Job) {
			t.Helper()
			if a.ID != b.ID || a.Remaining != b.Remaining {
				fail(step, "RR job %d has %v remaining, FCFS job %d %v", a.ID, a.Remaining, b.ID, b.Remaining)
			}
		}
		now := 0.0
		for step := 0; step < steps; step++ {
			now += st.Exp(meanGap)
			enRR.RunUntil(now)
			enRef.RunUntil(now)
			enRR.AdvanceTo(now)
			enRef.AdvanceTo(now)
			check(step)
			switch u := st.Float64(); {
			case u < 0.5:
				size := st.Exp(20) + 1e-3
				if st.Float64() < 0.5 {
					size = st.Uniform(4096, 21600)
				}
				id := int64(len(jobs))
				pair := [2]*Job{{ID: id, Size: size, Arrival: now}, {ID: id, Size: size, Arrival: now}}
				jobs = append(jobs, pair)
				rr.Arrive(pair[0])
				ref.Arrive(pair[1])
			case u < 0.6:
				a, b := rr.Evict(), ref.Evict()
				if len(a) != len(b) {
					fail(step, "RR evicted %d jobs, FCFS %d", len(a), len(b))
				}
				for k := range a {
					sameRemaining(step, a[k], b[k])
					held = append(held, int(a[k].ID))
				}
			case u < 0.8:
				if len(held) == 0 {
					break
				}
				k := st.Intn(len(held))
				id := held[k]
				held = append(held[:k], held[k+1:]...)
				rr.Resume(jobs[id][0])
				ref.Resume(jobs[id][1])
			default:
				if len(jobs) == 0 {
					break
				}
				// Any job: one at the server, held or departed.
				id := st.Intn(len(jobs))
				a, b := rr.Remove(jobs[id][0]), ref.Remove(jobs[id][1])
				if a != b {
					fail(step, "Remove(job %d): RR %v, FCFS %v", id, a, b)
				}
				if a {
					sameRemaining(step, jobs[id][0], jobs[id][1])
					held = append(held, id)
				}
			}
			check(step)
		}
		enRR.RunUntil(math.Inf(1))
		enRef.RunUntil(math.Inf(1))
		check(steps)
	}
}
