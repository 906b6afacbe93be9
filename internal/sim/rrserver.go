package sim

import "fmt"

// RRServer is a quantum-based preemptive round-robin server: the job at
// the head of the run queue executes for up to one quantum, then is
// preempted and moved to the tail. As the quantum shrinks, behavior
// converges to processor sharing (PSServer); the server exists to quantify
// quantum sensitivity (an ablation called out in DESIGN.md §5). With an
// infinite quantum it never preempts: it serves jobs one at a time in
// arrival order, first-come-first-served, which contrasts with PS on
// heavy-tailed workloads (PS is robust to job-size variability; FCFS is
// not).
//
// Each slice is one event, so cost scales with size/quantum; use PSServer
// for production-scale runs.
type RRServer struct {
	engine   *Engine
	speed    float64
	quantum  float64 // slice length in seconds of wall time
	onDepart func(*Job)

	queue      []*Job // FIFO run queue; queue[0] is running
	sliceEv    Event
	sliceStart float64 // engine time the current slice began
	sliceLen   float64 // length of the current slice
	// lastSlice marks a slice sized to the head job's whole remaining
	// need. It completes the job whatever the rounding residual of
	// attained − sliceLen·speed, which exceeds the 1e-12 tolerance for
	// sizes above ~4096 at speeds that are not powers of two and would
	// otherwise cost a micro-slice.
	lastSlice bool
	// endSliceFn is the endSlice method value, bound once so each slice
	// does not allocate a fresh closure.
	endSliceFn func()

	busyTime  float64
	busySince float64
}

// NewRRServer creates a round-robin server with the given speed and
// quantum (both > 0; math.Inf(1) for FCFS).
func NewRRServer(en *Engine, speed, quantum float64, onDepart func(*Job)) *RRServer {
	if !(speed > 0) || !(quantum > 0) {
		panic(fmt.Sprintf("sim: invalid RR server (speed=%v, quantum=%v)", speed, quantum))
	}
	s := &RRServer{engine: en, speed: speed, quantum: quantum, onDepart: onDepart}
	s.endSliceFn = s.endSlice
	return s
}

// InService returns the number of queued plus running jobs.
func (s *RRServer) InService() int { return len(s.queue) }

// BusyTime returns cumulative non-idle time up to the engine's clock.
func (s *RRServer) BusyTime() float64 {
	if len(s.queue) > 0 {
		return s.busyTime + (s.engine.Now() - s.busySince)
	}
	return s.busyTime
}

// Arrive enqueues a job; if the server was idle it begins a slice.
func (s *RRServer) Arrive(j *Job) {
	if !(j.Size > 0) {
		panic(fmt.Sprintf("sim: job %d has non-positive size %v", j.ID, j.Size))
	}
	j.attained = j.Size // remaining work at speed 1
	s.queue = append(s.queue, j)
	if len(s.queue) == 1 {
		s.busySince = s.engine.Now()
		s.startSlice()
	}
}

// startSlice schedules the end of the head job's next slice.
func (s *RRServer) startSlice() {
	need := s.queue[0].attained / s.speed
	s.lastSlice = need <= s.quantum
	s.sliceLen = min(need, s.quantum)
	s.sliceStart = s.engine.Now()
	s.sliceEv = s.engine.ScheduleAfter(s.sliceLen, s.endSliceFn)
}

// endSlice charges the elapsed slice to the head job, then either
// completes it or rotates it to the tail.
func (s *RRServer) endSlice() {
	s.sliceEv = Event{}
	head := s.queue[0]
	head.attained -= s.sliceLen * s.speed
	if s.lastSlice || head.attained <= 1e-12 {
		s.queue = s.queue[1:]
		head.Completion = s.engine.Now()
		if len(s.queue) == 0 {
			s.busyTime += s.engine.Now() - s.busySince
		} else {
			s.startSlice()
		}
		if s.onDepart != nil {
			s.onDepart(head)
		}
		return
	}
	// Preempt: rotate to the tail (no-op when alone).
	if len(s.queue) > 1 {
		copy(s.queue, s.queue[1:])
		s.queue[len(s.queue)-1] = head
	}
	s.startSlice()
}
