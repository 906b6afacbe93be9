package sim

import "fmt"

// RRServer is a quantum-based preemptive round-robin server: the job at
// the head of the run queue executes for up to one quantum, then is
// preempted and moved to the tail. As the quantum shrinks, behavior
// converges to processor sharing (PSServer); the server exists to quantify
// quantum sensitivity (an ablation called out in DESIGN.md §5).
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
	// endSliceFn is the endSlice method value, bound once so each slice
	// does not allocate a fresh closure.
	endSliceFn func()

	busyTime  float64
	busySince float64
}

// NewRRServer creates a round-robin server with the given speed and
// quantum (both > 0).
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
	head := s.queue[0]
	sliceTime := s.quantum
	if need := head.attained / s.speed; need < sliceTime {
		sliceTime = need
	}
	s.sliceStart = s.engine.Now()
	s.sliceLen = sliceTime
	s.sliceEv = s.engine.ScheduleAfter(sliceTime, s.endSliceFn)
}

// endSlice charges the elapsed slice to the head job, then either
// completes it or rotates it to the tail.
func (s *RRServer) endSlice() {
	sliceTime := s.sliceLen
	s.sliceEv = Event{}
	head := s.queue[0]
	head.attained -= sliceTime * s.speed
	if head.attained <= 1e-12 {
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

// FCFSServer serves jobs one at a time in arrival order. It is not the
// paper's discipline but provides a contrast for heavy-tailed workloads
// (PS is robust to job-size variability; FCFS is not).
type FCFSServer struct {
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

// NewFCFSServer creates a first-come-first-served server.
func NewFCFSServer(en *Engine, speed float64, onDepart func(*Job)) *FCFSServer {
	if !(speed > 0) {
		panic(fmt.Sprintf("sim: FCFS server speed must be positive, got %v", speed))
	}
	s := &FCFSServer{engine: en, speed: speed, onDepart: onDepart}
	s.finishFn = s.finishHead
	return s
}

// InService returns queued plus running jobs.
func (s *FCFSServer) InService() int { return len(s.queue) }

// BusyTime returns cumulative non-idle time up to the engine's clock.
func (s *FCFSServer) BusyTime() float64 {
	if len(s.queue) > 0 {
		return s.busyTime + (s.engine.Now() - s.busySince)
	}
	return s.busyTime
}

// Arrive enqueues a job, starting it immediately if the server is idle.
func (s *FCFSServer) Arrive(j *Job) {
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

func (s *FCFSServer) startHead() {
	head := s.queue[0]
	s.headStart = s.engine.Now()
	s.headEv = s.engine.ScheduleAfter(head.attained/s.speed, s.finishFn)
}

// finishHead completes the running head job. The head cannot have changed
// since startHead: Remove and Evict cancel the pending event before
// touching the queue.
func (s *FCFSServer) finishHead() {
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
