package sim

import (
	"fmt"
	"math"
)

// PSServer is an exact processor-sharing server: when n jobs are present,
// each receives service at rate speed/n. This is the limiting behavior of
// preemptive round-robin as the quantum approaches zero, and the
// discipline assumed by the paper's analysis (§2.3).
//
// Implementation: virtual time. V(t) is the cumulative service received by
// any job continuously present; dV/dt = speed/n(t). A job arriving at
// virtual time V with size S departs when V reaches V+S, so the next
// departure is always the minimum "target V" in the system — maintained in
// a binary heap, giving O(log n) per arrival/departure. V is rebased to 0
// whenever the server goes idle, bounding floating-point drift.
type PSServer struct {
	engine   *Engine
	speed    float64
	onDepart func(*Job)

	jobs   []*Job // min-heap on attained (target virtual time)
	vtime  float64
	lastT  float64
	nextEv Event
	// departFn is the depart method value, bound once so the hot
	// reschedule path does not allocate a fresh closure per event.
	departFn func()

	busyTime  float64
	busySince float64
	departed  int64
}

// psFirstSlots is the number of job slots each server of a slab gets
// from the slab's shared backing array. A server that holds more jobs at
// once grows its own slice; these slots replace its first appends.
const psFirstSlots = 2

// NewPSServers creates one processor-sharing server per speed (each >0)
// in a single slab, so a fleet's servers cost one allocation and their
// first job slots one more, not a few per server. Server i calls
// onDepart(i) once, here, for its departure callback: it is invoked at
// each job's completion time, after the job's Completion field is set,
// and may schedule further events.
func NewPSServers(en *Engine, speeds []float64, onDepart func(i int) func(*Job)) []PSServer {
	slab := make([]PSServer, len(speeds))
	slots := make([]*Job, len(speeds)*psFirstSlots)
	for i, speed := range speeds {
		if !(speed > 0) {
			panic(fmt.Sprintf("sim: PS server speed must be positive, got %v", speed))
		}
		s := &slab[i]
		s.engine, s.speed, s.onDepart = en, speed, onDepart(i)
		// The full slice expression caps the server at its own slots, so
		// an append past them moves it to a slice of its own.
		s.jobs = slots[i*psFirstSlots : i*psFirstSlots : (i+1)*psFirstSlots]
		s.departFn = s.depart
	}
	return slab
}

// NewPSServer creates a processor-sharing server with the given relative
// speed (>0): a slab of one (NewPSServers). onDepart is invoked at each
// job's completion time, after the job's Completion field is set; it may
// schedule further events.
func NewPSServer(en *Engine, speed float64, onDepart func(*Job)) *PSServer {
	return &NewPSServers(en, []float64{speed}, func(int) func(*Job) { return onDepart })[0]
}

// Speed returns the server's relative speed.
func (s *PSServer) Speed() float64 { return s.speed }

// SetSpeed changes the server's speed from the engine's current time
// onward (speed drift). Service already received is preserved: the
// virtual clock is advanced at the old rate first, then the pending
// departure is recomputed at the new rate.
func (s *PSServer) SetSpeed(speed float64) {
	if !(speed > 0) {
		panic(fmt.Sprintf("sim: PS server speed must be positive, got %v", speed))
	}
	s.advance()
	s.speed = speed
	s.reschedule()
}

// InService returns the number of jobs currently sharing the processor.
func (s *PSServer) InService() int { return len(s.jobs) }

// Departed returns the number of jobs completed by this server.
func (s *PSServer) Departed() int64 { return s.departed }

// BusyTime returns cumulative non-idle time up to the engine's clock.
func (s *PSServer) BusyTime() float64 {
	if len(s.jobs) > 0 {
		return s.busyTime + (s.engine.Now() - s.busySince)
	}
	return s.busyTime
}

// advance brings the virtual clock up to the current engine time.
func (s *PSServer) advance() {
	now := s.engine.Now()
	if n := len(s.jobs); n > 0 {
		s.vtime += (now - s.lastT) * s.speed / float64(n)
	}
	s.lastT = now
}

// Arrive adds a job to the processor-sharing set.
func (s *PSServer) Arrive(j *Job) {
	if !(j.Size > 0) {
		panic(fmt.Sprintf("sim: job %d has non-positive size %v", j.ID, j.Size))
	}
	s.advance()
	if len(s.jobs) == 0 {
		s.busySince = s.engine.Now()
		// Idle rebase: V restarts from zero with no jobs to disturb.
		s.vtime = 0
	}
	j.attained = s.vtime + j.Size
	s.push(j)
	s.reschedule()
}

// reschedule replaces the pending departure event with one for the current
// minimum-target job. A pending event is moved in place (Reschedule) so
// the steady-state arrival/departure cycle touches no allocator.
func (s *PSServer) reschedule() {
	if len(s.jobs) == 0 {
		if s.nextEv.Active() {
			s.nextEv.Cancel()
			s.nextEv = Event{}
		}
		return
	}
	head := s.jobs[0]
	dv := head.attained - s.vtime
	if dv < 0 {
		dv = 0 // rounding guard
	}
	dt := dv * float64(len(s.jobs)) / s.speed
	if s.nextEv.Active() {
		s.nextEv = s.engine.Reschedule(s.nextEv, s.engine.Now()+dt)
	} else {
		s.nextEv = s.engine.ScheduleAfter(dt, s.departFn)
	}
}

// depart completes the minimum-target job.
func (s *PSServer) depart() {
	s.nextEv = Event{}
	s.advance()
	j := s.pop()
	// Pin V exactly to the departing job's target so co-resident jobs see
	// no rounding displacement.
	s.vtime = math.Max(s.vtime, j.attained)
	j.Completion = s.engine.Now()
	s.departed++
	if len(s.jobs) == 0 {
		s.busyTime += s.engine.Now() - s.busySince
	}
	s.reschedule()
	if s.onDepart != nil {
		s.onDepart(j)
	}
}

// push/pop maintain the min-heap on attained.
func (s *PSServer) push(j *Job) {
	s.jobs = append(s.jobs, j)
	j.heapIdx = len(s.jobs) - 1
	s.siftUp(j.heapIdx)
}

func (s *PSServer) pop() *Job {
	top := s.jobs[0]
	last := len(s.jobs) - 1
	s.jobs[0] = s.jobs[last]
	s.jobs[0].heapIdx = 0
	s.jobs = s.jobs[:last]
	if last > 0 {
		s.siftDown(0)
	}
	top.heapIdx = -1
	return top
}

func (s *PSServer) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.jobs[i].attained >= s.jobs[parent].attained {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *PSServer) siftDown(i int) {
	n := len(s.jobs)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		small := left
		if r := left + 1; r < n && s.jobs[r].attained < s.jobs[left].attained {
			small = r
		}
		if s.jobs[small].attained >= s.jobs[i].attained {
			break
		}
		s.swap(i, small)
		i = small
	}
}

func (s *PSServer) swap(i, k int) {
	s.jobs[i], s.jobs[k] = s.jobs[k], s.jobs[i]
	s.jobs[i].heapIdx = i
	s.jobs[k].heapIdx = k
}
