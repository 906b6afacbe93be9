package sim

// This file implements Server's Remove for the two server disciplines,
// supporting the overload-protection layer (internal/cluster): deadline
// expiry renegs a queued job or kills one mid-service, and a dispatcher
// timeout pulls a job back for re-dispatch. With no overload knobs set,
// none of this code runs and server behavior is unchanged.

// Remove extracts j from the processor-sharing set, recording its
// remaining demand, and reports whether it was present.
func (s *PSServer) Remove(j *Job) bool {
	i := j.heapIdx
	if i < 0 || i >= len(s.jobs) || s.jobs[i] != j {
		return false
	}
	s.advance()
	rem := j.attained - s.vtime
	if rem < 0 {
		rem = 0 // the job was at its departure instant
	}
	j.Remaining = rem
	last := len(s.jobs) - 1
	s.jobs[i] = s.jobs[last]
	s.jobs[i].heapIdx = i
	s.jobs = s.jobs[:last]
	if i < last {
		s.siftDown(i)
		s.siftUp(i)
	}
	j.heapIdx = -1
	if len(s.jobs) == 0 {
		s.busyTime += s.engine.Now() - s.busySince
	}
	s.reschedule()
	return true
}

// Remove extracts j from the run queue. A running head job is charged
// for the portion of its current slice already executed.
func (s *RRServer) Remove(j *Job) bool {
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
	if idx == 0 && s.sliceEv.Active() {
		s.sliceEv.Cancel()
		s.sliceEv = Event{}
		j.attained -= (s.engine.Now() - s.sliceStart) * s.speed
		if j.attained < 0 {
			j.attained = 0
		}
	}
	j.Remaining = j.attained
	s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
	if len(s.queue) == 0 {
		s.busyTime += s.engine.Now() - s.busySince
	} else if idx == 0 && !s.sliceEv.Active() {
		s.startSlice()
	}
	return true
}
