package sim

import (
	"math"
	"testing"
)

// TestPSServerRemove pulls one of two sharing jobs out mid-service and
// checks the removed job's remaining demand and the survivor's completion
// against the exact PS trajectory.
func TestPSServerRemove(t *testing.T) {
	var en Engine
	var done []*Job
	s := NewPSServer(&en, 1, func(j *Job) { done = append(done, j) })
	a := &Job{ID: 1, Size: 10}
	b := &Job{ID: 2, Size: 100}
	s.Arrive(a)
	s.Arrive(b)

	// At t=4 each job has received 2 s of service (rate 1/2 each).
	en.Schedule(4, func() {
		if !s.Remove(b) {
			t.Error("Remove(b) = false, want true")
		}
		if math.Abs(b.Remaining-98) > 1e-9 {
			t.Errorf("b.Remaining = %v, want 98", b.Remaining)
		}
	})
	en.RunUntil(math.Inf(1))

	// a had 8 s left at t=4, alone afterwards: completes at t=12.
	if len(done) != 1 || done[0] != a {
		t.Fatalf("completed jobs = %v, want just a", done)
	}
	if math.Abs(a.Completion-12) > 1e-9 {
		t.Errorf("a.Completion = %v, want 12", a.Completion)
	}
	if s.InService() != 0 {
		t.Errorf("InService = %d, want 0", s.InService())
	}
	// Removing an absent job must report false without disturbing state.
	if s.Remove(b) {
		t.Error("second Remove(b) = true, want false")
	}
}

// TestRRServerRemoveHead removes the running job mid-slice; the next job
// must start immediately and the removed job be charged for the partial
// slice.
func TestRRServerRemoveHead(t *testing.T) {
	var en Engine
	var done []*Job
	s := NewRRServer(&en, 1, 1, func(j *Job) { done = append(done, j) })
	a := &Job{ID: 1, Size: 5}
	b := &Job{ID: 2, Size: 3}
	s.Arrive(a)
	s.Arrive(b)

	en.Schedule(0.5, func() {
		if !s.Remove(a) {
			t.Error("Remove(a) = false, want true")
		}
		if math.Abs(a.Remaining-4.5) > 1e-9 {
			t.Errorf("a.Remaining = %v, want 4.5", a.Remaining)
		}
	})
	en.RunUntil(math.Inf(1))

	if len(done) != 1 || done[0] != b {
		t.Fatalf("completed jobs = %v, want just b", done)
	}
	if math.Abs(b.Completion-3.5) > 1e-9 {
		t.Errorf("b.Completion = %v, want 3.5", b.Completion)
	}
}

// TestFCFSServerRemove covers both the queued-job and running-job cases
// under FCFS (round-robin with an infinite quantum).
func TestFCFSServerRemove(t *testing.T) {
	var en Engine
	var done []*Job
	s := NewRRServer(&en, 2, math.Inf(1), func(j *Job) { done = append(done, j) })
	a := &Job{ID: 1, Size: 4}
	b := &Job{ID: 2, Size: 6}
	s.Arrive(a)
	s.Arrive(b)

	en.Schedule(1, func() {
		// b is queued, untouched: full demand remains.
		if !s.Remove(b) || b.Remaining != 6 {
			t.Errorf("Remove(b) remaining = %v, want 6", b.Remaining)
		}
	})
	en.RunUntil(math.Inf(1))
	if len(done) != 1 || done[0] != a || math.Abs(a.Completion-2) > 1e-9 {
		t.Fatalf("a.Completion = %v (done %v), want 2", a.Completion, done)
	}

	// Fresh pass: remove the running head at t=1 (2 of 4 served).
	var en2 Engine
	done = nil
	s2 := NewRRServer(&en2, 2, math.Inf(1), func(j *Job) { done = append(done, j) })
	c := &Job{ID: 3, Size: 4}
	d := &Job{ID: 4, Size: 6}
	s2.Arrive(c)
	s2.Arrive(d)
	en2.Schedule(1, func() {
		if !s2.Remove(c) || math.Abs(c.Remaining-2) > 1e-9 {
			t.Errorf("Remove(c) remaining = %v, want 2", c.Remaining)
		}
	})
	en2.RunUntil(math.Inf(1))
	if len(done) != 1 || done[0] != d || math.Abs(d.Completion-4) > 1e-9 {
		t.Fatalf("d.Completion = %v (done %v), want 4", d.Completion, done)
	}
}

// TestBoundedDropNewest: a full server rejects the arriving job.
func TestBoundedDropNewest(t *testing.T) {
	var en Engine
	var done, shed []*Job
	var b *Bounded
	inner := NewPSServer(&en, 1, func(j *Job) {
		b.NoteDeparture(j)
		done = append(done, j)
	})
	b = NewBounded(inner, 2, DropNewest, func(j *Job) { shed = append(shed, j) })

	j1 := &Job{ID: 1, Size: 1}
	j2 := &Job{ID: 2, Size: 1}
	j3 := &Job{ID: 3, Size: 1}
	b.Arrive(j1)
	b.Arrive(j2)
	b.Arrive(j3)
	if len(shed) != 1 || shed[0] != j3 {
		t.Fatalf("shed = %v, want just j3", shed)
	}
	if b.InService() != 2 || !b.Full() {
		t.Errorf("InService = %d, Full = %v; want 2, true", b.InService(), b.Full())
	}
	en.RunUntil(math.Inf(1))
	if len(done) != 2 {
		t.Errorf("completions = %d, want 2", len(done))
	}
	if b.InService() != 0 {
		t.Errorf("InService after drain = %d, want 0", b.InService())
	}
	// Capacity freed by departures: a later arrival is admitted.
	j4 := &Job{ID: 4, Size: 1}
	b.Arrive(j4)
	if b.InService() != 1 {
		t.Errorf("InService = %d, want 1", b.InService())
	}
}

// TestBoundedDropOldest: a full server sheds its longest-present job,
// which must never complete.
func TestBoundedDropOldest(t *testing.T) {
	var en Engine
	var done, shed []*Job
	var b *Bounded
	inner := NewPSServer(&en, 1, func(j *Job) {
		b.NoteDeparture(j)
		done = append(done, j)
	})
	b = NewBounded(inner, 2, DropOldest, func(j *Job) { shed = append(shed, j) })

	j1 := &Job{ID: 1, Size: 10}
	j2 := &Job{ID: 2, Size: 10}
	j3 := &Job{ID: 3, Size: 10}
	b.Arrive(j1)
	b.Arrive(j2)
	b.Arrive(j3)
	if len(shed) != 1 || shed[0] != j1 {
		t.Fatalf("shed = %v, want just j1", shed)
	}
	en.RunUntil(math.Inf(1))
	if len(done) != 2 || done[0] == j1 || done[1] == j1 {
		t.Fatalf("completions include the shed job: %v", done)
	}
}
