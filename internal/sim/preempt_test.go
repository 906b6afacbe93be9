package sim

import (
	"math"
	"testing"
)

// TestPSServerEvictResume: two jobs share a speed-2 server for 1 s, are
// evicted, and resume later; remaining demands and final completions must
// match the exact PS trajectory.
func TestPSServerEvictResume(t *testing.T) {
	var en Engine
	var done []*Job
	s := NewPSServer(&en, 2.0, func(j *Job) { done = append(done, j) })

	a := &Job{ID: 1, Size: 4}
	b := &Job{ID: 2, Size: 10}
	s.Arrive(a)
	s.Arrive(b)

	var evicted []*Job
	en.Schedule(1.0, func() { evicted = s.Evict() })
	en.RunUntil(1.0)

	if len(evicted) != 2 {
		t.Fatalf("evicted %d jobs, want 2", len(evicted))
	}
	// Each job received 2.0/2 = 1 unit of service in the shared second.
	for _, j := range evicted {
		want := j.Size - 1.0
		if math.Abs(j.Remaining-want) > 1e-12 {
			t.Errorf("job %d remaining %v, want %v", j.ID, j.Remaining, want)
		}
	}
	if s.InService() != 0 {
		t.Fatalf("server not empty after Evict: %d", s.InService())
	}
	if got := s.BusyTime(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("busy time %v, want 1", got)
	}

	// Down for 5 s, then resume both.
	en.AdvanceTo(6.0)
	for _, j := range evicted {
		s.Resume(j)
	}
	en.RunUntil(math.Inf(1))

	if len(done) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(done))
	}
	// Remaining demands 3 and 9 sharing speed 2: the small one finishes
	// after both receive 3 units (t = 6 + 3·2/2 = 9), the large one 6
	// units later alone (t = 9 + 6/2 = 12).
	if done[0].ID != 1 || math.Abs(done[0].Completion-9.0) > 1e-9 {
		t.Errorf("first completion job %d at %v, want job 1 at 9", done[0].ID, done[0].Completion)
	}
	if done[1].ID != 2 || math.Abs(done[1].Completion-12.0) > 1e-9 {
		t.Errorf("second completion job %d at %v, want job 2 at 12", done[1].ID, done[1].Completion)
	}
}

// TestRRServerEvictMidSlice: eviction in the middle of a quantum charges
// the head job for the executed fraction of the slice.
func TestRRServerEvictMidSlice(t *testing.T) {
	var en Engine
	s := NewRRServer(&en, 1.0, 2.0, nil)
	a := &Job{ID: 1, Size: 5}
	b := &Job{ID: 2, Size: 5}
	s.Arrive(a)
	s.Arrive(b)

	var evicted []*Job
	en.Schedule(0.5, func() { evicted = s.Evict() }) // mid first slice
	en.RunUntil(math.Inf(1))

	if len(evicted) != 2 {
		t.Fatalf("evicted %d jobs, want 2", len(evicted))
	}
	if math.Abs(evicted[0].Remaining-4.5) > 1e-12 {
		t.Errorf("head remaining %v, want 4.5", evicted[0].Remaining)
	}
	if math.Abs(evicted[1].Remaining-5.0) > 1e-12 {
		t.Errorf("queued remaining %v, want 5", evicted[1].Remaining)
	}
}

// TestFCFSServerEvictResume: under FCFS (round-robin with an infinite
// quantum) the in-service head keeps its progress, the queued job keeps
// its full demand, and both complete after resumption.
func TestFCFSServerEvictResume(t *testing.T) {
	var en Engine
	var done []*Job
	s := NewRRServer(&en, 2.0, math.Inf(1), func(j *Job) { done = append(done, j) })
	a := &Job{ID: 1, Size: 8}
	b := &Job{ID: 2, Size: 2}
	s.Arrive(a)
	s.Arrive(b)

	var evicted []*Job
	en.Schedule(1.0, func() { evicted = s.Evict() })
	en.RunUntil(1.0)

	if len(evicted) != 2 {
		t.Fatalf("evicted %d jobs, want 2", len(evicted))
	}
	if math.Abs(evicted[0].Remaining-6.0) > 1e-12 { // 8 − 1s·speed2
		t.Errorf("head remaining %v, want 6", evicted[0].Remaining)
	}
	if math.Abs(evicted[1].Remaining-2.0) > 1e-12 {
		t.Errorf("queued remaining %v, want 2", evicted[1].Remaining)
	}

	en.AdvanceTo(4.0)
	for _, j := range evicted {
		s.Resume(j)
	}
	en.RunUntil(math.Inf(1))
	if len(done) != 2 {
		t.Fatalf("completed %d jobs, want 2", len(done))
	}
	if math.Abs(done[0].Completion-7.0) > 1e-9 { // 4 + 6/2
		t.Errorf("head completed at %v, want 7", done[0].Completion)
	}
	if math.Abs(done[1].Completion-8.0) > 1e-9 { // 7 + 2/2
		t.Errorf("second completed at %v, want 8", done[1].Completion)
	}
}

// TestEvictEmptyAndZeroRemaining: evicting an idle server returns nil,
// and resuming a zero-demand job departs it immediately.
func TestEvictEmptyAndZeroRemaining(t *testing.T) {
	for name, mk := range map[string]func(en *Engine, cb func(*Job)) Server{
		"PS":   func(en *Engine, cb func(*Job)) Server { return NewPSServer(en, 1, cb) },
		"RR":   func(en *Engine, cb func(*Job)) Server { return NewRRServer(en, 1, 0.5, cb) },
		"FCFS": func(en *Engine, cb func(*Job)) Server { return NewRRServer(en, 1, math.Inf(1), cb) },
	} {
		var en Engine
		var done int
		s := mk(&en, func(*Job) { done++ })
		if got := s.Evict(); got != nil {
			t.Errorf("%s: Evict on idle server returned %v", name, got)
		}
		j := &Job{ID: 1, Size: 3, Remaining: 0}
		s.Resume(j)
		en.RunUntil(math.Inf(1))
		if done != 1 {
			t.Errorf("%s: zero-remaining job did not depart (done=%d)", name, done)
		}
		if s.InService() != 0 {
			t.Errorf("%s: %d jobs stuck", name, s.InService())
		}
	}
}
