package sim

import (
	"math"
	"strings"
	"testing"

	"heterosched/internal/rng"
)

// Edge cases of the slab engine and the job arena: FIFO stability across
// slot reuse, generation-mismatch detection on dead handles, bounded-queue
// shedding of pooled jobs, and randomized equivalence with the pre-slab
// reference engine preserved in refengine_test.go.

// TestEngineFIFOAcrossSlabReuse schedules equal-timestamp events with
// interleaved cancellations, so later events reuse freed slots. FIFO
// tie-breaking must follow schedule order, not slab-slot order.
func TestEngineFIFOAcrossSlabReuse(t *testing.T) {
	var en Engine
	var fired []int
	record := func(id int) func() {
		return func() { fired = append(fired, id) }
	}

	// a and b occupy slots 0 and 1; cancelling a frees slot 0, which c
	// then reuses while being the *latest* schedule at t=5.
	a := en.Schedule(5, record(1))
	en.Schedule(5, record(2))
	a.Cancel()
	en.Schedule(5, record(3))
	en.RunUntil(math.Inf(1))
	if want := []int{2, 3}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("firing order %v, want %v", fired, want)
	}

	// The same property under sustained churn: every round cancels the
	// oldest pending event (freeing its slot for immediate reuse) and adds
	// two more at the same timestamp; survivors must fire in schedule
	// order.
	fired = nil
	var en2 Engine
	var handles []Event
	id := 0
	var want []int
	for round := 0; round < 100; round++ {
		if len(handles) > 0 {
			handles[0].Cancel()
			handles = handles[1:]
			want = want[1:]
		}
		for k := 0; k < 2; k++ {
			id++
			handles = append(handles, en2.Schedule(42, record(id)))
			want = append(want, id)
		}
	}
	en2.RunUntil(math.Inf(1))
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, want %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order diverged at %d: got %d, want %d", i, fired[i], want[i])
		}
	}
}

// TestRescheduleSameTimeGoesBehindTies: Reschedule takes a fresh
// sequence number, so an event moved to its own time fires after every
// event already tied with it. Reschedule sifts one way only, and a move
// to the same time is the case that must sift down, below the root's
// tied children.
func TestRescheduleSameTimeGoesBehindTies(t *testing.T) {
	var en Engine
	var fired []int
	record := func(id int) func() {
		return func() { fired = append(fired, id) }
	}
	a := en.Schedule(5, record(1))
	for id := 2; id <= 6; id++ {
		en.Schedule(5, record(id))
	}
	en.Reschedule(a, 5)
	en.RunUntil(math.Inf(1))
	want := []int{2, 3, 4, 5, 6, 1}
	if len(fired) != len(want) {
		t.Fatalf("firing order %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing order %v, want %v", fired, want)
		}
	}
}

// mustPanicContaining runs fn and asserts it panics with a message
// containing substr.
func mustPanicContaining(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want panic containing %q", substr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string containing %q", r, r, substr)
		}
		if !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	fn()
}

// TestRescheduleDeadHandlePanics: moving a fired or cancelled event must
// fail loudly — silently acting on a recycled slot would corrupt whatever
// event reused it.
func TestRescheduleDeadHandlePanics(t *testing.T) {
	t.Run("after-fire", func(t *testing.T) {
		var en Engine
		ev := en.Schedule(1, nop)
		en.Step()
		mustPanicContaining(t, "generation mismatch", func() { en.Reschedule(ev, 2) })
	})
	t.Run("after-cancel", func(t *testing.T) {
		var en Engine
		ev := en.Schedule(1, nop)
		ev.Cancel()
		mustPanicContaining(t, "generation mismatch", func() { en.Reschedule(ev, 2) })
	})
	t.Run("after-slot-reuse", func(t *testing.T) {
		// The dead slot is recycled by a new event before the stale
		// handle is used: the generation check must still catch it.
		var en Engine
		ev := en.Schedule(1, nop)
		ev.Cancel()
		en.Schedule(3, nop) // reuses the freed slot
		mustPanicContaining(t, "generation mismatch", func() { en.Reschedule(ev, 2) })
	})
	t.Run("zero-handle", func(t *testing.T) {
		var en Engine
		mustPanicContaining(t, "zero event handle", func() { en.Reschedule(Event{}, 2) })
	})
}

// TestCancelStaleHandleAfterReuse: Cancel on a stale handle whose slot now
// hosts a different pending event must NOT cancel the new event.
func TestCancelStaleHandleAfterReuse(t *testing.T) {
	var en Engine
	fired := 0
	old := en.Schedule(1, nop)
	old.Cancel()
	replacement := en.Schedule(2, func() { fired++ }) // reuses the slot
	old.Cancel()                                      // stale: must be a no-op
	if !replacement.Active() {
		t.Fatal("stale Cancel deactivated the slot's new occupant")
	}
	en.RunUntil(math.Inf(1))
	if fired != 1 {
		t.Fatalf("replacement fired %d times, want 1", fired)
	}
}

// TestBoundedShedWithArenaJobs exercises the overflow path with
// arena-managed jobs: shed victims are recycled immediately from the
// onShed callback (as the overload layer does), their slots are reused by
// later arrivals, and stale JobRefs to shed jobs must not resolve.
func TestBoundedShedWithArenaJobs(t *testing.T) {
	var en Engine
	arena := NewJobArena()
	var shedIDs []int64
	b := NewBounded(NewPSServer(&en, 1.0, nil), 2, DropOldest, func(j *Job) {
		shedIDs = append(shedIDs, j.ID)
		arena.Put(j)
	})

	mk := func(id int64) *Job {
		j := arena.Get()
		j.ID = id
		j.Size = 100
		j.Arrival = en.Now()
		return j
	}
	j1 := mk(1)
	ref1 := arena.Ref(j1)
	b.Arrive(j1)
	b.Arrive(mk(2))
	b.Arrive(mk(3)) // full: sheds job 1, which goes straight back to the arena

	if len(shedIDs) != 1 || shedIDs[0] != 1 {
		t.Fatalf("shed %v, want [1]", shedIDs)
	}
	if _, ok := ref1.Load(); ok {
		t.Fatal("JobRef to a shed-and-recycled job still resolves")
	}
	j4 := mk(4) // reuses job 1's slot
	if j4 != j1 {
		t.Fatalf("expected the arena to recycle the shed job's slot")
	}
	if _, ok := ref1.Load(); ok {
		t.Fatal("stale JobRef resolves to the slot's new occupant")
	}
	b.Arrive(j4) // sheds job 2
	if b.InService() != 2 {
		t.Fatalf("bounded server holds %d jobs, want 2", b.InService())
	}
	if arena.Live() != 2 {
		t.Fatalf("arena reports %d live jobs, want 2", arena.Live())
	}

	// DropNewest: the arriving pooled job is shed and recycled before
	// Arrive returns.
	var en2 Engine
	shedIDs = nil
	b2 := NewBounded(NewPSServer(&en2, 1.0, nil), 1, DropNewest, func(j *Job) {
		shedIDs = append(shedIDs, j.ID)
		arena.Put(j)
	})
	b2.Arrive(mk(10))
	b2.Arrive(mk(11))
	if len(shedIDs) != 1 || shedIDs[0] != 11 {
		t.Fatalf("shed %v, want [11]", shedIDs)
	}
}

// TestArenaPutAtServerPanics: recycling a job still resident in a PS
// server is a bookkeeping bug the arena must catch.
func TestArenaPutAtServerPanics(t *testing.T) {
	var en Engine
	arena := NewJobArena()
	s := NewPSServer(&en, 1.0, nil)
	j := arena.Get()
	j.ID = 1
	j.Size = 5
	s.Arrive(j)
	mustPanicContaining(t, "still at a server", func() { arena.Put(j) })
}

// TestEngineMatchesReferenceEngine drives the slab engine and the pre-slab
// reference engine (refengine_test.go) with an identical randomized
// schedule/cancel/reschedule/step workload and requires bit-identical
// clocks and firing sequences — the old-vs-new equivalence proof at the
// engine level (the sched golden tests prove it end-to-end). Two
// constant-delay timer streams run on FIFO lanes in the new engine and on
// the reference's heap, like the ack timers and lease renewals of a run.
func TestEngineMatchesReferenceEngine(t *testing.T) {
	st := rng.New(41)
	trials := stressN(30)
	delays := [2]float64{20, 35}
	for trial := 0; trial < trials; trial++ {
		var neu Engine
		var ref refEngine
		lanes := [2]*Lane{neu.NewLane(), neu.NewLane()}
		var logNew, logRef []int
		type pair struct {
			n    Event
			r    *refEvent
			lane bool
		}
		var handles []pair
		label := 0
		schedule := func(tt float64, lane *Lane) {
			label++
			l := label
			p := pair{r: ref.Schedule(tt, func() { logRef = append(logRef, l) }), lane: lane != nil}
			if lane != nil {
				p.n = lane.Schedule(tt, func() { logNew = append(logNew, l) })
			} else {
				p.n = neu.Schedule(tt, func() { logNew = append(logNew, l) })
			}
			handles = append(handles, p)
		}
		ops := 500 + st.Intn(1500)
		for op := 0; op < ops; op++ {
			switch r := st.Float64(); {
			case r < 0.30:
				// Coarse times force timestamp ties, stressing FIFO.
				schedule(neu.Now()+float64(st.Intn(50)), nil)
			case r < 0.40:
				// A timer armed at now plus its stream's delay.
				k := st.Intn(2)
				schedule(neu.Now()+delays[k], lanes[k])
			case r < 0.55 && len(handles) > 0:
				// Cancel in lockstep: eager removal on the new engine's
				// heap, a stale ring entry on its lanes, lazy marking in
				// the reference.
				k := st.Intn(len(handles))
				handles[k].n.Cancel()
				handles[k].r.Cancel()
			case r < 0.70 && len(handles) > 0:
				k := st.Intn(len(handles))
				if handles[k].n.Active() && !handles[k].lane {
					tt := neu.Now() + float64(st.Intn(50))
					handles[k].n = neu.Reschedule(handles[k].n, tt)
					handles[k].r = ref.Reschedule(handles[k].r, tt)
				}
			default:
				neu.Step()
				ref.Step()
				if neu.Now() != ref.Now() {
					t.Fatalf("trial %d: clocks diverged: %v vs %v", trial, neu.Now(), ref.Now())
				}
				if neu.Fired() != ref.Fired() {
					t.Fatalf("trial %d: fired %d vs reference %d", trial, neu.Fired(), ref.Fired())
				}
			}
		}
		neu.RunUntil(math.Inf(1))
		ref.RunUntil(math.Inf(1))
		if neu.Fired() != ref.Fired() {
			t.Fatalf("trial %d: fired %d vs reference %d", trial, neu.Fired(), ref.Fired())
		}
		if len(logNew) != len(logRef) {
			t.Fatalf("trial %d: log lengths %d vs %d", trial, len(logNew), len(logRef))
		}
		for i := range logNew {
			if logNew[i] != logRef[i] {
				t.Fatalf("trial %d: firing order diverged at %d: %d vs %d",
					trial, i, logNew[i], logRef[i])
			}
		}
	}
}

// TestLaneEdges pins the FIFO lane's contract at its edges: the push
// order is checked, a lane event cannot be moved, cancelled lane events
// leave Pending and AdvanceTo at once although their ring entries go
// lazily, and a long delay under constant cancellation keeps the ring
// O(live).
func TestLaneEdges(t *testing.T) {
	t.Run("push-before-last-panics", func(t *testing.T) {
		var en Engine
		l := en.NewLane()
		l.Schedule(5, nop).Cancel() // a cancelled push still sets the floor
		l.Schedule(5, nop)
		mustPanicContaining(t, "lane push out of order", func() { l.Schedule(4, nop) })
		mustPanicContaining(t, "lane push out of order", func() { l.ScheduleMsg(4.5, nopMsg, Msg{}) })
		en.Schedule(3, nop) // the heap takes any time from now on
	})
	t.Run("reschedule-lane-event-panics", func(t *testing.T) {
		var en Engine
		ev := en.NewLane().Schedule(5, nop)
		mustPanicContaining(t, "Reschedule of a lane event", func() { en.Reschedule(ev, 6) })
		if !ev.Active() {
			t.Fatal("the refused Reschedule deactivated the lane event")
		}
	})
	t.Run("pending-skips-cancelled", func(t *testing.T) {
		var en Engine
		l := en.NewLane()
		a := l.Schedule(1, nop)
		b := l.ScheduleMsg(2, nopMsg, Msg{})
		en.Schedule(3, nop)
		if got := en.Pending(); got != 3 {
			t.Fatalf("Pending() = %d, want 3", got)
		}
		a.Cancel()
		a.Cancel() // stale: a no-op that must not count twice
		if got := en.Pending(); got != 2 {
			t.Fatalf("after one cancel Pending() = %d, want 2", got)
		}
		b.Cancel()
		if got := en.Pending(); got != 1 {
			t.Fatalf("after two cancels Pending() = %d, want 1", got)
		}
		if !en.Step() || en.Now() != 3 || en.Pending() != 0 || en.Step() {
			t.Fatalf("the heap event did not fire alone: now %v, pending %d", en.Now(), en.Pending())
		}
	})
	t.Run("advance-refuses-lane-head", func(t *testing.T) {
		var en Engine
		l := en.NewLane()
		l.Schedule(4, nop).Cancel() // a stale head must not block the clock
		l.Schedule(7, nop)
		en.Schedule(9, nop)
		en.AdvanceTo(6)
		mustPanicContaining(t, "would skip event at 7", func() { en.AdvanceTo(8) })
		en.AdvanceTo(7)
		if !en.Step() || en.Now() != 7 {
			t.Fatalf("lane head did not fire at 7: now %v", en.Now())
		}
	})
	t.Run("ring-stays-O(live)", func(t *testing.T) {
		// An ack timer per dispatch with a delay far beyond the run: the
		// timers never fire, each is cancelled by its ack, and the ack
		// order is scrambled so stale entries pile up mid-ring, not only
		// at the head.
		var en Engine
		l := en.NewLane()
		st := rng.New(7)
		const window = 8
		var live []Event
		for i := 0; i < 100000; i++ {
			live = append(live, l.Schedule(en.Now()+1e6, nop))
			if len(live) > window {
				k := st.Intn(len(live))
				live[k].Cancel()
				live = append(live[:k], live[k+1:]...)
			}
			en.Schedule(en.Now()+1, nop)
			en.Step()
		}
		if got := en.Pending(); got != window {
			t.Fatalf("Pending() = %d, want %d", got, window)
		}
		if len(l.ring) > 4*(window+1) || l.n > 2*window+1 {
			t.Fatalf("ring holds %d entries in %d slots for %d live events", l.n, len(l.ring), window)
		}
	})
}
