package sim

import (
	"fmt"
	"testing"

	"heterosched/internal/rng"
)

// This file holds the hot-path micro-benchmarks tracked by the
// benchmark-regression harness (cmd/benchreg tags benchmarks whose names
// start with the hot-path prefixes; see internal/benchreg) and the
// zero-allocation guarantees the engine documentation promises.

// nop is a non-capturing callback for allocation-free scheduling in tests.
func nop() {}

// nopMsg is nop's typed-event counterpart.
func nopMsg(Msg) {}

// steadyStateArrivalRate yields ρ ≈ 0.7 on a speed-1 server with unit
// mean job sizes (mean inter-arrival 1.43 s).
const steadyStateGap = 1.43

// BenchmarkEngineSteadyState measures the full new-engine hot path —
// slab-allocated events, Reschedule-in-place for the PS tentative
// departure, arena-recycled jobs, a single self-rescheduling arrival
// closure — as events per second through a busy PS server at ρ ≈ 0.7.
// Compare with BenchmarkEngineSteadyStateRef, the pre-rewrite baseline.
func BenchmarkEngineSteadyState(b *testing.B) {
	var en Engine
	arena := NewJobArena()
	arr := rng.New(1).Derive("a")
	sz := rng.New(1).Derive("s")
	s := NewPSServer(&en, 1.0, func(j *Job) { arena.Put(j) })
	var id int64
	var arrive func()
	arrive = func() {
		id++
		j := arena.Get()
		j.ID = id
		j.Size = sz.Exp(1.0)
		j.Arrival = en.Now()
		s.Arrive(j)
		en.ScheduleAfter(arr.Exp(steadyStateGap), arrive)
	}
	en.ScheduleAfter(arr.Exp(steadyStateGap), arrive)
	for i := 0; i < 10000; i++ { // reach steady state before measuring
		en.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineSteadyStateRef is the identical workload on the pre-slab
// engine and server idioms (see refengine_test.go): one heap-allocated
// Event per schedule, cancel+schedule instead of Reschedule, a fresh Job
// and arrival closure per job, lazy cancellation churning the heap.
func BenchmarkEngineSteadyStateRef(b *testing.B) {
	var en refEngine
	arr := rng.New(1).Derive("a")
	sz := rng.New(1).Derive("s")
	s := newRefPSServer(&en, 1.0, nil)
	var id int64
	var next func()
	next = func() {
		en.ScheduleAfter(arr.Exp(steadyStateGap), func() {
			id++
			s.Arrive(&Job{ID: id, Size: sz.Exp(1.0), Arrival: en.Now()})
			next()
		})
	}
	next()
	for i := 0; i < 10000; i++ {
		en.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineHeapOps measures raw queue operations on a standing pool
// of pending events: one reschedule (or replacement schedule) plus one
// step per iteration against a 1024-event backlog.
func BenchmarkEngineHeapOps(b *testing.B) {
	var en Engine
	st := rng.New(3)
	const pool = 1024
	handles := make([]Event, pool)
	for i := range handles {
		handles[i] = en.Schedule(st.Float64()*1000, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pool
		if handles[k].Active() {
			handles[k] = en.Reschedule(handles[k], en.Now()+st.Float64()*1000)
		} else {
			handles[k] = en.Schedule(en.Now()+st.Float64()*1000, nop)
		}
		en.Step()
	}
}

// BenchmarkEngineHold is the classic hold model of a future-event list:
// each iteration fires the earliest of n pending events and schedules one
// at now + Exp(n), so the list holds n events throughout, and ns/op is
// the heap's cost per event at that size. The sizes cover paper's pending
// set (at most 15), faulty's (mean 425) and a 3200-event list like a
// 3200-computer fleet's.
func BenchmarkEngineHold(b *testing.B) {
	for _, n := range []int{16, 425, 3200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var en Engine
			st := rng.New(13)
			mean := float64(n)
			for i := 0; i < n; i++ {
				en.Schedule(st.Exp(mean), nop)
			}
			hold := func() {
				en.Step()
				en.Schedule(en.Now()+st.Exp(mean), nop)
			}
			for i := 0; i < 10*n; i++ { // reach the hold model's steady state
				hold()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hold()
			}
		})
	}
}

// BenchmarkEngineReschedule isolates Reschedule on a queue of 256 pending
// events — the exact operation the PS server performs per arrival.
func BenchmarkEngineReschedule(b *testing.B) {
	var en Engine
	st := rng.New(5)
	const pool = 256
	handles := make([]Event, pool)
	for i := range handles {
		handles[i] = en.Schedule(1+st.Float64()*1000, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pool
		handles[k] = en.Reschedule(handles[k], 1+st.Float64()*1000)
	}
}

// BenchmarkPSServerUpdate measures the PS update path — arrival into a
// busy server (advance, heap insert, departure reschedule) plus the
// matching removal — with 64 resident jobs.
func BenchmarkPSServerUpdate(b *testing.B) {
	var en Engine
	s := NewPSServer(&en, 1.0, nil)
	resident := make([]Job, 64)
	for i := range resident {
		resident[i] = Job{ID: int64(i + 1), Size: 1e12}
		s.Arrive(&resident[i])
	}
	extra := Job{ID: 999, Size: 1e12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Arrive(&extra)
		s.Remove(&extra)
	}
}

// TestScheduleCancelZeroAlloc locks in the engine's core performance
// contract: once the slab has grown to the working-set size, Schedule,
// ScheduleMsg, Cancel, Reschedule and Step perform zero heap allocations,
// on the heap and on a FIFO lane.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	var en Engine
	warm := make([]Event, 64)
	for i := range warm {
		warm[i] = en.Schedule(float64(i), nop)
	}
	for _, e := range warm {
		e.Cancel()
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		ev := en.Schedule(en.Now()+1, nop)
		ev.Cancel()
	}); allocs != 0 {
		t.Errorf("Schedule+Cancel allocates %v/op, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(1000, func() {
		en.Schedule(en.Now()+1, nop)
		en.Step()
	}); allocs != 0 {
		t.Errorf("Schedule+Step allocates %v/op, want 0", allocs)
	}

	ev := en.Schedule(en.Now()+1, nop)
	if allocs := testing.AllocsPerRun(1000, func() {
		ev = en.Reschedule(ev, en.Now()+2)
	}); allocs != 0 {
		t.Errorf("Reschedule allocates %v/op, want 0", allocs)
	}
	ev.Cancel()

	// The typed form, after its side array has grown once.
	arena := NewJobArena()
	m := Msg{Ref: arena.Ref(arena.Get()), ID: 7, A: 1, B: 2, X: 0.5}
	h := nopMsg
	en.ScheduleMsg(en.Now()+1, h, m).Cancel()
	if allocs := testing.AllocsPerRun(1000, func() {
		ev := en.ScheduleMsg(en.Now()+1, h, m)
		ev.Cancel()
	}); allocs != 0 {
		t.Errorf("ScheduleMsg+Cancel allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		en.ScheduleMsg(en.Now()+1, h, m)
		en.Step()
	}); allocs != 0 {
		t.Errorf("ScheduleMsg+Step allocates %v/op, want 0", allocs)
	}

	// A FIFO lane, after its ring has grown once.
	l := en.NewLane()
	l.Schedule(en.Now()+1, nop).Cancel()
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Schedule(en.Now()+1, nop)
		en.Step()
	}); allocs != 0 {
		t.Errorf("Lane.Schedule+Step allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ev := l.ScheduleMsg(en.Now()+1, h, m)
		ev.Cancel()
	}); allocs != 0 {
		t.Errorf("Lane.ScheduleMsg+Cancel allocates %v/op, want 0", allocs)
	}
}

// TestPSServerSteadyStateZeroAlloc drives the full arrival/departure cycle
// (the steady-state benchmark's loop body) and requires it to be
// allocation-free: slab events, arena jobs, bound method-value callbacks.
func TestPSServerSteadyStateZeroAlloc(t *testing.T) {
	var en Engine
	arena := NewJobArena()
	arr := rng.New(1).Derive("a")
	sz := rng.New(1).Derive("s")
	s := NewPSServer(&en, 1.0, func(j *Job) { arena.Put(j) })
	var id int64
	var arrive func()
	arrive = func() {
		id++
		j := arena.Get()
		j.ID = id
		j.Size = sz.Exp(1.0)
		j.Arrival = en.Now()
		s.Arrive(j)
		en.ScheduleAfter(arr.Exp(steadyStateGap), arrive)
	}
	en.ScheduleAfter(arr.Exp(steadyStateGap), arrive)
	for i := 0; i < 20000; i++ { // warm slab, arena and server heap
		en.Step()
	}
	if allocs := testing.AllocsPerRun(5000, func() { en.Step() }); allocs != 0 {
		t.Errorf("steady-state Step allocates %v/op, want 0", allocs)
	}
}

// TestJobArenaZeroAlloc verifies Get/Put recycle without touching the
// allocator once the chunk pool covers the live population.
func TestJobArenaZeroAlloc(t *testing.T) {
	arena := NewJobArena()
	warm := make([]*Job, 300) // spans two chunks
	for i := range warm {
		warm[i] = arena.Get()
	}
	for _, j := range warm {
		arena.Put(j)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		j := arena.Get()
		arena.Put(j)
	}); allocs != 0 {
		t.Errorf("arena Get+Put allocates %v/op, want 0", allocs)
	}
	if live := arena.Live(); live != 0 {
		t.Errorf("arena reports %d live jobs after balanced Get/Put", live)
	}
}
