// Package sim provides the discrete-event simulation substrate: an event
// engine with a cancellable future-event list, and server models
// (processor sharing, quantum round-robin, FCFS) for the computers in the
// paper's network.
//
// The paper's simulator (§4.1) models computers that apply "preemptive
// round-robin processor scheduling"; the analysis assumes the processor
// sharing (PS) limit. PSServer implements exact PS in O(log n) per event
// using virtual-time bookkeeping; RRServer implements quantum-based
// round-robin for quantum-sensitivity ablations; FCFSServer is provided as
// a contrast discipline.
//
// The engine stores its pending events in a slab: a flat []eventSlot
// indexed by a 4-ary min-heap of slot indices, with freed slots kept on a
// free list for reuse. Steady-state Schedule/Cancel/Reschedule therefore
// perform no heap allocations (see TestScheduleCancelZeroAlloc), and event
// handles are small values carrying a generation number that detects
// use-after-free: acting on a handle whose slot has been recycled is
// either a safe no-op (Cancel) or a generation-mismatch panic
// (Reschedule).
//
// Beside Schedule(t, fn) the engine has one typed form, ScheduleMsg(t, h,
// m): a handler bound once by its caller plus a small fixed payload (a
// Msg), stored in a side array parallel to the slab. A layer that fires
// one event per job or per message schedules it this way and so
// allocates no closure per event. Typed events share the heap, the
// sequence numbers and Step with closure events; the side array is grown
// on the first typed schedule only, so an engine that never schedules one
// pays nothing for it.
package sim

import (
	"fmt"
	"math"
)

// eventSlot is one slab entry: the scheduled callback plus the heap
// bookkeeping. Slots are recycled through the engine's free list; gen
// increments at every release so stale Event handles are detectable. A
// nil fn marks a typed event, whose handler and payload live in
// Engine.msgs at the same index.
type eventSlot struct {
	time float64
	seq  uint64
	fn   func()
	pos  int32 // index in Engine.heap, -1 when free
	gen  uint32
}

// Event is a generation-checked handle to a scheduled callback. The zero
// value is an inert handle: Cancel is a no-op and Active reports false.
// Handles are small values — copy them freely. A handle goes stale when
// its event fires or is cancelled; the engine recycles the slot and any
// later use of the stale handle is detected by generation mismatch.
type Event struct {
	en   *Engine
	slot int32 // slab index + 1; 0 marks the zero handle
	gen  uint32
	time float64
}

// Time returns the simulation time at which the event was scheduled to
// fire. It remains readable after the event fires or is cancelled.
func (e Event) Time() float64 { return e.time }

// Active reports whether the event is still pending: scheduled, not yet
// fired, not cancelled.
func (e Event) Active() bool {
	if e.slot == 0 {
		return false
	}
	sl := &e.en.events[e.slot-1]
	return sl.gen == e.gen && sl.pos >= 0
}

// Cancel removes the event from the queue so it never fires. Cancelling
// the zero handle, an already-fired or an already-cancelled event is a
// no-op (the generation check makes stale handles inert even after the
// slot has been recycled by a newer event).
func (e Event) Cancel() {
	if e.slot == 0 {
		return
	}
	en := e.en
	sl := &en.events[e.slot-1]
	if sl.gen != e.gen || sl.pos < 0 {
		return // fired, cancelled, or slot recycled
	}
	en.heapRemove(sl.pos)
	en.release(e.slot - 1)
}

// Engine is a sequential discrete-event engine: a clock plus a future
// event list ordered by (time, schedule order). The zero value is ready to
// use. Engines are not safe for concurrent use; run one engine per
// goroutine (replications parallelize across engines).
type Engine struct {
	now    float64
	seq    uint64
	events []eventSlot // slab; heap and free hold indices into it
	heap   []int32     // 4-ary min-heap on (time, seq)
	free   []int32     // released slots available for reuse
	fired  uint64
	popped uint64
	// msgs holds the handler and payload of typed events, indexed like
	// events; nil until the first ScheduleMsg.
	msgs []msgSlot
}

// Msg is the fixed payload of a typed event (see ScheduleMsg): a job
// handle and a few scalars whose meaning belongs to the handler, e.g. a
// transit copy's (job, target link, delivery epoch).
type Msg struct {
	Ref  JobRef
	ID   int64
	A, B int
	X    float64
}

// msgSlot is a typed event's side-array entry.
type msgSlot struct {
	h func(Msg)
	m Msg
}

// Now returns the current simulation time.
func (en *Engine) Now() float64 { return en.now }

// Fired returns the number of events executed so far.
func (en *Engine) Fired() uint64 { return en.fired }

// Pending returns the number of events in the queue. Cancelled events are
// removed eagerly and do not count.
func (en *Engine) Pending() int { return len(en.heap) }

// alloc returns a free slab slot, growing the slab when the free list is
// empty. The returned index is NOT on the heap yet.
func (en *Engine) alloc() int32 {
	if n := len(en.free); n > 0 {
		idx := en.free[n-1]
		en.free = en.free[:n-1]
		return idx
	}
	en.events = append(en.events, eventSlot{pos: -1})
	return int32(len(en.events) - 1)
}

// release recycles slot idx: the generation bump invalidates outstanding
// handles, and dropping fn releases the callback's closure to the GC.
func (en *Engine) release(idx int32) {
	sl := &en.events[idx]
	sl.fn = nil
	sl.pos = -1
	sl.gen++
	en.free = append(en.free, idx)
}

// Schedule registers fn to run at absolute time t, which must not precede
// the current time. It returns the Event handle for cancellation.
func (en *Engine) Schedule(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule of a nil callback")
	}
	return en.schedule(t, fn)
}

// ScheduleMsg registers h(m) to run at absolute time t: the closure-free
// form of Schedule for events that fire once per job or per message. h
// should be bound once by its owner (like PSServer's departure method
// value), so the call allocates nothing once the slab has grown. The
// event orders, cancels and reschedules exactly like a Schedule'd one and
// consumes one sequence number.
func (en *Engine) ScheduleMsg(t float64, h func(Msg), m Msg) Event {
	e := en.schedule(t, nil)
	idx := int(e.slot - 1)
	if idx >= len(en.msgs) {
		en.msgs = append(en.msgs, make([]msgSlot, len(en.events)-len(en.msgs))...)
	}
	en.msgs[idx] = msgSlot{h: h, m: m}
	return e
}

// schedule pushes a slot firing fn (nil for a typed event) at time t.
func (en *Engine) schedule(t float64, fn func()) Event {
	if t < en.now {
		panic(fmt.Sprintf("sim: scheduling into the past (t=%v, now=%v)", t, en.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN time")
	}
	idx := en.alloc()
	sl := &en.events[idx]
	sl.time = t
	sl.seq = en.seq
	sl.fn = fn
	en.seq++
	en.heapPush(idx)
	return Event{en: en, slot: idx + 1, gen: sl.gen, time: t}
}

// ScheduleAfter registers fn to run delay seconds from now.
func (en *Engine) ScheduleAfter(delay float64, fn func()) Event {
	return en.Schedule(en.now+delay, fn)
}

// Reschedule moves a pending event to absolute time t, keeping its
// callback. Like a Cancel followed by a Schedule it consumes one sequence
// number, so FIFO tie-breaking among equal timestamps is identical to the
// cancel-and-reschedule idiom it replaces — but without releasing and
// re-acquiring the slot. It panics if the handle is stale (the event
// already fired or was cancelled): rescheduling a dead event would
// silently act on whatever reused its slot.
func (en *Engine) Reschedule(e Event, t float64) Event {
	if e.slot == 0 {
		panic("sim: Reschedule of a zero event handle")
	}
	sl := &en.events[e.slot-1]
	if sl.gen != e.gen || sl.pos < 0 {
		panic(fmt.Sprintf("sim: Reschedule of a dead event handle (generation mismatch: handle gen %d, slot gen %d)", e.gen, sl.gen))
	}
	if t < en.now {
		panic(fmt.Sprintf("sim: rescheduling into the past (t=%v, now=%v)", t, en.now))
	}
	if math.IsNaN(t) {
		panic("sim: rescheduling at NaN time")
	}
	sl.time = t
	sl.seq = en.seq
	en.seq++
	// The new (time, seq) may order either way relative to the old key;
	// restore heap order from the event's current position.
	en.down(sl.pos)
	en.up(sl.pos)
	e.time = t
	return e
}

// Step fires the next event. It returns false if the queue is empty.
func (en *Engine) Step() bool {
	if len(en.heap) == 0 {
		return false
	}
	idx := en.heap[0]
	sl := &en.events[idx]
	en.now = sl.time
	fn := sl.fn
	en.heapRemove(0)
	// Release before the callback: the slot is reusable by anything fn
	// schedules, and the handle held by fn's owner is already stale.
	en.release(idx)
	en.popped++
	en.fired++
	if fn != nil {
		fn()
		return true
	}
	// A typed event: copy the payload out before the handler runs, since
	// it may schedule into the slot just released (release leaves msgs
	// untouched).
	ms := en.msgs[idx]
	ms.h(ms.m)
	return true
}

// RunUntil fires events in order until the clock would pass the horizon or
// the queue empties. Events scheduled exactly at the horizon still fire.
// The clock finishes at min(horizon, last event time); callers that need
// the clock parked exactly at the horizon can call AdvanceTo.
func (en *Engine) RunUntil(horizon float64) {
	for len(en.heap) > 0 {
		if en.events[en.heap[0]].time > horizon {
			return
		}
		en.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing events. It panics
// if an event is pending before t, or if t is in the past.
func (en *Engine) AdvanceTo(t float64) {
	if t < en.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past (t=%v, now=%v)", t, en.now))
	}
	if len(en.heap) > 0 && en.events[en.heap[0]].time < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, en.events[en.heap[0]].time))
	}
	en.now = t
}

// less orders slab slots by time, then schedule order (FIFO among ties).
func (en *Engine) less(a, b int32) bool {
	sa, sb := &en.events[a], &en.events[b]
	if sa.time != sb.time {
		return sa.time < sb.time
	}
	return sa.seq < sb.seq
}

// The pending-event set is a 4-ary implicit heap over slab indices. A
// wider node costs more comparisons per level but halves the depth and
// touches fewer cache lines than the classic binary heap — the standard
// trade for DES future-event lists, where Schedule (sift-up) dominates
// and most events fire near the front.

func (en *Engine) heapPush(idx int32) {
	i := int32(len(en.heap))
	en.heap = append(en.heap, idx)
	en.events[idx].pos = i
	en.up(i)
}

// heapRemove deletes the element at heap position i.
func (en *Engine) heapRemove(i int32) {
	h := en.heap
	last := int32(len(h) - 1)
	if i != last {
		h[i] = h[last]
		en.events[h[i]].pos = i
	}
	en.heap = h[:last]
	if i < last {
		en.down(i)
		en.up(i)
	}
}

func (en *Engine) up(i int32) {
	h := en.heap
	for i > 0 {
		parent := (i - 1) / 4
		if !en.less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		en.events[h[i]].pos = i
		en.events[h[parent]].pos = parent
		i = parent
	}
}

func (en *Engine) down(i int32) {
	h := en.heap
	n := int32(len(h))
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		small := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if en.less(h[c], h[small]) {
				small = c
			}
		}
		if !en.less(h[small], h[i]) {
			break
		}
		h[i], h[small] = h[small], h[i]
		en.events[h[i]].pos = i
		en.events[h[small]].pos = small
		i = small
	}
}
