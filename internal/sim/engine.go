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
// with freed slots kept on a free list for reuse, ordered by a 4-ary
// min-heap whose entries carry each event's time beside its slot index,
// so a sift reads the slab only to break a tie between equal times.
// Steady-state Schedule/Cancel/Reschedule therefore perform no heap
// allocations (see TestScheduleCancelZeroAlloc), and event handles are
// small values carrying a generation number that detects use-after-free:
// acting on a handle whose slot has been recycled is either a safe no-op
// (Cancel) or a generation-mismatch panic (Reschedule). The least of a
// full node's four children is chosen without branching on their times
// (minOf4: conditional moves on the times' bits); only a tie for the
// least time falls back to the exact (time, seq) scan.
//
// Beside Schedule(t, fn) the engine has one typed form, ScheduleMsg(t, h,
// m): a handler bound once by its caller plus a small fixed payload (a
// Msg), stored in a side array parallel to the slab. A layer that fires
// one event per job or per message schedules it this way and so
// allocates no closure per event. Typed events share the heap, the
// sequence numbers and Step with closure events; the side array is grown
// on the first typed schedule only, so an engine that never schedules one
// pays nothing for it.
//
// A stream whose events are pushed in time order — an arrival chain, or
// timers armed at now plus a per-run constant — can bypass the heap on a
// FIFO Lane (NewLane): an O(1) ring beside the heap, merged with the
// heap root by (time, seq) at every step, so the firing order is exactly
// the one-heap order. A cancelled lane event releases its slot at once
// and leaves a stale ring entry that a step skips; it is not counted by
// Pending.
package sim

import (
	"fmt"
	"math"
)

// eventSlot is one slab entry: the scheduled callback plus the queue
// bookkeeping. Slots are recycled through the engine's free list; gen
// increments at every release so stale Event handles are detectable. A
// nil fn marks a typed event, whose handler and payload live in
// Engine.msgs at the same index. The event's time lives in its heap or
// lane entry, not here.
type eventSlot struct {
	seq uint64
	fn  func()
	pos int32 // index in Engine.heap; slotFree when free; laneMark(k) on lane k
	gen uint32
}

// slotFree is eventSlot.pos of a released slot. Lane k's events hold
// laneMark(k), below it.
const slotFree = -1

// laneMark is eventSlot.pos of an event on lane k. It is its own
// inverse: laneMark(pos) is the lane of a slot whose pos is a mark.
func laneMark(k int32) int32 { return -2 - k }

// entry is one future-event-list entry: an event's time beside its slab
// slot, so ordering two entries reads the slab only when their times are
// equal. A lane entry also records the generation it was pushed under,
// which tells a live entry from one whose event was cancelled; the heap
// leaves gen zero (a heap entry is removed when its event is cancelled).
type entry struct {
	time float64
	slot int32
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

// Active reports whether the event is still pending: scheduled, not yet
// fired, not cancelled.
func (e Event) Active() bool {
	if e.slot == 0 {
		return false
	}
	sl := &e.en.events[e.slot-1]
	return sl.gen == e.gen && sl.pos != slotFree
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
	idx := e.slot - 1
	sl := &en.events[idx]
	if sl.gen != e.gen || sl.pos == slotFree {
		return // fired, cancelled, or slot recycled
	}
	if pos := sl.pos; pos >= 0 {
		en.heapRemove(pos)
		en.release(idx)
	} else {
		// The release makes the lane's ring entry stale.
		en.release(idx)
		en.lanes[laneMark(pos)].cancelled()
	}
}

// Engine is a sequential discrete-event engine: a clock plus a future
// event list ordered by (time, schedule order). The zero value is ready to
// use. Engines are not safe for concurrent use; run one engine per
// goroutine (replications parallelize across engines).
type Engine struct {
	now    float64
	seq    uint64
	events []eventSlot // slab; heap, free and the lanes index into it
	heap   []entry     // 4-ary min-heap on (time, seq)
	free   []int32     // released slots available for reuse
	fired  uint64
	// msgs holds the handler and payload of typed events, indexed like
	// events; nil until the first ScheduleMsg.
	msgs []msgSlot
	// lanes are the engine's FIFO lanes (NewLane) and laneLive their
	// live events: with none live, a step costs one branch more than a
	// heap-only engine.
	lanes    []*Lane
	laneLive int
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

// Pending returns the number of events in the queue, on the heap and on
// the lanes. Cancelled events do not count: a heap event is removed
// eagerly, and a lane event's stale ring entry, dropped lazily, is not
// counted.
func (en *Engine) Pending() int { return len(en.heap) + en.laneLive }

// alloc takes a free slab slot (growing the slab when the free list is
// empty) and stamps it with fn and the next sequence number. The returned
// slot is on neither the heap nor a lane yet.
func (en *Engine) alloc(fn func()) int32 {
	var idx int32
	if n := len(en.free); n > 0 {
		idx = en.free[n-1]
		en.free = en.free[:n-1]
	} else {
		en.events = append(en.events, eventSlot{pos: slotFree})
		idx = int32(len(en.events) - 1)
	}
	sl := &en.events[idx]
	sl.seq = en.seq
	sl.fn = fn
	en.seq++
	return idx
}

// badTime panics on an event time t that is NaN or earlier than now; op
// names the operation. It is kept out of line so the checks that call it
// stay cheap.
func (en *Engine) badTime(op string, t float64) {
	if math.IsNaN(t) {
		panic("sim: " + op + " at NaN time")
	}
	panic(fmt.Sprintf("sim: %s into the past (t=%v, now=%v)", op, t, en.now))
}

// release recycles slot idx: the generation bump invalidates outstanding
// handles, and dropping fn releases the callback's closure to the GC.
func (en *Engine) release(idx int32) {
	sl := &en.events[idx]
	sl.fn = nil
	sl.pos = slotFree
	sl.gen++
	en.free = append(en.free, idx)
}

// setMsg stores typed event idx's handler and payload, growing the side
// array to the slab's length when idx is beyond it.
func (en *Engine) setMsg(idx int32, h func(Msg), m Msg) {
	if int(idx) >= len(en.msgs) {
		en.msgs = append(en.msgs, make([]msgSlot, len(en.events)-len(en.msgs))...)
	}
	en.msgs[idx] = msgSlot{h: h, m: m}
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
	en.setMsg(e.slot-1, h, m)
	return e
}

// schedule pushes a slot firing fn (nil for a typed event) at time t.
func (en *Engine) schedule(t float64, fn func()) Event {
	if !(t >= en.now) {
		en.badTime("scheduling", t)
	}
	idx := en.alloc(fn)
	en.heap = append(en.heap, entry{time: t, slot: idx})
	en.up(int32(len(en.heap) - 1))
	return Event{en: en, slot: idx + 1, gen: en.events[idx].gen, time: t}
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
// silently act on whatever reused its slot. It panics on a lane event
// too: a lane holds its events in push order.
func (en *Engine) Reschedule(e Event, t float64) Event {
	if e.slot == 0 {
		panic("sim: Reschedule of a zero event handle")
	}
	sl := &en.events[e.slot-1]
	if sl.gen != e.gen || sl.pos < 0 {
		if sl.gen == e.gen && sl.pos != slotFree {
			panic("sim: Reschedule of a lane event")
		}
		panic(fmt.Sprintf("sim: Reschedule of a dead event handle (generation mismatch: handle gen %d, slot gen %d)", e.gen, sl.gen))
	}
	if !(t >= en.now) {
		en.badTime("rescheduling", t)
	}
	sl.seq = en.seq
	en.seq++
	// The new key takes the largest seq yet, so it orders after the old
	// key exactly when t is not earlier: one sift direction suffices.
	i := sl.pos
	old := en.heap[i].time
	en.heap[i].time = t
	if t >= old {
		en.down(i)
	} else {
		en.up(i)
	}
	e.time = t
	return e
}

// RunUntil fires events in order until the clock would pass the horizon or
// the queue empties. Events scheduled exactly at the horizon still fire.
// The clock finishes at min(horizon, last event time); callers that need
// the clock parked exactly at the horizon can call AdvanceTo.
func (en *Engine) RunUntil(horizon float64) {
	for en.stepUntil(horizon) {
	}
}

// stepUntil fires the next event if it is due no later than horizon and
// reports whether it fired one.
func (en *Engine) stepUntil(horizon float64) bool {
	var l *Lane
	if en.laneLive > 0 {
		l = en.laneFront()
	}
	var e entry
	if l != nil {
		e = l.ring[l.head]
		if e.time > horizon {
			return false
		}
		l.pop()
	} else {
		if len(en.heap) == 0 || en.heap[0].time > horizon {
			return false
		}
		e = en.heap[0]
		en.popRoot()
	}
	en.now = e.time
	fn := en.events[e.slot].fn
	// Release before the callback: the slot is reusable by anything the
	// callback schedules, and the handle held by the event's owner is
	// already stale.
	en.release(e.slot)
	en.fired++
	if fn != nil {
		fn()
		return true
	}
	// A typed event: copy the payload out before the handler runs, since
	// it may schedule into the slot just released (release leaves msgs
	// untouched).
	ms := en.msgs[e.slot]
	ms.h(ms.m)
	return true
}

// AdvanceTo moves the clock forward to t without firing events. It panics
// if an event is pending before t, or if t is in the past.
func (en *Engine) AdvanceTo(t float64) {
	if t < en.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past (t=%v, now=%v)", t, en.now))
	}
	next := math.Inf(1)
	if len(en.heap) > 0 {
		next = en.heap[0].time
	}
	if en.laneLive > 0 {
		if l := en.laneFront(); l != nil {
			next = l.ring[l.head].time
		}
	}
	if next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip event at %v", t, next))
	}
	en.now = t
}

// less orders entries by time, then schedule order (FIFO among ties).
func (en *Engine) less(a, b entry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return en.events[a.slot].seq < en.events[b.slot].seq
}

// The pending-event set is a 4-ary implicit heap of entries. A wider node
// costs more comparisons per level but halves the depth and touches fewer
// cache lines than the classic binary heap — the standard trade for DES
// future-event lists, where Schedule (sift-up) dominates and most events
// fire near the front. The sifts move a hole rather than swapping, and
// every entry stores its own position in its slot.

// minOf4 returns the position of the least of the four entries h[c:c+4]
// by (time, seq). Heap times are never NaN and never below now, which is
// at least 0, so with the sign of −0 cleared their bits order as
// unsigned integers exactly like the floats (−0 equal to +0, +Inf last).
// A two-round tournament on those keys compiles to conditional moves,
// and the count of keys equal to the least is the one branch, taken only
// when two children tie and their seqs must decide. Kept out of line:
// the compiler keeps a branch where the selected value feeds a load
// address, as the chosen child does in popRoot, so inlined there the
// tournament compiles to jumps again.
func (en *Engine) minOf4(h []entry, c int32) int32 {
	q := (*[4]entry)(h[c : c+4])
	const sign = 1 << 63
	k0 := math.Float64bits(q[0].time) &^ sign
	k1 := math.Float64bits(q[1].time) &^ sign
	k2 := math.Float64bits(q[2].time) &^ sign
	k3 := math.Float64bits(q[3].time) &^ sign
	a, ka := c, k0
	if k1 < ka {
		a, ka = c+1, k1
	}
	b, kb := c+2, k2
	if k3 < kb {
		b, kb = c+3, k3
	}
	if kb < ka {
		a, ka = b, kb
	}
	if b2i(k0 == ka)+b2i(k1 == ka)+b2i(k2 == ka)+b2i(k3 == ka) > 1 {
		return en.minScan(h, c, c+4)
	}
	return a
}

// minScan returns the position of the least of the entries h[c:end] by
// (time, seq).
func (en *Engine) minScan(h []entry, c, end int32) int32 {
	for k := c + 1; k < end; k++ {
		if en.less(h[k], h[c]) {
			c = k
		}
	}
	return c
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// popRoot removes the heap's root. It walks the hole at the root down to
// a leaf along the smaller children, then moves the last entry up from
// there: the last entry is usually a late event that belongs near the
// leaves, so this takes fewer comparisons than sifting it down level by
// level.
func (en *Engine) popRoot() {
	h := en.heap
	n := int32(len(h) - 1)
	x := h[n]
	h = h[:n]
	en.heap = h
	if n == 0 {
		return
	}
	var i int32
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		if c+3 < n {
			c = en.minOf4(h, c)
		} else {
			c = en.minScan(h, c, n)
		}
		h[i] = h[c]
		en.events[h[i].slot].pos = i
		i = c
	}
	h[i] = x
	en.up(i)
}

// heapRemove deletes the entry at heap position i.
func (en *Engine) heapRemove(i int32) {
	h := en.heap
	n := int32(len(h) - 1)
	x := h[n]
	en.heap = h[:n]
	if i == n {
		return
	}
	h[i] = x
	if i > 0 && en.less(x, h[(i-1)/4]) {
		en.up(i)
	} else {
		en.down(i)
	}
}

// up moves the entry at position i toward the root while it precedes its
// parent.
func (en *Engine) up(i int32) {
	h := en.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !en.less(x, h[p]) {
			break
		}
		h[i] = h[p]
		en.events[h[i].slot].pos = i
		i = p
	}
	h[i] = x
	en.events[x.slot].pos = i
}

// down moves the entry at position i toward the leaves while a child
// precedes it.
func (en *Engine) down(i int32) {
	h := en.heap
	n := int32(len(h))
	x := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		if c+3 < n {
			c = en.minOf4(h, c)
		} else {
			c = en.minScan(h, c, n)
		}
		if !en.less(h[c], x) {
			break
		}
		h[i] = h[c]
		en.events[h[i].slot].pos = i
		i = c
	}
	h[i] = x
	en.events[x.slot].pos = i
}
