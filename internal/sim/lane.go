package sim

import "fmt"

// Lane is a FIFO queue of events beside its engine's heap, for a stream
// whose events are pushed in time order: an arrival chain that schedules
// its next arrival when one fires, or timers armed at now plus a per-run
// constant. A push or a cancel is O(1), where the heap pays O(log n).
//
// Lane events are ordinary events. They take a sequence number at the
// push, fire through Step and RunUntil, cancel through their handles and
// count in Pending. Each step takes the earliest (time, seq) among the
// heap root and every lane's first live entry, so the firing order is
// exactly the order one heap would give. The FIFO precondition is
// checked, not assumed: a push earlier than the lane's previous push
// panics, as does Reschedule of a lane event.
//
// Cancel releases the event's slot at once; its ring entry goes stale
// and is skipped when it reaches the head. When stale entries outnumber
// live ones the ring is compacted, so it stays O(live) however long the
// delay. A lane belongs to one engine: create it from the run's engine
// (NewLane) and never share it across runs.
type Lane struct {
	en   *Engine
	k    int32   // index in en.lanes; the lane's events hold laneMark(k)
	ring []entry // power-of-two length; entries head .. head+n-1 in push order
	head int
	n    int // entries in the ring, stale ones included
	live int // entries whose event is pending
	// last is the time of the latest push; 0 before the first, since no
	// event precedes time 0.
	last float64
}

// NewLane returns a new FIFO lane of the engine.
func (en *Engine) NewLane() *Lane {
	l := &Lane{en: en, k: int32(len(en.lanes))}
	en.lanes = append(en.lanes, l)
	return l
}

// Schedule registers fn to run at absolute time t, like Engine.Schedule.
// t must not precede the lane's previous push.
func (l *Lane) Schedule(t float64, fn func()) Event {
	if fn == nil {
		panic("sim: Lane.Schedule of a nil callback")
	}
	return l.push(t, fn)
}

// ScheduleMsg registers h(m) to run at absolute time t, like
// Engine.ScheduleMsg. t must not precede the lane's previous push.
func (l *Lane) ScheduleMsg(t float64, h func(Msg), m Msg) Event {
	e := l.push(t, nil)
	l.en.setMsg(e.slot-1, h, m)
	return e
}

// push appends an event firing fn (nil for a typed event) at time t.
func (l *Lane) push(t float64, fn func()) Event {
	if t < l.last {
		panic(fmt.Sprintf("sim: lane push out of order (t=%v before the lane's previous push at %v)", t, l.last))
	}
	en := l.en
	if !(t >= en.now) {
		en.badTime("scheduling", t)
	}
	idx := en.alloc(fn)
	sl := &en.events[idx]
	sl.pos = laneMark(l.k)
	l.last = t
	if l.n == len(l.ring) {
		l.grow()
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = entry{time: t, slot: idx, gen: sl.gen}
	l.n++
	l.live++
	en.laneLive++
	return Event{en: en, slot: idx + 1, gen: sl.gen, time: t}
}

// grow doubles the ring, unwrapping the entries to start at index 0.
func (l *Lane) grow() {
	ring := make([]entry, max(2*len(l.ring), 16))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring = ring
	l.head = 0
}

// stale reports whether ring entry e's event was cancelled.
func (l *Lane) stale(e entry) bool { return l.en.events[e.slot].gen != e.gen }

// front drops stale entries off the head and returns the first live
// entry. The lane must hold a live event.
func (l *Lane) front() entry {
	for {
		e := l.ring[l.head]
		if !l.stale(e) {
			return e
		}
		l.head = (l.head + 1) & (len(l.ring) - 1)
		l.n--
	}
}

// pop removes the head entry, which front returned, for firing.
func (l *Lane) pop() {
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	l.live--
	l.en.laneLive--
}

// cancelled accounts for one of the lane's events cancelled (its slot
// already released) and compacts the ring once stale entries outnumber
// live ones. A compaction removes more entries than it keeps, so its cost
// is O(1) per cancel, amortized.
func (l *Lane) cancelled() {
	l.live--
	l.en.laneLive--
	if l.n-l.live <= l.live {
		return
	}
	mask := len(l.ring) - 1
	kept := 0
	for i := 0; i < l.n; i++ {
		e := l.ring[(l.head+i)&mask]
		if !l.stale(e) {
			l.ring[(l.head+kept)&mask] = e
			kept++
		}
	}
	l.n = kept
}

// laneFront returns the lane whose first live entry is the engine's
// earliest pending event, or nil when the heap root precedes every lane
// head. At least one lane must hold a live event.
func (en *Engine) laneFront() *Lane {
	var best *Lane
	var first entry
	if len(en.heap) > 0 {
		first = en.heap[0]
	}
	for _, l := range en.lanes {
		if l.live == 0 {
			continue
		}
		e := l.front()
		if (best == nil && len(en.heap) == 0) || en.less(e, first) {
			best, first = l, e
		}
	}
	return best
}
