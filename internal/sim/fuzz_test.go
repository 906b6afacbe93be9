package sim

import (
	"bytes"
	"math"
	"testing"
)

// FuzzEngineOps drives the engine with a byte-coded operation sequence and
// checks every observable — firing order, clock, pending and fired counts,
// handle liveness — against a deliberately naive reference: an unordered
// slice scanned for the minimum (time, seq) key. The byte-derived times
// are coarse (multiples of 0.5) so timestamp collisions are common and
// FIFO tie-breaking is constantly exercised across slab-slot reuse.
// Closure events and typed events (ScheduleMsg) mix in one sequence; a
// typed event's payload names its reference item, so a handler handed
// another event's payload fails the firing-order check, and some typed
// handlers schedule a follow-up into the slot they just vacated. Two
// FIFO lanes take pushes at their previous push time or later (closure
// events on lane 0, typed events on lane 1, whose chained follow-ups go
// back on lane 1 like an arrival chain); the reference does not know
// lanes exist, so their merge with the heap must reproduce its order.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 3, 0, 1, 0, 3, 0})
	f.Add([]byte{0, 4, 0, 4, 0, 4, 2, 1, 8, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{4, 3, 4, 4, 0, 2, 3, 0, 4, 1, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 7, 4, 7, 4, 6, 2, 9, 1, 1, 3, 0, 4, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 1, 3, 0, 4, 5, 0, 5, 3, 0, 3, 0, 1, 3, 3, 0})
	f.Add([]byte{5, 4, 0, 2, 5, 5, 5, 0, 6, 1, 3, 0, 5, 2, 3, 0, 2, 0, 3, 0, 3, 0})
	f.Add([]byte{5, 7, 5, 3, 5, 6, 0, 3, 6, 0, 3, 0, 5, 11, 3, 0, 6, 2, 3, 0, 3, 0, 3, 0})
	// 25 events pending at one time, more than the 21 of three full heap
	// levels, so plain go test replays ties among four full siblings in
	// popRoot, in a same-time Reschedule and in a Cancel.
	ties := bytes.Repeat([]byte{0, 4}, 24)
	f.Add(append(ties, 4, 8, 2, 4, 1, 9, 3, 0, 3, 0, 1, 13, 2, 4, 3, 0, 3, 0, 3, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var en Engine
		arena := NewJobArena()
		lanes := [2]*Lane{en.NewLane(), en.NewLane()}
		var laneLast [2]float64 // each lane's previous push time

		// Reference state: one item per scheduled event, keyed exactly
		// like the engine orders its heap. chain > 0 marks a typed event
		// whose handler schedules a follow-up typed event (chain-1)/2
		// seconds after it fires (on lane 1, that long after the lane's
		// previous push if it is later). lane is 1 + the lane an event
		// was pushed on, 0 for the heap; only the harness reads it.
		type item struct {
			time  float64
			seq   uint64
			id    int
			chain int
			lane  int
			state int // 0 pending, 1 fired, 2 cancelled
		}
		var items []*item
		var seq uint64 // mirrors every sequence number the engine consumes
		now := 0.0

		var gotFired []int
		var handles []Event
		var refs []*item
		var laneHandles []int // indices into handles of lane events

		// chainID and chainTime are the follow-up item refStep created
		// for the typed event about to fire, read by its handler.
		chainID, chainTime := 0, 0.0
		payload := func(id, chain int) Msg {
			j := arena.Get()
			j.ID = int64(id)
			return Msg{Ref: arena.Ref(j), ID: int64(id), A: chain, B: -id, X: float64(id) / 4}
		}
		// fireMsg checks and records a typed event's payload and reports
		// whether it asks for a follow-up.
		fireMsg := func(m Msg) bool {
			j, ok := m.Ref.Load()
			if !ok || j.ID != m.ID || m.B != -int(m.ID) || m.X != float64(m.ID)/4 {
				t.Fatalf("typed event %d fired with a mixed payload %+v", m.ID, m)
			}
			arena.Put(j)
			gotFired = append(gotFired, int(m.ID))
			return m.A > 0
		}
		// onMsg and onLaneMsg are bound once, like a layer's handlers.
		var onMsg, onLaneMsg func(Msg)
		onMsg = func(m Msg) {
			if fireMsg(m) {
				en.ScheduleMsg(chainTime, onMsg, payload(chainID, 0))
			}
		}
		onLaneMsg = func(m Msg) {
			if fireMsg(m) {
				lanes[1].ScheduleMsg(chainTime, onLaneMsg, payload(chainID, 0))
			}
		}

		refStep := func() (int, float64, bool) {
			var best *item
			for _, it := range items {
				if it.state != 0 {
					continue
				}
				if best == nil || it.time < best.time ||
					(it.time == best.time && it.seq < best.seq) {
					best = it
				}
			}
			if best == nil {
				return 0, 0, false
			}
			best.state = 1
			if best.chain > 0 {
				chainID = len(items) + 1
				chainTime = best.time + float64(best.chain-1)*0.5
				if best.lane > 0 {
					k := best.lane - 1
					chainTime = math.Max(best.time, laneLast[k]) + float64(best.chain-1)*0.5
					laneLast[k] = chainTime
				}
				items = append(items, &item{time: chainTime, seq: seq, id: chainID, lane: best.lane})
				seq++
			}
			return best.id, best.time, true
		}
		pendingRef := func() int {
			n := 0
			for _, it := range items {
				if it.state == 0 {
					n++
				}
			}
			return n
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, data[i+1]
			switch op {
			case 0: // schedule at now + arg/2
				tt := now + float64(arg)*0.5
				id := len(items) + 1
				it := &item{time: tt, seq: seq, id: id}
				seq++
				items = append(items, it)
				refs = append(refs, it)
				handles = append(handles, en.Schedule(tt, func() {
					gotFired = append(gotFired, id)
				}))
			case 4: // typed schedule at now + (arg>>1)/2, chaining when arg is odd
				tt := now + float64(arg>>1)*0.5
				id := len(items) + 1
				chain := 0
				if arg&1 == 1 {
					chain = 1 + int(arg>>1)%4
				}
				it := &item{time: tt, seq: seq, id: id, chain: chain}
				seq++
				items = append(items, it)
				refs = append(refs, it)
				handles = append(handles, en.ScheduleMsg(tt, onMsg, payload(id, chain)))
			case 1: // cancel handle arg (possibly stale: must be a no-op)
				if len(handles) == 0 {
					continue
				}
				k := int(arg) % len(handles)
				handles[k].Cancel()
				if refs[k].state == 0 {
					refs[k].state = 2
				}
			case 5: // lane push on lane arg&1 at max(now, its last push) + (arg>>1)/2
				lane := int(arg & 1)
				tt := math.Max(now, laneLast[lane]) + float64(arg>>1)*0.5
				laneLast[lane] = tt
				id := len(items) + 1
				it := &item{time: tt, seq: seq, id: id, lane: lane + 1}
				seq++
				items = append(items, it)
				refs = append(refs, it)
				laneHandles = append(laneHandles, len(handles))
				if lane == 0 {
					handles = append(handles, lanes[0].Schedule(tt, func() {
						gotFired = append(gotFired, id)
					}))
				} else {
					// Typed, chaining when bit 1 of arg is set.
					if arg&2 != 0 {
						it.chain = 1 + int(arg>>2)%4
					}
					handles = append(handles, lanes[1].ScheduleMsg(tt, onLaneMsg, payload(id, it.chain)))
				}
			case 6: // cancel lane handle arg (possibly stale: must be a no-op)
				if len(laneHandles) == 0 {
					continue
				}
				k := laneHandles[int(arg)%len(laneHandles)]
				handles[k].Cancel()
				if refs[k].state == 0 {
					refs[k].state = 2
				}
			case 2: // reschedule handle arg if still pending and on the heap
				if len(handles) == 0 {
					continue
				}
				k := int(arg) % len(handles)
				if !handles[k].Active() || refs[k].lane > 0 {
					continue
				}
				tt := now + float64(arg)*0.5
				handles[k] = en.Reschedule(handles[k], tt)
				refs[k].time = tt
				refs[k].seq = seq
				seq++
			case 3: // step
				id, tt, ok := refStep()
				stepped := en.Step()
				if stepped != ok {
					t.Fatalf("op %d: Step()=%v, reference %v", i, stepped, ok)
				}
				if !ok {
					continue
				}
				now = tt
				if en.Now() != tt {
					t.Fatalf("op %d: clock %v, reference %v", i, en.Now(), tt)
				}
				if n := len(gotFired); n == 0 || gotFired[n-1] != id {
					t.Fatalf("op %d: fired %v, reference wants %d next", i, gotFired, id)
				}
			}
			if en.Pending() != pendingRef() {
				t.Fatalf("op %d: pending %d, reference %d", i, en.Pending(), pendingRef())
			}
			for k := range handles {
				if handles[k].Active() != (refs[k].state == 0) {
					t.Fatalf("op %d: handle %d Active()=%v, reference state %d",
						i, k, handles[k].Active(), refs[k].state)
				}
			}
		}

		// Drain and verify the complete firing order.
		for {
			id, _, ok := refStep()
			if !en.Step() {
				if ok {
					t.Fatalf("engine drained early: reference still has event %d", id)
				}
				break
			}
			if !ok {
				t.Fatal("engine fired an event the reference does not have")
			}
			if gotFired[len(gotFired)-1] != id {
				t.Fatalf("drain: fired %d, reference wants %d", gotFired[len(gotFired)-1], id)
			}
		}
	})
}
