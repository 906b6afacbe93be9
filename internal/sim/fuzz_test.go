package sim

import (
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
// handlers schedule a follow-up into the slot they just vacated.
func FuzzEngineOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 3, 0, 1, 0, 3, 0})
	f.Add([]byte{0, 4, 0, 4, 0, 4, 2, 1, 8, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 1, 2, 2, 3, 3})
	f.Add([]byte{4, 3, 4, 4, 0, 2, 3, 0, 4, 1, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 7, 4, 7, 4, 6, 2, 9, 1, 1, 3, 0, 4, 0, 3, 0, 3, 0, 3, 0})
	f.Add([]byte{4, 1, 3, 0, 4, 5, 0, 5, 3, 0, 3, 0, 1, 3, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var en Engine
		arena := NewJobArena()

		// Reference state: one item per scheduled event, keyed exactly
		// like the engine orders its heap. chain > 0 marks a typed event
		// whose handler schedules a follow-up typed event (chain-1)/2
		// seconds after it fires.
		type item struct {
			time  float64
			seq   uint64
			id    int
			chain int
			state int // 0 pending, 1 fired, 2 cancelled
		}
		var items []*item
		var seq uint64 // mirrors every sequence number the engine consumes
		now := 0.0

		var gotFired []int
		var handles []Event
		var refs []*item

		// chainID is the follow-up item refStep created for the typed
		// event about to fire, read by its handler.
		chainID := 0
		payload := func(id, chain int) Msg {
			j := arena.Get()
			j.ID = int64(id)
			return Msg{Ref: arena.Ref(j), ID: int64(id), A: chain, B: -id, X: float64(id) / 4}
		}
		// onMsg is bound once, like a layer's handler.
		var onMsg func(Msg)
		onMsg = func(m Msg) {
			j, ok := m.Ref.Load()
			if !ok || j.ID != m.ID || m.B != -int(m.ID) || m.X != float64(m.ID)/4 {
				t.Fatalf("typed event %d fired with a mixed payload %+v", m.ID, m)
			}
			arena.Put(j)
			gotFired = append(gotFired, int(m.ID))
			if m.A > 0 {
				en.ScheduleMsg(en.Now()+float64(m.A-1)*0.5, onMsg, payload(chainID, 0))
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
				items = append(items, &item{time: best.time + float64(best.chain-1)*0.5, seq: seq, id: chainID})
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
			op, arg := data[i]%5, data[i+1]
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
			case 2: // reschedule handle arg if still pending
				if len(handles) == 0 {
					continue
				}
				k := int(arg) % len(handles)
				if !handles[k].Active() {
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
