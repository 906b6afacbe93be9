package sim

import "math"

// Methods that only tests call; no binary links them.

// Live returns the number of jobs currently checked out of the arena:
// every slot ever handed out, less those on the free list.
func (a *JobArena) Live() int64 {
	if len(a.chunks) == 0 {
		return 0
	}
	return int64((len(a.chunks)-1)*jobChunkSize + a.next - len(a.free))
}

// Full reports whether the server is at capacity.
func (b *Bounded) Full() bool { return len(b.present) >= b.cap }

// Step fires the next event. It returns false if the queue is empty.
func (en *Engine) Step() bool { return en.stepUntil(posInf) }

// posInf is Step's horizon: every event is due by it.
var posInf = math.Inf(1)
