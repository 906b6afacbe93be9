package sim

import "math"

// Methods that only tests call; no binary links them.

// Live returns the number of jobs currently checked out of the arena.
func (a *JobArena) Live() int64 { return a.gets - a.puts }

// Full reports whether the server is at capacity.
func (b *Bounded) Full() bool { return len(b.present) >= b.cap }

// Step fires the next event. It returns false if the queue is empty.
func (en *Engine) Step() bool { return en.stepUntil(posInf) }

// posInf is Step's horizon: every event is due by it.
var posInf = math.Inf(1)
