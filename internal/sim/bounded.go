package sim

import "fmt"

// DropPolicy selects which job a bounded server sheds on overflow.
type DropPolicy int

const (
	// DropNewest rejects the arriving job when the server is full.
	DropNewest DropPolicy = iota
	// DropOldest evicts the longest-present job to admit the new one.
	DropOldest
)

// String returns the policy mnemonic.
func (d DropPolicy) String() string {
	switch d {
	case DropNewest:
		return "newest"
	case DropOldest:
		return "oldest"
	default:
		return fmt.Sprintf("DropPolicy(%d)", int(d))
	}
}

// Bounded caps the number of jobs present at a server (in service plus
// queued). The paper's model assumes unbounded queues, which is exactly
// what makes it undefined at ρ ≥ 1; a real computer has finite admission
// buffers, and overload protection (internal/cluster) needs overflow to
// be a first-class outcome. On overflow the DropPolicy sheds either the
// arriving job or the oldest one present; shed jobs are reported through
// onShed and never depart normally.
//
// The embedding run must call NoteDeparture for every job completing at
// the inner server, so the admission-order list stays consistent.
type Bounded struct {
	inner      Server
	cap        int
	drop       DropPolicy
	onShed     func(*Job)
	present    []*Job // admission order
	maxPresent int    // high-water mark of len(present)
}

// NewBounded wraps inner with capacity cap (> 0).
func NewBounded(inner Server, cap int, drop DropPolicy, onShed func(*Job)) *Bounded {
	if cap <= 0 {
		panic(fmt.Sprintf("sim: bounded server capacity must be positive, got %d", cap))
	}
	if onShed == nil {
		panic("sim: bounded server needs an onShed callback")
	}
	return &Bounded{inner: inner, cap: cap, drop: drop, onShed: onShed}
}

// InService returns the number of jobs present.
func (b *Bounded) InService() int { return len(b.present) }

// BusyTime returns the inner server's cumulative non-idle time.
func (b *Bounded) BusyTime() float64 { return b.inner.BusyTime() }

// MaxPresent returns the high-water mark of jobs present over the run.
// The cap invariant — MaxPresent() never exceeds the configured
// capacity — is asserted by the chaos harness's queue-cap check.
func (b *Bounded) MaxPresent() int { return b.maxPresent }

// Arrive admits a job, shedding per the drop policy when full.
func (b *Bounded) Arrive(j *Job) {
	if b.admit(j) {
		b.inner.Arrive(j)
	}
}

// Resume re-admits an evicted job, shedding per the drop policy when
// full.
func (b *Bounded) Resume(j *Job) {
	if b.admit(j) {
		b.inner.Resume(j)
	}
}

// admit applies the drop policy and reports whether j may enter.
func (b *Bounded) admit(j *Job) bool {
	if len(b.present) < b.cap {
		b.present = append(b.present, j)
		if len(b.present) > b.maxPresent {
			b.maxPresent = len(b.present)
		}
		return true
	}
	if b.drop == DropNewest {
		b.onShed(j)
		return false
	}
	oldest := b.present[0]
	if !b.inner.Remove(oldest) {
		panic(fmt.Sprintf("sim: bounded server lost track of job %d", oldest.ID))
	}
	b.present = b.present[1:]
	b.onShed(oldest)
	b.present = append(b.present, j)
	return true
}

// Evict removes every job (a computer failure).
func (b *Bounded) Evict() []*Job {
	b.present = b.present[:0]
	return b.inner.Evict()
}

// Remove extracts one job (a deadline or timeout).
func (b *Bounded) Remove(j *Job) bool {
	if !b.inner.Remove(j) {
		return false
	}
	b.forget(j)
	return true
}

// NoteDeparture keeps the admission-order list consistent; the embedding
// run calls it from the inner server's departure callback.
func (b *Bounded) NoteDeparture(j *Job) { b.forget(j) }

func (b *Bounded) forget(j *Job) {
	for i, p := range b.present {
		if p == j {
			b.present = append(b.present[:i], b.present[i+1:]...)
			return
		}
	}
}
