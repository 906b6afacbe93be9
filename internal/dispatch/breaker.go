package dispatch

import (
	"fmt"
	"math"
)

// This file implements the per-computer circuit breaker used by the
// overload-protection layer (internal/cluster). A breaker watches one
// computer's dispatch outcomes — completions are successes; rejections,
// queue sheds and dispatcher timeouts are failures — and takes the
// computer out of the routing set when it is persistently failing, so the
// dispatcher stops feeding a saturated or broken backend.
//
// State machine:
//
//	Closed ──(Consecutive failures in a row, or failure ratio ≥ Ratio
//	          over a full Window of outcomes)──▶ Open
//	Open ──(caller's Cooldown timer fires; ToHalfOpen)──▶ HalfOpen
//	HalfOpen ──(single probe job completes)──▶ Closed (history reset)
//	HalfOpen ──(probe fails)──▶ Open (cooldown restarts)
//
// The breaker is clock-free and schedules nothing itself: callers pass
// the current simulation time in and own the cooldown timer, keeping the
// state machine deterministic and engine-agnostic.

// BreakerState is a circuit breaker's routing state.
type BreakerState int

const (
	// BreakerClosed routes normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen masks the computer; no regular jobs are routed to it.
	BreakerOpen
	// BreakerHalfOpen admits a single probe job to test recovery.
	BreakerHalfOpen
)

// String returns the state mnemonic.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig parameterizes a circuit breaker. At least one trip
// criterion (Consecutive, or Ratio with Window) must be set.
type BreakerConfig struct {
	// Consecutive trips the breaker after this many failures in a row;
	// 0 disables the criterion.
	Consecutive int
	// Ratio trips the breaker when the failure fraction over the last
	// Window outcomes reaches this value, once a full window of outcomes
	// has been seen; 0 disables the criterion.
	Ratio float64
	// Window is the sliding-window length in outcomes (required with
	// Ratio).
	Window int
	// Cooldown is how long an open breaker waits, in simulated seconds,
	// before admitting a half-open probe.
	Cooldown float64
}

// Validate reports configuration errors.
func (c *BreakerConfig) Validate() error {
	if c == nil {
		return nil
	}
	if c.Consecutive < 0 {
		return fmt.Errorf("dispatch: breaker consecutive-failure threshold %d negative", c.Consecutive)
	}
	if c.Ratio < 0 || c.Ratio > 1 || math.IsNaN(c.Ratio) {
		return fmt.Errorf("dispatch: breaker failure ratio %v outside [0,1]", c.Ratio)
	}
	if c.Ratio > 0 && c.Window <= 0 {
		return fmt.Errorf("dispatch: breaker ratio criterion needs a positive window, got %d", c.Window)
	}
	if c.Ratio == 0 && c.Window > 0 {
		return fmt.Errorf("dispatch: breaker window %d set without a ratio", c.Window)
	}
	if c.Consecutive == 0 && c.Ratio == 0 {
		return fmt.Errorf("dispatch: breaker needs a trip criterion (consecutive failures or ratio:window)")
	}
	if !(c.Cooldown > 0) || math.IsInf(c.Cooldown, 0) {
		return fmt.Errorf("dispatch: breaker cooldown %v must be positive and finite", c.Cooldown)
	}
	return nil
}

// Breaker is one computer's circuit breaker.
type Breaker struct {
	cfg   BreakerConfig
	state BreakerState

	consec   int    // current consecutive-failure run
	window   []bool // outcome ring, true = failure
	wIdx     int
	wLen     int
	failures int // failures currently in the window

	probing bool
}

// NewBreaker builds a breaker; cfg must validate.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	b := &Breaker{cfg: cfg}
	if cfg.Window > 0 {
		b.window = make([]bool, cfg.Window)
	}
	return b
}

// State returns the current routing state.
func (b *Breaker) State() BreakerState { return b.state }

// Allow reports whether a regular (non-probe) job may be routed to this
// computer.
func (b *Breaker) Allow() bool { return b.state == BreakerClosed }

// RecordSuccess notes a completed regular job. Probe outcomes go through
// ProbeSucceeded/ProbeFailed instead.
func (b *Breaker) RecordSuccess() {
	if b.state != BreakerClosed {
		return
	}
	b.consec = 0
	b.push(false)
}

// RecordFailure notes a rejection, shed or timeout at this computer and
// returns true when it trips the breaker (Closed → Open). The caller
// must then mask the computer and schedule ToHalfOpen after Cooldown.
func (b *Breaker) RecordFailure() bool {
	if b.state != BreakerClosed {
		return false
	}
	b.consec++
	b.push(true)
	tripped := b.cfg.Consecutive > 0 && b.consec >= b.cfg.Consecutive
	if !tripped && b.cfg.Ratio > 0 && b.wLen >= b.cfg.Window {
		tripped = float64(b.failures) >= b.cfg.Ratio*float64(b.wLen)
	}
	if tripped {
		b.state = BreakerOpen
	}
	return tripped
}

// ToHalfOpen moves an open breaker to half-open; called when the
// caller's cooldown timer fires.
func (b *Breaker) ToHalfOpen() {
	if b.state == BreakerOpen {
		b.state = BreakerHalfOpen
		b.probing = false
	}
}

// NeedsProbe reports whether the breaker is half-open with no probe in
// flight.
func (b *Breaker) NeedsProbe() bool { return b.state == BreakerHalfOpen && !b.probing }

// BeginProbe marks the single half-open probe as dispatched.
func (b *Breaker) BeginProbe() {
	if b.state != BreakerHalfOpen || b.probing {
		panic("dispatch: BeginProbe on a breaker that needs no probe")
	}
	b.probing = true
}

// ProbeSucceeded closes the breaker and resets its failure history.
func (b *Breaker) ProbeSucceeded() {
	b.state = BreakerClosed
	b.probing = false
	b.consec = 0
	b.failures = 0
	b.wIdx = 0
	b.wLen = 0
}

// ProbeFailed re-opens the breaker; the caller restarts the cooldown
// timer.
func (b *Breaker) ProbeFailed() {
	b.state = BreakerOpen
	b.probing = false
}

// push records one outcome in the sliding window.
func (b *Breaker) push(failure bool) {
	if len(b.window) == 0 {
		return
	}
	if b.wLen == len(b.window) {
		if b.window[b.wIdx] {
			b.failures--
		}
	} else {
		b.wLen++
	}
	b.window[b.wIdx] = failure
	if failure {
		b.failures++
	}
	b.wIdx = (b.wIdx + 1) % len(b.window)
}
