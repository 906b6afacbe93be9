package dispatch

import (
	"fmt"
	"math"
)

// TokenBucket is a deterministic token-bucket admission controller for
// the central dispatcher: tokens refill continuously at Rate per second
// up to Burst, and each admitted job spends one. It shapes the admitted
// arrival rate to at most Rate over any long window while letting bursts
// up to Burst through — the classic front door for keeping offered load
// beyond ρ = 1 from ever reaching the computers. Time is passed in by
// the caller (simulated seconds), so admission decisions are exactly
// reproducible.
type TokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   float64
}

// NewTokenBucket builds a bucket that starts full. Rate must be positive
// and finite; burst at least 1 (a bucket that can never hold a whole
// token admits nothing).
func NewTokenBucket(rate, burst float64) (*TokenBucket, error) {
	if !(rate > 0) || math.IsInf(rate, 0) {
		return nil, fmt.Errorf("dispatch: token rate %v must be positive and finite", rate)
	}
	if !(burst >= 1) || math.IsInf(burst, 0) {
		return nil, fmt.Errorf("dispatch: token burst %v must be at least 1", burst)
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}, nil
}

// Allow refills the bucket up to now and spends one token if available,
// reporting whether the job is admitted. now must not go backwards.
func (tb *TokenBucket) Allow(now float64) bool {
	if now > tb.last {
		tb.tokens = math.Min(tb.burst, tb.tokens+(now-tb.last)*tb.rate)
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true
	}
	return false
}
