package dispatch

import "testing"

// TestBreakerTripHalfOpenClose walks the full recovery path required by
// the overload design: consecutive failures trip the breaker, the
// cooldown moves it to half-open, a single probe succeeds and the
// breaker closes with its history reset.
func TestBreakerTripHalfOpenClose(t *testing.T) {
	b := NewBreaker(BreakerConfig{Consecutive: 3, Cooldown: 100})

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker must start closed and allowing")
	}
	if b.RecordFailure() || b.RecordFailure() {
		t.Fatal("breaker tripped before reaching the consecutive threshold")
	}
	b.RecordSuccess() // success resets the consecutive run
	if b.RecordFailure() || b.RecordFailure() {
		t.Fatal("breaker ignored the success reset")
	}
	if !b.RecordFailure() {
		t.Fatal("third consecutive failure did not trip the breaker")
	}
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatalf("after trip: state=%v allow=%v", b.State(), b.Allow())
	}
	// Failures while open are ignored (the computer is already masked).
	if b.RecordFailure() {
		t.Fatal("open breaker recorded a trip")
	}

	b.ToHalfOpen()
	if b.State() != BreakerHalfOpen || !b.NeedsProbe() || b.Allow() {
		t.Fatalf("after cooldown: state=%v needsProbe=%v allow=%v",
			b.State(), b.NeedsProbe(), b.Allow())
	}
	b.BeginProbe()
	if b.NeedsProbe() {
		t.Fatal("breaker wants a second probe while one is in flight")
	}
	b.ProbeSucceeded()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatalf("after probe success: state=%v", b.State())
	}
	// History was reset: two failures must not trip again.
	if b.RecordFailure() || b.RecordFailure() {
		t.Fatal("stale failure history survived the close")
	}
}

// TestBreakerProbeFailureReopens: a failed probe re-opens the breaker and
// a later probe can still close it.
func TestBreakerProbeFailureReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{Consecutive: 1, Cooldown: 50})
	if !b.RecordFailure() {
		t.Fatal("single-failure breaker did not trip")
	}
	b.ToHalfOpen()
	b.BeginProbe()
	b.ProbeFailed()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatalf("after probe failure: state=%v allow=%v", b.State(), b.Allow())
	}
	b.ToHalfOpen()
	b.BeginProbe()
	b.ProbeSucceeded()
	if b.State() != BreakerClosed {
		t.Fatalf("second probe did not close the breaker: %v", b.State())
	}
}

// TestBreakerRatioWindow trips on a sliding-window failure ratio only
// after a full window of outcomes.
func TestBreakerRatioWindow(t *testing.T) {
	b := NewBreaker(BreakerConfig{Ratio: 0.5, Window: 4, Cooldown: 10})
	// 3 failures in under a full window: no trip yet.
	if b.RecordFailure() || b.RecordFailure() || b.RecordFailure() {
		t.Fatal("breaker tripped before a full window of outcomes")
	}
	b.RecordSuccess() // window now F F F S: ratio 0.75 ≥ 0.5
	if !b.RecordFailure() {
		t.Fatal("full window at ratio 0.8 did not trip")
	}

	// A mostly-successful stream must never trip.
	b2 := NewBreaker(BreakerConfig{Ratio: 0.5, Window: 4, Cooldown: 10})
	for i := 0; i < 20; i++ {
		b2.RecordSuccess()
		b2.RecordSuccess()
		b2.RecordSuccess()
		if b2.RecordFailure() {
			t.Fatalf("ratio 0.25 stream tripped at i=%d", i)
		}
	}
}

// TestBreakerConfigValidate rejects nonsense configurations.
func TestBreakerConfigValidate(t *testing.T) {
	bad := []BreakerConfig{
		{},                                    // no criterion
		{Consecutive: -1, Cooldown: 1},        // negative threshold
		{Consecutive: 3, Cooldown: 0},         // no cooldown
		{Ratio: 0.5, Cooldown: 1},             // ratio without window
		{Ratio: 1.5, Window: 4, Cooldown: 1},  // ratio > 1
		{Window: 4, Cooldown: 1},              // window without ratio
		{Consecutive: 3, Cooldown: -2},        // negative cooldown
		{Ratio: -0.1, Window: 4, Cooldown: 1}, // negative ratio
	}
	for i, cfg := range bad {
		cfg := cfg
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, cfg)
		}
	}
	good := BreakerConfig{Consecutive: 5, Ratio: 0.5, Window: 20, Cooldown: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	var nilCfg *BreakerConfig
	if err := nilCfg.Validate(); err != nil {
		t.Errorf("nil config rejected: %v", err)
	}
}

// TestTokenBucket checks refill arithmetic and burst clamping.
func TestTokenBucket(t *testing.T) {
	tb, err := NewTokenBucket(2, 3) // 2 tokens/s, burst 3
	if err != nil {
		t.Fatal(err)
	}
	// Starts full: 3 admissions, then empty.
	for i := 0; i < 3; i++ {
		if !tb.Allow(0) {
			t.Fatalf("admission %d refused from a full bucket", i)
		}
	}
	if tb.Allow(0) {
		t.Fatal("empty bucket admitted")
	}
	// 0.25 s refills half a token: still refused.
	if tb.Allow(0.25) {
		t.Fatal("half a token admitted a job")
	}
	// By 0.5 s the bucket holds 1 token (0.5 from the failed attempt at
	// 0.25 plus 0.5 more): one admission, then refused again.
	if !tb.Allow(0.5) || tb.Allow(0.5) {
		t.Fatal("refill arithmetic wrong at t=0.5")
	}
	// A long idle period clamps at the burst: three admissions, then
	// refused.
	for k := 0; k < 3; k++ {
		if !tb.Allow(1e6) {
			t.Fatalf("admission %d after idle refused, want burst 3", k+1)
		}
	}
	if tb.Allow(1e6) {
		t.Fatal("fourth admission after idle accepted, want burst 3")
	}

	for _, bad := range [][2]float64{{0, 3}, {-1, 3}, {2, 0.5}, {2, 0}} {
		if _, err := NewTokenBucket(bad[0], bad[1]); err == nil {
			t.Errorf("NewTokenBucket(%v, %v) accepted", bad[0], bad[1])
		}
	}
}
