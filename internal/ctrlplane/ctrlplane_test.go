package ctrlplane

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/netfault"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

func TestConfigEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Fatal("nil config must be disabled")
	}
	if (&Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	cases := []Config{
		{Links: netfault.Links{Link: netfault.Link{Loss: 0.1}}, QueryTO: 5},
		{Lease: 100},
		{QueryTO: 5},
		{Links: netfault.Links{PerLink: map[int]netfault.Link{0: {}}}},
		{Links: netfault.Links{Partitions: []netfault.Partition{{From: 1, To: 2}}}},
		{SyncPartitions: []netfault.Partition{{From: 1, To: 2}}},
	}
	for i, c := range cases {
		if !c.Enabled() {
			t.Errorf("case %d: expected enabled", i)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := &Config{Links: netfault.Links{Link: netfault.Link{Loss: 0.2, Latency: dist.Deterministic{Value: 1}}}, QueryTO: 10, Lease: 50}
	if err := good.Validate(4, 2); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []*Config{
		{Links: netfault.Links{Link: netfault.Link{Loss: 0.2}}},                                                  // lossy without timeout
		{Links: netfault.Links{Partitions: []netfault.Partition{{From: 0, To: 5}}}},                              // partition without timeout
		{Links: netfault.Links{Link: netfault.Link{Loss: 1.5}}, QueryTO: 1},                                      // loss out of range
		{QueryTO: 1, Links: netfault.Links{PerLink: map[int]netfault.Link{9: {}}}},                               // per-link index out of range
		{QueryTO: 1, Links: netfault.Links{Partitions: []netfault.Partition{{From: 5, To: 2}}}},                  // backwards window
		{QueryTO: 1, Links: netfault.Links{Partitions: []netfault.Partition{{From: 0, To: 1, Links: []int{7}}}}}, // link out of range
		{QueryTO: 1, SyncPartitions: []netfault.Partition{{From: 0, To: 1, Links: []int{5}}}},                    // replica out of range
		{Lease: math.Inf(1)},
		{QueryTO: -2},
	}
	for i, c := range bad {
		if err := c.Validate(4, 2); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Replica bound unchecked when the count is unknown.
	unknown := &Config{QueryTO: 1, SyncPartitions: []netfault.Partition{{From: 0, To: 1, Links: []int{5}}}}
	if err := unknown.Validate(4, 0); err != nil {
		t.Fatalf("replicas<=0 must skip the bound check: %v", err)
	}
}

// fixedSource answers every probe with a settable queue length.
type fixedSource struct{ q []int }

func (s *fixedSource) QueueLen(i int) int { return s.q[i] }

func newPlane(t *testing.T, cfg *Config, n int) (*sim.Engine, *Plane, *fixedSource) {
	t.Helper()
	if err := cfg.Validate(n, 2); err != nil {
		t.Fatalf("config: %v", err)
	}
	en := &sim.Engine{}
	p := NewPlane(en, cfg, n, rng.New(42), 1e6)
	p.EnsureReplicas(1)
	src := &fixedSource{q: make([]int, n)}
	p.BindSource(src)
	return en, p, src
}

func TestTokenDeliveryAndLoss(t *testing.T) {
	cfg := &Config{Links: netfault.Links{Link: netfault.Link{Loss: 0.5, Latency: dist.Deterministic{Value: 2}}}, QueryTO: 10}
	en, p, _ := newPlane(t, cfg, 2)
	delivered := 0
	for i := 0; i < 200; i++ {
		p.SendToken(0, func(expiry float64) bool { delivered++; return true })
	}
	en.RunUntil(1e5)
	st := p.Finish()
	if st.TokensSent != 200 {
		t.Fatalf("sent = %d", st.TokensSent)
	}
	if st.TokensDelivered != int64(delivered) {
		t.Fatalf("delivered ledger %d != callback count %d", st.TokensDelivered, delivered)
	}
	if st.TokensLost == 0 || st.TokensDelivered == 0 {
		t.Fatalf("with 50%% loss expected both outcomes, got lost=%d delivered=%d", st.TokensLost, st.TokensDelivered)
	}
	if st.TokensDelivered+st.TokensLost != st.TokensSent+st.TokensDup {
		t.Fatalf("copy ledger broken: delivered=%d lost=%d sent=%d dup=%d",
			st.TokensDelivered, st.TokensLost, st.TokensSent, st.TokensDup)
	}
}

func TestTokenDupAndDedup(t *testing.T) {
	cfg := &Config{Links: netfault.Links{Link: netfault.Link{Dup: 1}}, Lease: 0, QueryTO: 0}
	en, p, _ := newPlane(t, cfg, 1)
	has := false
	p.SendToken(0, func(expiry float64) bool {
		if has {
			return false
		}
		has = true
		return true
	})
	en.RunUntil(10)
	st := p.Finish()
	if st.TokensDup != 1 || st.TokensDelivered != 2 {
		t.Fatalf("dup=%d delivered=%d, want 1/2", st.TokensDup, st.TokensDelivered)
	}
	if st.TokensAccepted != 1 || st.TokensDeduped != 1 {
		t.Fatalf("accepted=%d deduped=%d, want exactly-once 1/1", st.TokensAccepted, st.TokensDeduped)
	}
}

func TestTokenLeaseExpiryStamp(t *testing.T) {
	cfg := &Config{Links: netfault.Links{Link: netfault.Link{Latency: dist.Deterministic{Value: 3}}}, Lease: 100}
	en, p, _ := newPlane(t, cfg, 1)
	var gotExpiry float64
	p.SendToken(0, func(expiry float64) bool { gotExpiry = expiry; return true })
	en.RunUntil(10)
	if gotExpiry != 103 {
		t.Fatalf("expiry = %g, want delivery(3) + lease(100) = 103", gotExpiry)
	}
}

func TestTokenPartitionBlocksSend(t *testing.T) {
	cfg := &Config{QueryTO: 5, Links: netfault.Links{Partitions: []netfault.Partition{{From: 0, To: 10, Links: []int{0}}}}}
	en, p, _ := newPlane(t, cfg, 2)
	p.SendToken(0, func(float64) bool { t.Fatal("token crossed a cut link"); return false })
	ok := false
	p.SendToken(1, func(float64) bool { ok = true; return true })
	en.RunUntil(1)
	if !ok {
		t.Fatal("uncut link must deliver")
	}
	if st := p.Finish(); st.TokensLost != 1 {
		t.Fatalf("lost = %d, want 1 (blocked send)", st.TokensLost)
	}
}

func TestQueryFreshInTime(t *testing.T) {
	cfg := &Config{Links: netfault.Links{Link: netfault.Link{Latency: dist.Deterministic{Value: 1}}}, QueryTO: 10}
	en, p, src := newPlane(t, cfg, 2)
	src.q[1] = 7
	v := p.View(0)
	p.BeginDecision()
	if got := v.QueueLen(1); got != 7 {
		t.Fatalf("fresh probe = %d, want 7", got)
	}
	w := p.EndDecision(0)
	if w != 2 {
		t.Fatalf("decision wait = %g, want rtt 2", w)
	}
	if a := v.Age(1); a != 0 {
		t.Fatalf("age after fresh probe = %g, want 0", a)
	}
	_ = en
}

func TestQueryFallbackToCacheAndBlind(t *testing.T) {
	// Partition window [5,20) cuts link 0: probes fall back to cache.
	cfg := &Config{
		QueryTO: 4,
		Links:   netfault.Links{Partitions: []netfault.Partition{{From: 5, To: 20, Links: []int{0}}}},
	}
	en, p, src := newPlane(t, cfg, 2)
	src.q[0] = 3
	src.q[1] = 1
	v := p.View(0)

	p.BeginDecision()
	if got := v.QueueLen(0); got != 3 {
		t.Fatalf("pre-partition probe = %d, want 3", got)
	}
	if w := p.EndDecision(0); w != 0 {
		t.Fatalf("zero-latency in-time probe must cost 0, got %g", w)
	}

	en.AdvanceTo(10)
	src.q[0] = 99 // true state changed behind the partition
	p.BeginDecision()
	if got := v.QueueLen(0); got != 3 {
		t.Fatalf("cached probe = %d, want stale 3", got)
	}
	if a := v.Age(0); a != 10 {
		t.Fatalf("cache age = %g, want 10", a)
	}
	if w := p.EndDecision(0); w != 4 {
		t.Fatalf("degraded decision must wait out the timeout, got %g", w)
	}

	// Computer 1 was never observed: blind read.
	p.BeginDecision()
	_ = v.QueueLen(0) // cached again
	if got := v.QueueLen(1); got != 1 {
		// Link 1 is not cut, so this probe succeeds; force blindness
		// via a full partition instead.
		t.Fatalf("uncut probe = %d, want live 1", got)
	}
	p.EndDecision(0)

	st := p.Finish()
	if st.StaleReads < 2 || st.BlindReads != 0 {
		t.Fatalf("stale=%d blind=%d", st.StaleReads, st.BlindReads)
	}
	if st.DecisionTimeouts == 0 {
		t.Fatal("expected a decision timeout")
	}
	_ = src
}

func TestQueryBlindRead(t *testing.T) {
	cfg := &Config{QueryTO: 2, Links: netfault.Links{Partitions: []netfault.Partition{{From: 0, To: 100}}}}
	en, p, _ := newPlane(t, cfg, 2)
	v := p.View(0)
	p.BeginDecision()
	if got := v.QueueLen(0); got != UnknownQueueLen {
		t.Fatalf("never-observed probe = %d, want UnknownQueueLen", got)
	}
	if !math.IsInf(v.Age(0), 1) {
		t.Fatal("never-observed age must be +Inf")
	}
	p.EndDecision(0)
	if st := p.Finish(); st.BlindReads != 1 {
		t.Fatalf("blind = %d", st.BlindReads)
	}
	_ = en
}

func TestQueryLateRefreshesCache(t *testing.T) {
	// RTT 6 > timeout 4: decision uses cache (blind here), reply lands
	// at +6 and refreshes the cache for the next decision.
	cfg := &Config{Links: netfault.Links{Link: netfault.Link{Latency: dist.Deterministic{Value: 3}}}, QueryTO: 4}
	en, p, src := newPlane(t, cfg, 1)
	src.q[0] = 5
	v := p.View(0)
	p.BeginDecision()
	if got := v.QueueLen(0); got != UnknownQueueLen {
		t.Fatalf("late probe must fall back, got %d", got)
	}
	if w := p.EndDecision(0); w != 4 {
		t.Fatalf("late decision wait = %g, want timeout 4", w)
	}
	en.RunUntil(10)
	p.BeginDecision()
	got := v.QueueLen(0) // another late probe; cache now holds 5
	if got != 5 {
		t.Fatalf("cache after late refresh = %d, want 5", got)
	}
	p.EndDecision(0)
	st := p.Finish()
	if st.QueriesLate != 2 {
		t.Fatalf("late = %d, want 2", st.QueriesLate)
	}
}

func TestSyncVersioningAndPartition(t *testing.T) {
	cfg := &Config{
		Links:          netfault.Links{Link: netfault.Link{Latency: dist.Deterministic{Value: 1}}},
		QueryTO:        5,
		SyncPartitions: []netfault.Partition{{From: 10, To: 20, Links: []int{1}}},
	}
	en, p, _ := newPlane(t, cfg, 2)
	p.EnsureReplicas(2)
	got := 0
	send := func() { p.SendSync(0, 1, func() { got++ }) }
	send()
	en.RunUntil(5)
	if got != 1 {
		t.Fatalf("pre-partition frame lost, got %d", got)
	}
	en.AdvanceTo(15)
	send() // receiver isolated
	en.RunUntil(18)
	if got != 1 {
		t.Fatal("frame crossed a sync partition")
	}
	en.AdvanceTo(25)
	send()
	en.RunUntil(30)
	if got != 2 {
		t.Fatalf("post-partition frame lost, got %d", got)
	}
	st := p.Finish()
	if st.SyncSent != 3 || st.SyncLost != 1 || st.SyncDelivered != 2 {
		t.Fatalf("sync ledger sent=%d lost=%d delivered=%d", st.SyncSent, st.SyncLost, st.SyncDelivered)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		cfg := &Config{Links: netfault.Links{Link: netfault.Link{Loss: 0.3, Dup: 0.2, Latency: dist.Exponential{MeanVal: 2}}}, QueryTO: 6, Lease: 40}
		en := &sim.Engine{}
		p := NewPlane(en, cfg, 3, rng.New(7), 1e6)
		p.EnsureReplicas(2)
		src := &fixedSource{q: []int{1, 2, 3}}
		p.BindSource(src)
		v0, v1 := p.View(0), p.View(1)
		for i := 0; i < 50; i++ {
			p.SendToken(i%3, func(float64) bool { return i%2 == 0 })
			p.BeginDecision()
			v0.QueueLen(i % 3)
			p.EndDecision(0)
			p.BeginDecision()
			v1.QueueLen((i + 1) % 3)
			p.EndDecision(0)
			p.SendSync(0, 1, func() {})
			en.RunUntil(float64(i))
		}
		en.RunUntil(1e4)
		return *p.Finish()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}

// TestDrawsFollowLinkRule pins the control plane to netfault's draw
// rule: token reports and queue-length probes consume exactly the draws
// Link.Copies and Link.Transit make on a same-seed stream, including a
// probe's reply leg, which rolls only when the request arrived. Tokens
// land at their transit latency; an in-time probe charges its
// round-trip.
func TestDrawsFollowLinkRule(t *testing.T) {
	l := netfault.Link{Loss: 0.3, Dup: 0.3, Latency: dist.Exponential{MeanVal: 2}}
	cfg := &Config{Links: netfault.Links{Link: l}, QueryTO: 1e9, Lease: 50}
	en, p, src := newPlane(t, cfg, 1)
	src.q[0] = 4
	ref := rng.New(42).DeriveIndexed("ctrl.link", 0)
	v := p.View(0)
	for k := 0; k < 300; k++ {
		var want, got []float64
		copies := l.Copies(ref)
		for c := 0; c < copies; c++ {
			if lat, ok := l.Transit(ref); ok {
				want = append(want, en.Now()+lat+cfg.Lease)
			}
		}
		p.SendToken(0, func(expiry float64) bool { got = append(got, expiry); return true })
		en.RunUntil(math.Inf(1))
		sort.Float64s(got)
		sort.Float64s(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("token %d: delivered expiries %v, want %v", k, got, want)
		}

		wantWait, ok := l.Transit(ref)
		if ok {
			var rep float64
			rep, ok = l.Transit(ref)
			wantWait += rep
		}
		if !ok {
			wantWait = cfg.QueryTO
		}
		lostBefore := p.stats.QueriesLost
		p.BeginDecision()
		v.QueueLen(0)
		if wait := p.EndDecision(0); wait != wantWait || (p.stats.QueriesLost == lostBefore) != ok {
			t.Fatalf("probe %d: wait %g lost %v, want wait %g lost %v", k, wait, p.stats.QueriesLost != lostBefore, wantWait, !ok)
		}
		if p.linkSt[0].State() != ref.State() {
			t.Fatalf("step %d: plane and reference streams diverged", k)
		}
	}
}
