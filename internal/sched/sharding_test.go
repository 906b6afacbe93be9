package sched

import (
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// fakeState is a mutable queue-state table standing in for the cluster's
// server-backed StateView.
type fakeState []int

func (v fakeState) QueueLen(i int) int { return v[i] }
func (v fakeState) Age(int) float64    { return 0 }
func (v fakeState) N() int             { return len(v) }

// TestStaticShardedK1Lockstep checks the Select-level equivalence for
// all three dispatch kinds: a K=1 sharded Static and an unsharded one
// seeded identically produce the same selection sequence through an
// up-set change.
func TestStaticShardedK1Lockstep(t *testing.T) {
	speeds := []float64{1, 1, 2, 10}
	for _, kind := range []DispatchKind{RandomDispatch, RoundRobinDispatch, CyclicDispatch} {
		bare := ORR()
		bare.Kind = kind
		wrapped := ORR()
		wrapped.Kind = kind
		wrapped.Dispatchers = 1
		wrapped.ShardBy = dispatch.ShardHash
		initStatic(t, bare, speeds, 0.6)
		initStatic(t, wrapped, speeds, 0.6)
		step := func(phase string, n int) {
			for i := 0; i < n; i++ {
				j := &sim.Job{ID: int64(i)}
				if b, w := bare.Select(j), wrapped.Select(j); b != w {
					t.Fatalf("%v %s: job %d: unsharded %d, K=1 sharded %d", kind, phase, i, b, w)
				}
			}
		}
		step("unmasked", 1000)
		up := []bool{true, true, false, true}
		bare.UpSetChanged(up)
		wrapped.UpSetChanged(up)
		step("masked", 1000)
	}
}

// TestStaticShardedRouting exercises K>1: round-robin routing cycles the
// replicas, the name carries the replica count, and hash routing keys on
// the job ID deterministically.
func TestStaticShardedRouting(t *testing.T) {
	speeds := []float64{1, 2, 4}
	s := ORR()
	s.Dispatchers = 3
	initStatic(t, s, speeds, 0.5)
	if got := s.Name(); got != "ORRxK3" {
		t.Errorf("Name() = %q, want ORRxK3", got)
	}
	if s.Shards() != 3 {
		t.Errorf("Shards() = %d, want 3", s.Shards())
	}
	for i := 0; i < 30; i++ {
		s.Select(&sim.Job{ID: int64(i)})
		if want := i % 3; s.LastShard() != want {
			t.Fatalf("job %d landed on replica %d, want %d", i, s.LastShard(), want)
		}
	}

	h1 := ORR()
	h1.Dispatchers = 3
	h1.ShardBy = dispatch.ShardHash
	h2 := ORR()
	h2.Dispatchers = 3
	h2.ShardBy = dispatch.ShardHash
	initStatic(t, h1, speeds, 0.5)
	initStatic(t, h2, speeds, 0.5)
	for i := 0; i < 300; i++ {
		j := &sim.Job{ID: int64(i)}
		h1.Select(j)
		r := h1.LastShard()
		h2.Select(j)
		if h2.LastShard() != r {
			t.Fatalf("job %d hashed to replica %d and %d on identical policies", i, r, h2.LastShard())
		}
	}
}

// TestStaticSyncRounds verifies the periodic counter-sync chain fires
// once per SyncEvery up to the horizon and then terminates, and that
// random-dispatch replicas (no Syncer) never count a round.
func TestStaticSyncRounds(t *testing.T) {
	speeds := []float64{1, 2, 4}
	s := ORR()
	s.Dispatchers = 2
	s.SyncEvery = 10
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		Lambda:      1,
		Mu:          1,
		RNG:         rng.New(1),
		Horizon:     100,
	}
	if err := s.Init(ctx); err != nil {
		t.Fatal(err)
	}
	ctx.Engine.RunUntil(1e9)
	if got := s.Syncs(); got != 10 {
		t.Errorf("Syncs() = %d after the horizon, want 10 (every 10 s up to 100 s)", got)
	}

	ran := WRAN()
	ran.Dispatchers = 2
	ran.SyncEvery = 10
	ctx2 := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		Lambda:      1,
		Mu:          1,
		RNG:         rng.New(1),
		Horizon:     100,
	}
	if err := ran.Init(ctx2); err != nil {
		t.Fatal(err)
	}
	ctx2.Engine.RunUntil(1e9)
	if got := ran.Syncs(); got != 0 {
		t.Errorf("random-dispatch Syncs() = %d, want 0 (no exchangeable counters)", got)
	}
}

// TestScalableNames covers the mnemonic derivation with and without
// replica suffixes.
func TestScalableNames(t *testing.T) {
	for _, c := range []struct {
		p    *Scalable
		want string
	}{
		{JSQd(2), "jsq(2)"},
		{PodSpeed(3), "pod(3):speed"},
		{PodAlpha(2), "pod(2):alpha"},
		{JIQ(), "jiq"},
		{&Scalable{Kind: ScalableJSQ, D: 2, Dispatchers: 4}, "jsq(2)xK4"},
		{&Scalable{Kind: ScalableJIQ, Dispatchers: 16}, "jiqxK16"},
	} {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestScalableJIQTokenFlow initializes a sharded JIQ policy, binds a
// fake state view, and verifies the idle-token seeding, dispatch, and
// Departed re-issue flow across replicas.
func TestScalableJIQTokenFlow(t *testing.T) {
	speeds := []float64{1, 1, 2, 10}
	p := JIQ()
	p.Dispatchers = 2
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		Lambda:      1,
		Mu:          1,
		RNG:         rng.New(1),
	}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	view := make(fakeState, len(speeds))
	p.BindState(view)
	// Every computer starts idle: 4 tokens distributed round-robin over
	// the 2 replicas.
	sh := p.Sharded()
	for k := 0; k < sh.K(); k++ {
		if q := sh.Replica(k).(*dispatch.JIQ); q.IdleTokens() != 2 {
			t.Errorf("replica %d holds %d tokens after seeding, want 2", k, q.IdleTokens())
		}
	}
	// The first 4 dispatches must consume the 4 idle tokens: each
	// computer exactly once.
	seen := make([]bool, len(speeds))
	for i := 0; i < len(speeds); i++ {
		target := p.Select(&sim.Job{ID: int64(i)})
		if seen[target] {
			t.Fatalf("dispatch %d reused computer %d while tokens remained", i, target)
		}
		seen[target] = true
		view[target]++
	}
	// A departure that empties a computer re-issues its token, and the
	// next dispatch uses it.
	view[2] = 0
	p.Departed(&sim.Job{ID: 9, Target: 2})
	if got := p.Select(&sim.Job{ID: 10}); got != 2 {
		t.Errorf("dispatch after idle report went to %d, want token holder 2", got)
	}
	// A departure that leaves work behind must not issue a token.
	view[3] = 2
	p.Departed(&sim.Job{ID: 11, Target: 3})
	for k := 0; k < sh.K(); k++ {
		if q := sh.Replica(k).(*dispatch.JIQ); q.HasToken(3) {
			t.Error("busy computer 3 was issued an idle token")
		}
	}
}

// TestScalableUpSetChanged verifies availability masks reach every
// replica and the all-down edge keeps the previous mask.
func TestScalableUpSetChanged(t *testing.T) {
	speeds := []float64{1, 1, 2, 10}
	p := JSQd(2)
	p.Dispatchers = 2
	ctx := &cluster.Context{
		Engine:      &sim.Engine{},
		Speeds:      speeds,
		Utilization: 0.5,
		Lambda:      1,
		Mu:          1,
		RNG:         rng.New(1),
	}
	if err := p.Init(ctx); err != nil {
		t.Fatal(err)
	}
	view := make(fakeState, len(speeds))
	p.BindState(view)
	mask := []bool{false, true, true, false}
	p.UpSetChanged(mask)
	for i := 0; i < 500; i++ {
		if got := p.Select(&sim.Job{ID: int64(i)}); !mask[got] {
			t.Fatalf("job %d dispatched to down computer %d", i, got)
		}
	}
	// All-down: the previous mask stays in force.
	p.UpSetChanged([]bool{false, false, false, false})
	for i := 0; i < 200; i++ {
		if got := p.Select(&sim.Job{ID: int64(i)}); !mask[got] {
			t.Fatalf("after all-down mask, job %d dispatched to %d outside the kept mask", i, got)
		}
	}
	// All-up clears the mask.
	p.UpSetChanged([]bool{true, true, true, true})
	seen := make(map[int]bool)
	for i := 0; i < 2000; i++ {
		seen[p.Select(&sim.Job{ID: int64(i)})] = true
	}
	if len(seen) != len(speeds) {
		t.Errorf("after clearing the mask only %d of %d computers were used", len(seen), len(speeds))
	}
}

// TestScalableClusterRuns is the end-to-end smoke: every scalable policy
// runs under the real cluster (state bound to live servers) and
// dispatches every generated job, at K=1 and K>1.
func TestScalableClusterRuns(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    5e3,
		Seed:        7,
	}
	for _, mk := range []func() *Scalable{
		func() *Scalable { return JSQd(2) },
		func() *Scalable { return PodSpeed(2) },
		func() *Scalable { return PodAlpha(2) },
		func() *Scalable { return JIQ() },
	} {
		for _, k := range []int{1, 4} {
			p := mk()
			p.Dispatchers = k
			p.ShardBy = dispatch.ShardHash
			res, err := cluster.Run(base, p)
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if res.Jobs == 0 {
				t.Errorf("%s completed no jobs", p.Name())
			}
		}
	}
}
