package sched

import (
	"fmt"
	"math"
	"slices"
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

// TestStaticShardedK1Lockstep pins the K = 1 equivalence: Static
// dispatches through a one-replica dispatch.Sharded, and for every
// dispatch kind, routing and realloc mode its selections equal those of
// the bare dispatcher built from the same fractions and the same derived
// "dispatch" stream, through a failure, a replan and a repair.
func TestStaticShardedK1Lockstep(t *testing.T) {
	speeds := []float64{1, 1, 2, 10}
	down := []bool{true, true, false, true}
	for _, kind := range []DispatchKind{RandomDispatch, RoundRobinDispatch, CyclicDispatch} {
		for _, by := range []dispatch.ShardBy{dispatch.ShardRR, dispatch.ShardHash} {
			for _, realloc := range []ReallocMode{ReallocStale, ReallocResolve} {
				name := fmt.Sprintf("%v/%v/%v", kind, by, realloc)
				p := ORR()
				p.Kind, p.ShardBy, p.Realloc = kind, by, realloc
				ctx := initStatic(t, p, speeds, 0.6)
				if p.sharded.K() != 1 {
					t.Fatalf("%s: %d replicas, want 1", name, p.sharded.K())
				}
				// The bare dispatcher keeps its stream across rebuilds, as
				// the policy keeps replica 0's.
				stream := ctx.RNG.Derive("dispatch")
				build := func(fr []float64) dispatch.Masked {
					t.Helper()
					var d dispatch.Masked
					var err error
					switch kind {
					case RandomDispatch:
						d, err = dispatch.NewRandom(fr, stream)
					case RoundRobinDispatch:
						d, err = dispatch.NewRoundRobin(fr)
					case CyclicDispatch:
						d, err = dispatch.NewCyclicWRR(fr, 1000)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return d
				}
				bare := build(p.Fractions())
				next := 0
				step := func(phase string) {
					for end := next + 1000; next < end; next++ {
						if w, b := p.Select(&sim.Job{ID: int64(next)}), bare.Next(); w != b {
							t.Fatalf("%s %s: job %d: K=1 Static %d, bare dispatcher %d", name, phase, next, w, b)
						}
					}
				}
				// Under resolve the policy rebuilds on every up-set change;
				// the bare side follows from the policy's new fractions.
				change := func(up []bool) {
					p.UpSetChanged(up)
					if realloc == ReallocResolve {
						bare = build(p.Fractions())
					}
					mask := up
					if !slices.Contains(up, false) {
						mask = nil
					}
					if err := bare.SetUp(mask); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				step("unmasked")
				change(down)
				step("masked")
				// A replan rebuilds the dispatcher and must mask it again.
				if err := p.Replan(speeds, 0.6); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				bare = build(p.Fractions())
				if err := bare.SetUp(down); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				step("replanned")
				change([]bool{true, true, true, true})
				step("repaired")
				if p.LastShard() != 0 {
					t.Errorf("%s: last decision by replica %d, want 0", name, p.LastShard())
				}
			}
		}
	}
}

// TestStaticInitForgetsMask: a Static value reused across runs starts
// each run unmasked. Replan masks the rebuilt dispatcher with the last
// known up-set, so a mask left over from the previous run would keep
// computer 2, up in this run, out of every decision.
func TestStaticInitForgetsMask(t *testing.T) {
	speeds := []float64{1, 1, 2, 10}
	p := ORR()
	initStatic(t, p, speeds, 0.6)
	p.UpSetChanged([]bool{true, true, false, true})
	initStatic(t, p, speeds, 0.6)
	if err := p.Replan(speeds, 0.6); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	got := 0
	for i := 0; i < n; i++ {
		if p.Select(&sim.Job{ID: int64(i)}) == 2 {
			got++
		}
	}
	want := p.Fractions()[2]
	if share := float64(got) / n; math.Abs(share-want) > 0.01 {
		t.Errorf("computer 2 took %d of %d jobs (%.3f), want its planned fraction %.3f", got, n, share, want)
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
// random-dispatch replicas (no Syncer) have no counters to exchange.
// Before each 10 s tick replica 0 decides alone, so the two replicas'
// counters differ; a round aligns them.
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
	sh := s.sharded
	rounds := 0
	for tick := 10.0; tick <= 200; tick += 10 {
		sh.Replica(0).Next()
		ctx.Engine.RunUntil(tick)
		a0, n0, _ := sh.SyncShareOf(0)
		a1, n1, _ := sh.SyncShareOf(1)
		if slices.Equal(a0, a1) && slices.Equal(n0, n1) {
			rounds++
		}
	}
	if rounds != 10 {
		t.Errorf("%d sync rounds up to t = 200, want 10 (every 10 s up to 100 s)", rounds)
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
	if _, _, ok := ran.sharded.SyncShareOf(0); ok {
		t.Error("random-dispatch replica exposes counters to sync")
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
	sh := p.sharded
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
