package sched

import (
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/dispatch"
	"heterosched/internal/netfault"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
)

// TestScalableJIQRepairReissue is the failure×repair×jiq regression:
// a computer that goes down holding no work loses its idle token
// (discarded at pop while masked), and before the fix nothing minted a
// new one on repair — the computer sat idle until a fallback dispatch
// happened to land there. UpSetChanged must re-issue exactly one token
// to a repaired computer that is idle and unrepresented, and must not
// mint tokens for repaired computers that come back busy or still hold
// one.
func TestScalableJIQRepairReissue(t *testing.T) {
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
	sh := p.sharded

	// Take computer 2 down and burn through every token: the masked pop
	// discards 2's token instead of dispatching to it.
	p.UpSetChanged([]bool{true, true, false, true})
	for i := 0; i < len(speeds); i++ {
		target := p.Select(&sim.Job{ID: int64(i)})
		if target == 2 {
			t.Fatalf("dispatch %d reached down computer 2", i)
		}
		view[target]++
	}
	for k := 0; k < sh.K(); k++ {
		if sh.Replica(k).(*dispatch.JIQ).HasToken(2) {
			t.Fatal("down computer 2 still holds a token after the pops")
		}
	}

	// Repair with 2 idle (all-up arrives as a nil mask inside SetUp —
	// the transition the per-replica re-issue missed): exactly one
	// token comes back.
	p.UpSetChanged([]bool{true, true, true, true})
	tokens := 0
	for k := 0; k < sh.K(); k++ {
		if sh.Replica(k).(*dispatch.JIQ).HasToken(2) {
			tokens++
		}
	}
	if tokens != 1 {
		t.Fatalf("repaired idle computer 2 holds %d tokens, want exactly 1", tokens)
	}

	// Fail and repair again, but this time 2 comes back busy: no token.
	p.UpSetChanged([]bool{true, true, false, true})
	for i := 10; i < 14; i++ {
		view[p.Select(&sim.Job{ID: int64(i)})]++
	}
	view[2] = 3
	p.UpSetChanged([]bool{true, true, true, true})
	for k := 0; k < sh.K(); k++ {
		if sh.Replica(k).(*dispatch.JIQ).HasToken(2) {
			t.Fatal("busy repaired computer 2 was issued an idle token")
		}
	}
}

// TestStaticSyncPartitionLockstep pins the partitioned-replica
// degradation semantics: when a sync partition blocks every frame for
// the whole horizon, the replicas run on private state only, and the
// paper metrics are bit-identical to the same policy with counter-sync
// disabled — the partition degrades to exactly the no-sync engine, it
// does not half-apply anything. The ctrl ledger confirms every frame
// was sent and none applied.
func TestStaticSyncPartitionLockstep(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    1e4,
		Seed:        11,
	}
	mk := func(syncEvery float64) *Static {
		s := ORR()
		s.Dispatchers = 2
		s.ShardBy = dispatch.ShardHash
		s.SyncEvery = syncEvery
		return s
	}

	part := base
	part.Ctrl = &ctrlplane.Config{
		SyncPartitions: []netfault.Partition{{From: 0, To: 2e4}}, // covers the horizon
		QueryTO:        1,                                        // partitions make the plane lossy
	}
	pRes, err := cluster.Run(part, mk(50))
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := cluster.Run(base, mk(0)) // sync disabled, ctrl off
	if err != nil {
		t.Fatal(err)
	}
	if pRes.MeanResponseTime != nRes.MeanResponseTime || pRes.MeanResponseRatio != nRes.MeanResponseRatio ||
		pRes.Fairness != nRes.Fairness || pRes.Jobs != nRes.Jobs {
		t.Errorf("fully partitioned sync is not in lockstep with sync disabled:\n partitioned time=%.17g ratio=%.17g jobs=%d\n no-sync     time=%.17g ratio=%.17g jobs=%d",
			pRes.MeanResponseTime, pRes.MeanResponseRatio, pRes.Jobs,
			nRes.MeanResponseTime, nRes.MeanResponseRatio, nRes.Jobs)
	}
	cs := pRes.Ctrl
	if cs == nil {
		t.Fatal("partitioned run carries no ctrl ledger")
	}
	if cs.SyncSent == 0 || cs.SyncLost != cs.SyncSent || cs.SyncApplied != 0 || cs.SyncDelivered != 0 {
		t.Errorf("full-horizon partition ledger: sent=%d lost=%d delivered=%d applied=%d, want every frame sent and lost",
			cs.SyncSent, cs.SyncLost, cs.SyncDelivered, cs.SyncApplied)
	}
}

// TestStaticSyncMonotonicRejoin drives a partial sync partition with
// frame duplication: after the window the replicas rejoin and fresh
// frames apply, while every duplicated copy is rejected by the
// per-sender version check — the receiver's accepted version only
// moves forward. Delivered frames are exactly applied + stale.
func TestStaticSyncMonotonicRejoin(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.6,
		Duration:    1e4,
		Seed:        11,
	}
	base.Ctrl = &ctrlplane.Config{
		Links:          netfault.Links{Link: netfault.Link{Dup: 1}}, // every frame ships a duplicate copy
		SyncPartitions: []netfault.Partition{{From: 2e3, To: 6e3}},
		QueryTO:        1,
	}
	s := ORR()
	s.Dispatchers = 2
	s.ShardBy = dispatch.ShardHash
	s.SyncEvery = 50
	res, err := cluster.Run(base, s)
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Ctrl
	if cs == nil {
		t.Fatal("run carries no ctrl ledger")
	}
	if cs.SyncLost == 0 {
		t.Error("the partition window blocked no frames")
	}
	if cs.SyncApplied == 0 {
		t.Error("no frames applied outside the window: the replicas never rejoined")
	}
	if cs.SyncStale == 0 {
		t.Error("duplicated frames were never rejected: the version check is not monotonic")
	}
	if cs.SyncDelivered != cs.SyncApplied+cs.SyncStale {
		t.Errorf("sync ledger leak: delivered=%d != applied=%d + stale=%d",
			cs.SyncDelivered, cs.SyncApplied, cs.SyncStale)
	}
}
