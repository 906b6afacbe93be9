package dispatch

import (
	"errors"
	"testing"

	"heterosched/internal/rng"
)

// buildBare constructs one of the paper's three dispatch strategies for
// the lockstep tests. seed names the RNG substream so a bare dispatcher
// and a wrapped replica can share identical randomness.
func buildBare(t *testing.T, name string, fr []float64, seed string) Dispatcher {
	t.Helper()
	switch name {
	case "Random":
		d, err := NewRandom(fr, rng.New(7).Derive(seed))
		if err != nil {
			t.Fatal(err)
		}
		return d
	case "RoundRobin":
		d, err := NewRoundRobin(fr)
		if err != nil {
			t.Fatal(err)
		}
		return d
	case "CyclicWRR":
		d, err := NewCyclicWRR(fr, 100)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	t.Fatalf("unknown dispatcher %s", name)
	return nil
}

// TestShardedK1Lockstep is the sharding-off bit-identity guarantee: a
// Sharded wrapper around a single replica must produce exactly the
// selection sequence of the bare dispatcher, through mask changes and
// rejected masks alike, for all three paper strategies.
func TestShardedK1Lockstep(t *testing.T) {
	fr := []float64{0.35, 0.22, 0.15, 0.28}
	for _, name := range []string{"Random", "RoundRobin", "CyclicWRR"} {
		for _, by := range []ShardBy{ShardRR, ShardHash} {
			bare := buildBare(t, name, fr, "lockstep")
			sh, err := NewSharded(1, by, func(int) (Dispatcher, error) {
				return buildBare(t, name, fr, "lockstep"), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if sh.Name() != bare.Name() {
				t.Errorf("%s/%s: K=1 Name() = %q, want the bare %q", name, by, sh.Name(), bare.Name())
			}
			step := func(phase string, draws int) {
				for i := 0; i < draws; i++ {
					want := bare.Next()
					var got int
					if i%2 == 0 {
						got = sh.Next()
					} else {
						got = sh.NextFor(int64(i * 31))
					}
					if got != want {
						t.Fatalf("%s/%s %s: draw %d: sharded %d, bare %d", name, by, phase, i, got, want)
					}
				}
			}
			step("unmasked", 500)

			mask := []bool{true, false, true, true}
			if err := bare.(Masked).SetUp(mask); err != nil {
				t.Fatal(err)
			}
			if err := sh.SetUp(mask); err != nil {
				t.Fatal(err)
			}
			step("masked", 500)

			if err := sh.SetUp([]bool{false, false, false, false}); !errors.Is(err, ErrNoComputerUp) {
				t.Errorf("%s/%s: SetUp(all-down) = %v, want ErrNoComputerUp", name, by, err)
			}
			step("after rejected mask", 200)

			if err := bare.(Masked).SetUp(nil); err != nil {
				t.Fatal(err)
			}
			if err := sh.SetUp(nil); err != nil {
				t.Fatal(err)
			}
			step("unmasked again", 500)
		}
	}
}

// TestShardedRoundRobinRouting verifies the rr router hands every K-th
// arrival to the same replica and balances the counts exactly.
func TestShardedRoundRobinRouting(t *testing.T) {
	fr := []float64{0.5, 0.5}
	const k = 4
	sh, err := NewSharded(k, ShardRR, func(int) (Dispatcher, error) {
		return NewRoundRobin(fr)
	})
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 4 * 1000
	counts := make([]int, k)
	for i := 0; i < jobs; i++ {
		sh.Next()
		if want := i % k; sh.LastReplica() != want {
			t.Fatalf("job %d routed to replica %d, want %d", i, sh.LastReplica(), want)
		}
		counts[sh.LastReplica()]++
	}
	for r, c := range counts {
		if c != jobs/k {
			t.Errorf("replica %d handled %d jobs, want %d", r, c, jobs/k)
		}
	}
}

// TestShardedHashRouting verifies hash routing is deterministic per job
// ID and spreads sequential IDs roughly evenly (the SplitMix64 mix).
func TestShardedHashRouting(t *testing.T) {
	fr := []float64{0.5, 0.5}
	const k = 8
	build := func() *Sharded {
		sh, err := NewSharded(k, ShardHash, func(int) (Dispatcher, error) {
			return NewRoundRobin(fr)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a, b := build(), build()
	const jobs = 8000
	routesA := make([]int, jobs)
	counts := make([]int, k)
	for id := 0; id < jobs; id++ {
		a.NextFor(int64(id))
		routesA[id] = a.LastReplica()
		counts[routesA[id]]++
	}
	for id := 0; id < jobs; id++ {
		b.NextFor(int64(id))
		if b.LastReplica() != routesA[id] {
			t.Fatalf("job %d routed to %d on one wrapper, %d on another", id, routesA[id], b.LastReplica())
		}
	}
	for r, c := range counts {
		mean := float64(jobs) / k
		if float64(c) < 0.8*mean || float64(c) > 1.2*mean {
			t.Errorf("replica %d handled %d of %d jobs; hash routing badly unbalanced", r, c, jobs)
		}
	}
}

// TestShardedSyncNow drives two RoundRobin replicas apart on skewed
// substreams and verifies a sync round installs the element-wise mean of
// their Algorithm 2 counters on both.
func TestShardedSyncNow(t *testing.T) {
	fr := []float64{0.25, 0.75}
	sh, err := NewSharded(2, ShardRR, func(int) (Dispatcher, error) {
		return NewRoundRobin(fr)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive replica 0 far ahead of replica 1 by dispatching through it
	// directly, so the two counter sets genuinely differ.
	r0 := sh.Replica(0).(*RoundRobin)
	r1 := sh.Replica(1).(*RoundRobin)
	for i := 0; i < 101; i++ {
		r0.Next()
	}
	for i := 0; i < 7; i++ {
		r1.Next()
	}
	a0, n0 := r0.SyncShare()
	a1, n1 := r1.SyncShare()
	if parts := sh.SyncNow(); parts != 2 {
		t.Fatalf("SyncNow() = %d participants, want 2", parts)
	}
	g0a, g0n := r0.SyncShare()
	g1a, g1n := r1.SyncShare()
	for i := range fr {
		wantA := int64((float64(a0[i]) + float64(a1[i])) / 2)
		wantN := (n0[i] + n1[i]) / 2
		if g0a[i] != wantA || g1a[i] != wantA {
			t.Errorf("computer %d: assign after sync %d/%d, want mean %d", i, g0a[i], g1a[i], wantA)
		}
		if g0n[i] != wantN || g1n[i] != wantN {
			t.Errorf("computer %d: next after sync %v/%v, want mean %v", i, g0n[i], g1n[i], wantN)
		}
	}
}

// TestShardedSyncSkipsNonSyncers verifies replicas without exchangeable
// counters (Random, CyclicWRR) never participate, so a sync round over
// them is a no-op.
func TestShardedSyncSkipsNonSyncers(t *testing.T) {
	fr := []float64{0.5, 0.5}
	for _, name := range []string{"Random", "CyclicWRR"} {
		sh, err := NewSharded(2, ShardRR, func(int) (Dispatcher, error) {
			return buildBare(t, name, fr, "nosync"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if parts := sh.SyncNow(); parts != 0 {
			t.Errorf("%s replicas: SyncNow() = %d participants, want 0", name, parts)
		}
	}
}

// TestShardedConstructionErrors covers the replica-count and
// mismatched-width validations.
func TestShardedConstructionErrors(t *testing.T) {
	if _, err := NewSharded(0, ShardRR, func(int) (Dispatcher, error) {
		return NewRoundRobin([]float64{1})
	}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewSharded(2, ShardRR, func(k int) (Dispatcher, error) {
		if k == 0 {
			return NewRoundRobin([]float64{0.5, 0.5})
		}
		return NewRoundRobin([]float64{1})
	}); err == nil {
		t.Error("mismatched replica widths accepted")
	}
	wantErr := errors.New("factory failed")
	if _, err := NewSharded(2, ShardRR, func(int) (Dispatcher, error) {
		return nil, wantErr
	}); !errors.Is(err, wantErr) {
		t.Errorf("factory error not propagated: %v", err)
	}
}

// TestShardedName verifies the K>1 label carries the replica count.
func TestShardedName(t *testing.T) {
	sh, err := NewSharded(4, ShardRR, func(int) (Dispatcher, error) {
		return NewRoundRobin([]float64{0.5, 0.5})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Name() != "RRxK4" {
		t.Errorf("Name() = %q, want RRxK4", sh.Name())
	}
	if sh.K() != 4 || sh.N() != 2 {
		t.Errorf("K()=%d N()=%d, want 4 and 2", sh.K(), sh.N())
	}
}

// TestParseShardBy covers the routing-mnemonic parser.
func TestParseShardBy(t *testing.T) {
	for spec, want := range map[string]ShardBy{"": ShardRR, "rr": ShardRR, "RR": ShardRR, "hash": ShardHash, " Hash ": ShardHash} {
		got, err := ParseShardBy(spec)
		if err != nil || got != want {
			t.Errorf("ParseShardBy(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseShardBy("mod"); err == nil {
		t.Error("ParseShardBy accepted an unknown mnemonic")
	}
}
