package dispatch

import (
	"fmt"
	"strings"
)

// This file adds multi-dispatcher simulation: production front doors run
// K dispatcher replicas, and replicas cannot share Algorithm 2's
// smoothed-RR counters the way the paper's single central scheduler does.
// Sharded owns K independent replica Dispatchers and routes each arriving
// job to one of them; every replica sees only its own substream of
// arrivals and dispatches from private state. An optional counter-sync
// mechanism (Syncer / SyncNow) models dispatchers that periodically
// gossip their Algorithm 2 counters, interpolating between fully
// independent replicas (sync never) and the paper's single shared
// scheduler (K=1, or sync every arrival).

// ShardBy selects how arriving jobs are routed to dispatcher replicas.
type ShardBy int

const (
	// ShardRR routes arrivals to replicas round-robin — an idealized
	// perfectly balanced front door (each replica sees every K-th job).
	ShardRR ShardBy = iota
	// ShardHash routes each job by a hash of its ID — independent
	// per-job load balancing, the realistic model when jobs reach
	// replicas through an L4 balancer with no arrival coordination.
	ShardHash
)

// String returns the routing mnemonic ("rr" or "hash").
func (b ShardBy) String() string {
	switch b {
	case ShardRR:
		return "rr"
	case ShardHash:
		return "hash"
	default:
		return fmt.Sprintf("ShardBy(%d)", int(b))
	}
}

// ParseShardBy parses a routing mnemonic.
func ParseShardBy(s string) (ShardBy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "rr":
		return ShardRR, nil
	case "hash":
		return ShardHash, nil
	}
	return 0, fmt.Errorf("dispatch: unknown shard routing %q (want rr or hash)", s)
}

// Syncer is a Dispatcher whose per-computer counters can be exchanged
// with peer replicas (the periodic counter-sync mechanism). RoundRobin
// implements it; stateless strategies (Random) and strategies whose
// state is meaningless across replicas (CyclicWRR cycle positions) do
// not, and are silently skipped by SyncNow.
type Syncer interface {
	// SyncShare returns copies of the replica's assign and next counters.
	SyncShare() (assign []int64, next []float64)
	// SyncApply overwrites the replica's counters with the synced values.
	SyncApply(assign []int64, next []float64)
}

// SyncShare returns copies of the Algorithm 2 counters, indexed by
// computer. It leaves the dispatcher untouched, so reading the counters
// never changes a later decision.
func (rr *RoundRobin) SyncShare() ([]int64, []float64) {
	assign := make([]int64, len(rr.ent))
	next := make([]float64, len(rr.ent))
	for k := range rr.ent {
		e := &rr.ent[k]
		assign[e.i], next[e.i] = e.assign, rr.counter(e)
	}
	return assign, next
}

// SyncApply installs synced Algorithm 2 counters, stored exactly as given,
// and rebuilds the ring, the far heap and the unstarted queue,
// O(n log n).
func (rr *RoundRobin) SyncApply(assign []int64, next []float64) {
	if len(assign) != len(rr.ent) || len(next) != len(rr.ent) {
		return
	}
	rr.clearRing()
	for i := range rr.ent {
		rr.ent[i] = rrEntry{val: next[i], at: rr.arrivals, assign: assign[i], rrRef: rrRef{i: int32(i)}}
	}
	rr.rebuild()
}

// Sharded is a Dispatcher composed of K replica Dispatchers, each owning
// private state over the arrival substream routed to it. With K=1 every
// decision is delegated to replica 0 untouched, so a Sharded wrapper
// around a single replica is bit-identical to the bare dispatcher (the
// golden-locked equivalence the tests assert).
type Sharded struct {
	replicas []Dispatcher
	by       ShardBy
	rr       uint64
	last     int
}

// NewSharded builds K replicas with the factory and wraps them. The
// factory receives the replica index so it can give each replica its own
// derived random stream (replica 0 conventionally keeps the base stream,
// which is what makes K=1 bit-identical to the unsharded dispatcher).
func NewSharded(k int, by ShardBy, factory func(k int) (Dispatcher, error)) (*Sharded, error) {
	if k < 1 {
		return nil, fmt.Errorf("dispatch: need at least 1 dispatcher replica, got %d", k)
	}
	reps := make([]Dispatcher, k)
	for i := range reps {
		d, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("dispatch: replica %d: %w", i, err)
		}
		reps[i] = d
		if d.N() != reps[0].N() {
			return nil, fmt.Errorf("dispatch: replica %d has %d computers, replica 0 has %d", i, d.N(), reps[0].N())
		}
	}
	return &Sharded{replicas: reps, by: by}, nil
}

// Name returns e.g. "RRxK4" for 4 smoothed-RR replicas.
func (s *Sharded) Name() string {
	if len(s.replicas) == 1 {
		return s.replicas[0].Name()
	}
	return fmt.Sprintf("%sxK%d", s.replicas[0].Name(), len(s.replicas))
}

// N returns the number of computers.
func (s *Sharded) N() int { return s.replicas[0].N() }

// K returns the number of dispatcher replicas.
func (s *Sharded) K() int { return len(s.replicas) }

// Next routes the arrival to the next replica round-robin and delegates
// the decision. Hash routing callers use NextFor instead.
func (s *Sharded) Next() int {
	k := 0
	if len(s.replicas) > 1 {
		k = int(s.rr % uint64(len(s.replicas)))
		s.rr++
	}
	return s.dispatchVia(k)
}

// NextFor routes the arrival by a hash of the job ID (ShardHash) or
// round-robin (ShardRR) and delegates the decision to that replica.
func (s *Sharded) NextFor(jobID int64) int {
	if s.by != ShardHash || len(s.replicas) == 1 {
		return s.Next()
	}
	// SplitMix64 finalizer: jobs IDs are sequential, so the router must
	// mix them before reduction or replica 0 would see every K-th job
	// anyway.
	h := uint64(jobID) * 0x9E3779B97F4A7C15
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return s.dispatchVia(int(h % uint64(len(s.replicas))))
}

func (s *Sharded) dispatchVia(k int) int {
	s.last = k
	return s.replicas[k].Next()
}

// LastReplica returns the replica that made the most recent decision.
func (s *Sharded) LastReplica() int { return s.last }

// Replica exposes replica k (tests and the sync scheduler).
func (s *Sharded) Replica(k int) Dispatcher { return s.replicas[k] }

// SetUp forwards the availability mask to every replica that supports
// masking (all built-in strategies do). The first error is returned;
// replicas before it keep the new mask, consistent with each replica
// being an independent dispatcher that saw the same failure detector
// output.
func (s *Sharded) SetUp(up []bool) error {
	var first error
	for _, r := range s.replicas {
		if m, ok := r.(Masked); ok {
			if err := m.SetUp(up); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// SyncNow performs one counter-sync round: every replica implementing
// Syncer shares its counters, the element-wise means are computed, and
// each participant installs the mean. After a sync all replicas hold the
// same view of the per-computer assignment history — the gossip model of
// dispatchers that periodically exchange Algorithm 2 state. Returns the
// number of replicas that participated.
func (s *Sharded) SyncNow() int {
	var parts []Syncer
	for _, r := range s.replicas {
		if sy, ok := r.(Syncer); ok {
			parts = append(parts, sy)
		}
	}
	if len(parts) < 2 {
		return len(parts)
	}
	var sumA []float64
	var sumN []float64
	for _, sy := range parts {
		a, nx := sy.SyncShare()
		if sumA == nil {
			sumA = make([]float64, len(a))
			sumN = make([]float64, len(nx))
		}
		for i, v := range a {
			sumA[i] += float64(v)
		}
		for i, v := range nx {
			sumN[i] += v
		}
	}
	k := float64(len(parts))
	meanA := make([]int64, len(sumA))
	meanN := make([]float64, len(sumN))
	for i := range sumA {
		meanA[i] = int64(sumA[i] / k)
		meanN[i] = sumN[i] / k
	}
	for _, sy := range parts {
		sy.SyncApply(meanA, meanN)
	}
	return len(parts)
}

// SyncShareOf returns a copy of replica k's counters when it
// participates in counter sync, or ok=false for non-Syncer replicas.
// This is the frame payload for the physical gossip path, where
// replicas exchange state pairwise over faulty links instead of through
// SyncNow's instantaneous all-replica barrier.
func (s *Sharded) SyncShareOf(k int) (assign []int64, next []float64, ok bool) {
	sy, is := s.replicas[k].(Syncer)
	if !is {
		return nil, nil, false
	}
	a, nx := sy.SyncShare()
	return a, nx, true
}

// SyncBlend merges a peer's counters into replica k by element-wise
// mean of the replica's current counters and the frame — the pairwise
// form of SyncNow's all-replica mean. Non-Syncer replicas and
// mismatched frame lengths are ignored.
func (s *Sharded) SyncBlend(k int, assign []int64, next []float64) {
	sy, is := s.replicas[k].(Syncer)
	if !is {
		return
	}
	a, nx := sy.SyncShare()
	if len(assign) != len(a) || len(next) != len(nx) {
		return
	}
	for i := range a {
		a[i] = int64((float64(a[i]) + float64(assign[i])) / 2)
	}
	for i := range nx {
		nx[i] = (nx[i] + next[i]) / 2
	}
	sy.SyncApply(a, nx)
}

var (
	_ Dispatcher = (*Sharded)(nil)
	_ Masked     = (*Sharded)(nil)
	_ Syncer     = (*RoundRobin)(nil)
)
