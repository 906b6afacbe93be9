// Package netfault models an unreliable control plane between the
// dispatcher and the computers: per-link dispatch latency, loss and
// duplication; network partitions that cut a subset of links; and
// dispatcher crash/restart as a renewal process with configurable
// handling of arrivals during downtime and of the Algorithm 2 state lost
// by a restart.
//
// The paper (§2.2) assumes a central scheduler that routes every job
// instantly and losslessly. This package supplies the configuration for
// relaxing that assumption deterministically: all randomness is drawn
// from named substreams of the run's root seed ("netfault.link.<i>" for
// link i, "netfault.dispatcher" for the crash renewal process), derived
// only when the layer is enabled, so netfault-off runs remain
// bit-identical to the unmodified engine. The runtime that interprets
// this configuration lives in internal/cluster.
//
// The faulty-link model itself — Link with its draw rule (Copies,
// Transit) and Links with its overrides and partition windows — is
// shared with internal/ctrlplane, whose control messages cross links of
// the same kind.
package netfault

import (
	"errors"
	"fmt"
	"sort"

	"heterosched/internal/dist"
	"heterosched/internal/rng"
)

// Link is the fault model for one link. The zero value is a perfect
// link: zero latency, no loss, no duplication.
type Link struct {
	// Latency is the one-way transit delay distribution of every copy
	// (dispatch messages, acks and control messages alike). Nil means
	// instantaneous delivery.
	Latency dist.Distribution
	// Loss is the probability that one transmitted copy silently
	// vanishes in transit.
	Loss float64
	// Dup is the probability that a message is duplicated in transit
	// and delivered twice (each copy subject to Loss and Latency
	// independently).
	Dup float64
}

func (l Link) perfect() bool { return l.Latency == nil && l.Loss == 0 && l.Dup == 0 }

// Copies rolls one message's duplication: 2 copies with probability
// Dup, else 1. It draws from st only when Dup > 0.
func (l Link) Copies(st *rng.Stream) int {
	if l.Dup > 0 && st.Float64() < l.Dup {
		return 2
	}
	return 1
}

// Transit rolls one copy's fate: loss first (a draw only when Loss > 0),
// then, only for a copy that survives, its latency (a draw only when
// Latency is set), clamped at 0. ok is false for a lost copy.
func (l Link) Transit(st *rng.Stream) (delay float64, ok bool) {
	if l.Loss > 0 && st.Float64() < l.Loss {
		return 0, false
	}
	if l.Latency != nil {
		if d := l.Latency.Sample(st); d > 0 {
			return d, true
		}
	}
	return 0, true
}

func (l Link) validate(name string) error {
	if l.Loss < 0 || l.Loss >= 1 {
		return fmt.Errorf("netfault: %s loss probability %g outside [0,1)", name, l.Loss)
	}
	if l.Dup < 0 || l.Dup > 1 {
		return fmt.Errorf("netfault: %s duplication probability %g outside [0,1]", name, l.Dup)
	}
	if l.Latency != nil && l.Latency.Mean() < 0 {
		return fmt.Errorf("netfault: %s latency mean %g is negative", name, l.Latency.Mean())
	}
	return nil
}

// Partition is one deterministic network-partition window: the listed
// links are cut (sends blocked, transit copies still in flight are
// unaffected) from From until To.
type Partition struct {
	From, To float64
	// Links are the computer indices whose links are cut. Empty means
	// every link: a full partition isolating the dispatcher.
	Links []int
}

// Links is the faulty-link model of one message layer: a default link,
// per-computer overrides and partition windows. Config embeds it for
// dispatch messages and ctrlplane.Config for control messages.
type Links struct {
	// Link is the default fault model applied to every link.
	Link Link
	// PerLink overrides the default model for specific computer indices.
	PerLink map[int]Link
	// Partitions are deterministic link-cut windows.
	Partitions []Partition
}

// Active reports whether any link is imperfect or any partition window
// is set.
func (ls *Links) Active() bool {
	return !ls.Link.perfect() || len(ls.PerLink) > 0 || len(ls.Partitions) > 0
}

// LinkFor returns the resolved fault model for link i.
func (ls *Links) LinkFor(i int) Link {
	if l, ok := ls.PerLink[i]; ok {
		return l
	}
	return ls.Link
}

// Lossy reports whether any of the first computers links can lose or
// block a message: a positive loss probability, or any partition window.
func (ls *Links) Lossy(computers int) bool {
	if len(ls.Partitions) > 0 {
		return true
	}
	for i := 0; i < computers; i++ {
		if ls.LinkFor(i).Loss > 0 {
			return true
		}
	}
	return false
}

// ValidateLinks checks the link models, the override indices and the
// partition windows against a cluster of the given size. kind names the
// links in errors ("link", "control link").
func (ls *Links) ValidateLinks(computers int, kind string) error {
	if err := ls.Link.validate("default " + kind); err != nil {
		return err
	}
	idxs := make([]int, 0, len(ls.PerLink))
	for i := range ls.PerLink {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		if i < 0 || i >= computers {
			return fmt.Errorf("netfault: per-link override for computer %d outside [0,%d)", i, computers)
		}
		if err := ls.PerLink[i].validate(fmt.Sprintf("%s %d", kind, i)); err != nil {
			return err
		}
	}
	return ValidatePartitions(ls.Partitions, computers, kind)
}

// ValidatePartitions checks that every window is a forward interval
// cutting indices in [0,n); n <= 0 checks only that indices are
// non-negative. kind names the cut entities in errors.
func ValidatePartitions(parts []Partition, n int, kind string) error {
	for k, p := range parts {
		if p.From < 0 || p.To <= p.From {
			return fmt.Errorf("netfault: %s partition %d window [%g,%g) is not a forward interval", kind, k, p.From, p.To)
		}
		for _, i := range p.Links {
			if i < 0 || (n > 0 && i >= n) {
				return fmt.Errorf("netfault: %s partition %d cuts %s %d outside [0,%d)", kind, k, kind, i, n)
			}
		}
	}
	return nil
}

// DownPolicy selects what happens to jobs arriving while the dispatcher
// is down.
type DownPolicy int

const (
	// DownDrop rejects arrivals during downtime outright; they finalize
	// with OutcomeDroppedDispatcher.
	DownDrop DownPolicy = iota
	// DownBuffer queues arrivals (up to BufferCap) in arrival order and
	// flushes them through the dispatcher at restart; overflow drops.
	DownBuffer
	// DownFailover routes arrivals through a stateless backup router that
	// weighted-round-robins over the reachable links. The backup tracks no
	// acks; jobs it loses are recovered by the client timeout.
	DownFailover
)

func (p DownPolicy) String() string {
	switch p {
	case DownDrop:
		return "drop"
	case DownBuffer:
		return "buffer"
	case DownFailover:
		return "failover"
	}
	return fmt.Sprintf("DownPolicy(%d)", int(p))
}

// ParseDownPolicy parses a DownPolicy wire name.
func ParseDownPolicy(s string) (DownPolicy, error) {
	switch s {
	case "drop":
		return DownDrop, nil
	case "buffer":
		return DownBuffer, nil
	case "failover":
		return DownFailover, nil
	}
	return 0, fmt.Errorf("netfault: unknown down policy %q (want drop, buffer or failover)", s)
}

// Recovery selects how a restarted dispatcher recovers the Algorithm 2
// dispatch state (the smoothed-RR plan and counters) lost in the crash.
type Recovery int

const (
	// RecoverAcks reconstructs the dispatch state from computer-side
	// acknowledgements: the restarted dispatcher resumes with the plan and
	// counters intact (modulo the unacked window, which is resubmitted).
	RecoverAcks Recovery = iota
	// RecoverCheckpoint restores the plan from the last periodic
	// checkpoint (period CheckpointDT). Dispatches sent after the
	// checkpoint are forgotten and fall back to the client timeout.
	RecoverCheckpoint
	// RecoverCold restarts with no memory: the dispatcher falls back to a
	// speed-proportional split (ReplanProportional) until it has observed
	// load for RelearnT seconds, then re-solves the optimized plan. All
	// outstanding dispatches are forgotten and fall back to the client
	// timeout.
	RecoverCold
)

func (r Recovery) String() string {
	switch r {
	case RecoverAcks:
		return "acks"
	case RecoverCheckpoint:
		return "checkpoint"
	case RecoverCold:
		return "cold"
	}
	return fmt.Sprintf("Recovery(%d)", int(r))
}

// Dispatcher configures the dispatcher crash/restart renewal process.
type Dispatcher struct {
	// Uptime and Downtime are the dwell-time distributions of the
	// alternating up/down renewal process. Both are required.
	Uptime, Downtime dist.Distribution
	// Down selects the fate of arrivals during downtime.
	Down DownPolicy
	// BufferCap bounds the DownBuffer queue; arrivals beyond it drop.
	// Ignored for other down policies. Zero means DefaultBufferCap.
	BufferCap int
	// Recovery selects how the restarted dispatcher recovers its state.
	Recovery Recovery
	// CheckpointDT is the checkpoint period for RecoverCheckpoint. Zero
	// means DefaultCheckpointDT.
	CheckpointDT float64
	// RelearnT is the cold-reset relearning window: time after a cold
	// restart during which the dispatcher runs the speed-proportional
	// fallback plan before re-solving the optimized allocation. Zero
	// means DefaultRelearnT.
	RelearnT float64
	// ClientTO is the client resubmission timeout: a job whose dispatch
	// record was forgotten by a restart (or routed by the stateless
	// failover backup and lost) is resubmitted by its client this long
	// after its arrival if no computer has accepted it by then. Zero
	// means DefaultClientTO.
	ClientTO float64
}

// Ack configures the end-to-end reliability loop: every dispatch carries
// an idempotency key (the job ID), the computer acks acceptance, and the
// dispatcher resubmits after Timeout with truncated-exponential backoff.
// Duplicate deliveries are deduplicated at the computer, preserving
// exactly-once terminal accounting.
type Ack struct {
	// Timeout is the ack deadline after a send; zero disables ack
	// tracking entirely (only safe on loss-free, partition-free networks).
	Timeout float64
	// Budget is the maximum number of resubmissions per job before the
	// dispatcher gives up; an unaccepted job finalizes as
	// OutcomeLostNetwork. Zero means DefaultAckBudget.
	Budget int
	// BackoffBase and BackoffMax bound the truncated-exponential backoff
	// before each resubmission: min(Base·2^(k−1), Max) for the k-th
	// resubmit. Zeros mean DefaultBackoffBase / DefaultBackoffMax.
	BackoffBase, BackoffMax float64
	// Jitter is the ± relative jitter applied to each backoff delay,
	// derived from a hash of (job ID, resubmit count) so no RNG stream is
	// consumed. Must be in [0,1].
	Jitter float64
}

// Defaults applied by Config.Validate via withDefaults.
const (
	DefaultBufferCap    = 1024
	DefaultCheckpointDT = 2500.0
	DefaultRelearnT     = 4000.0
	DefaultClientTO     = 600.0
	DefaultAckBudget    = 4
	DefaultBackoffBase  = 5.0
	DefaultBackoffMax   = 60.0
)

// Config is the complete control-plane fault specification. The zero
// value (and nil) disables the layer entirely: no substreams are derived,
// no events are scheduled, and runs are bit-identical to the unmodified
// engine.
type Config struct {
	// Links is the dispatch-link model: default link, per-link
	// overrides and partition windows.
	Links
	// Dispatcher enables the crash/restart renewal process; nil disables.
	Dispatcher *Dispatcher
	// Ack configures the dispatch/ack reliability loop.
	Ack Ack
}

// Enabled reports whether any part of the fault layer is active. A nil
// or zero-valued Config is inert.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.Active() || c.Dispatcher != nil || c.Ack.Timeout > 0
}

// withDefaults fills zero fields of the dispatcher and ack configs.
// Called by Validate; safe on an already-defaulted config.
func (c *Config) withDefaults() {
	if d := c.Dispatcher; d != nil {
		if d.BufferCap == 0 {
			d.BufferCap = DefaultBufferCap
		}
		if d.CheckpointDT == 0 {
			d.CheckpointDT = DefaultCheckpointDT
		}
		if d.RelearnT == 0 {
			d.RelearnT = DefaultRelearnT
		}
		if d.ClientTO == 0 {
			d.ClientTO = DefaultClientTO
		}
	}
	if c.Ack.Timeout > 0 {
		if c.Ack.Budget == 0 {
			c.Ack.Budget = DefaultAckBudget
		}
		if c.Ack.BackoffBase == 0 {
			c.Ack.BackoffBase = DefaultBackoffBase
		}
		if c.Ack.BackoffMax == 0 {
			c.Ack.BackoffMax = DefaultBackoffMax
		}
	}
}

// Validate checks the configuration against a cluster of the given size
// and fills defaulted fields. computers must be the number of computers
// in the run.
func (c *Config) Validate(computers int) error {
	if c == nil || !c.Enabled() {
		return nil
	}
	if computers <= 0 {
		return errors.New("netfault: validate needs a positive computer count")
	}
	c.withDefaults()
	if err := c.ValidateLinks(computers, "link"); err != nil {
		return err
	}
	if d := c.Dispatcher; d != nil {
		if d.Uptime == nil || d.Downtime == nil {
			return errors.New("netfault: dispatcher crash process needs both uptime and downtime distributions")
		}
		if d.Uptime.Mean() <= 0 || d.Downtime.Mean() <= 0 {
			return errors.New("netfault: dispatcher uptime and downtime means must be positive")
		}
		if d.Down == DownBuffer && d.BufferCap < 1 {
			return fmt.Errorf("netfault: down-buffer capacity %d must be at least 1", d.BufferCap)
		}
		if d.Recovery == RecoverCheckpoint && d.CheckpointDT <= 0 {
			return fmt.Errorf("netfault: checkpoint period %g must be positive", d.CheckpointDT)
		}
		if d.Recovery == RecoverCold && d.RelearnT <= 0 {
			return fmt.Errorf("netfault: cold-reset relearn window %g must be positive", d.RelearnT)
		}
		if d.ClientTO <= 0 {
			return fmt.Errorf("netfault: client timeout %g must be positive", d.ClientTO)
		}
	}
	if a := c.Ack; a.Timeout > 0 {
		if a.Budget < 1 {
			return fmt.Errorf("netfault: resubmission budget %d must be at least 1", a.Budget)
		}
		if a.BackoffBase <= 0 || a.BackoffMax < a.BackoffBase {
			return fmt.Errorf("netfault: backoff base %g and max %g must satisfy 0 < base <= max", a.BackoffBase, a.BackoffMax)
		}
		if a.Jitter < 0 || a.Jitter > 1 {
			return fmt.Errorf("netfault: backoff jitter %g outside [0,1]", a.Jitter)
		}
	} else if a.Timeout < 0 {
		return fmt.Errorf("netfault: ack timeout %g is negative", a.Timeout)
	}
	// A message that can vanish (loss or partition) strands its job
	// forever unless the ack loop can detect and resubmit it; that would
	// break exactly-once terminal accounting, so refuse the combination.
	if c.Ack.Timeout <= 0 && c.Lossy(computers) {
		return errors.New("netfault: loss or partitions require ack tracking (set Ack.Timeout / -ackto)")
	}
	if c.Ack.Timeout <= 0 && c.Dispatcher != nil && c.Dispatcher.Down == DownFailover {
		return errors.New("netfault: failover down-policy requires ack tracking (set Ack.Timeout / -ackto)")
	}
	return nil
}
