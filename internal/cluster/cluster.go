// Package cluster implements the paper's system model (Figure 1): jobs
// arrive at a central scheduler that dispatches them, without
// rescheduling, to one of n computers with different speeds; each computer
// runs its jobs under preemptive processor scheduling to completion.
//
// The package provides the workload generator (§4.1 defaults: Bounded
// Pareto job sizes with mean 76.8 s, two-stage hyperexponential arrivals
// with CV 3), warm-up truncation (first quarter of the run), the three
// paper metrics (mean response time, mean response ratio, fairness = the
// standard deviation of the response ratio), per-computer accounting used
// by Table 1 and Figure 2, and a replication runner that executes
// independent seeded runs in parallel and aggregates them with confidence
// intervals.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"heterosched/internal/ctrlplane"
	"heterosched/internal/dist"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/rng"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// Discipline selects the processor-scheduling model for every computer.
type Discipline int

const (
	// PS is exact processor sharing (the analysis model; default).
	PS Discipline = iota
	// RR is quantum-based preemptive round-robin (§4.1's literal
	// discipline); set Config.Quantum.
	RR
	// FCFS serves jobs to completion in arrival order (contrast model).
	FCFS
)

// String returns the discipline mnemonic.
func (d Discipline) String() string {
	switch d {
	case PS:
		return "PS"
	case RR:
		return "RR"
	case FCFS:
		return "FCFS"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Config describes one simulation run.
type Config struct {
	// Speeds are the computers' relative speeds (all > 0).
	Speeds []float64
	// Utilization is the offered load ρ = λ/(μ Σ s_i). The paper's model
	// assumes ρ < 1; values ≥ 1 (overload) are permitted so the
	// protection mechanisms in Overload can be studied, but without them
	// queues grow without bound.
	Utilization float64
	// JobSize is the service-demand distribution; nil means the paper
	// default Bounded Pareto B(10, 21600, 1.0), mean 76.8 s.
	JobSize dist.Distribution
	// ArrivalCV is the coefficient of variation of inter-arrival times.
	// Values > 1 use a balanced-means two-stage hyperexponential, exactly
	// 1 a Poisson process (as ExponentialArrivals does), and 0 the paper
	// default CV of 3.0.
	ArrivalCV float64
	// ExponentialArrivals forces a Poisson arrival process (CV = 1).
	ExponentialArrivals bool
	// Duration is the total simulated time in seconds (default 4.0e6, the
	// paper's run length).
	Duration float64
	// WarmupFraction is the fraction of Duration treated as start-up and
	// excluded from job statistics. Zero means the paper default 0.25
	// (the first quarter of the run); pass a negative value for no
	// warm-up at all. Jobs are counted if they *arrive* after the
	// warm-up.
	WarmupFraction float64
	// Seed drives all randomness in the run.
	Seed uint64
	// Discipline selects the server model (default PS).
	Discipline Discipline
	// Quantum is the RR slice length in seconds (required for RR).
	Quantum float64
	// Drain, when true, keeps the simulation running after Duration until
	// all admitted jobs complete, so no job's response time is lost. When
	// false, jobs still in service at Duration are discarded (the paper's
	// approach is immaterial at its run lengths; Drain defaults to true).
	Drain *bool
	// OnFinal, when non-nil, is invoked exactly once for every
	// post-warm-up job at its terminal event, whatever the outcome:
	// completion (possibly late), deadline kill, queue shed, retry-budget
	// drop, admission rejection, or loss to a failure. o.Completed()
	// selects the completions, e.g. to write a job trace. The callback
	// must not retain the job past the call. With Drain false, jobs still
	// in flight at the horizon never reach a terminal event and are not
	// reported.
	OnFinal func(*sim.Job, Outcome)
	// Probe, when non-nil and enabled, attaches the observability layer
	// (see internal/probe): lifecycle events, time-weighted metric series
	// and cadence samples. A probe belongs to exactly one run — do not
	// share one across replications. With Probe nil or disabled the run
	// is bit-identical to a build without the probe subsystem: no extra
	// random stream is derived and no extra events are scheduled.
	Probe *probe.Probe
	// Replay, when non-empty, drives arrivals from this trace (sorted by
	// ascending Arrival) instead of the synthetic generators: JobSize,
	// ArrivalCV and ExponentialArrivals are ignored, and Duration
	// defaults to the last trace arrival. Utilization is still passed to
	// the policy (static allocators need the offered load); set it to the
	// trace's measured utilization.
	Replay []ReplayJob
	// Arrivals, when non-nil, overrides the default renewal arrival
	// process (H2 with ArrivalCV) with a custom one, e.g.
	// SinusoidalPoisson for nonstationarity studies. Job sizes still come
	// from JobSize; Utilization is what the policy is told, and should be
	// set to Arrivals.MeanRate()·E[size]/Σspeeds for consistency.
	// Ignored when Replay is set.
	Arrivals ArrivalProcess
	// Faults, when non-nil and enabled, injects per-computer
	// failure/repair processes (see internal/faults). With Faults nil or
	// disabled the run is bit-identical to a build without the fault
	// subsystem: no extra random stream is derived and no extra events
	// are scheduled.
	Faults *faults.Config
	// Overload, when non-nil and enabled, activates the overload-
	// protection layer: admission control, bounded per-computer queues,
	// job deadlines, dispatcher timeout/retry with backoff, and
	// per-computer circuit breakers (see OverloadConfig). With Overload
	// nil or all-defaults the run is bit-identical to a build without the
	// overload subsystem.
	Overload *OverloadConfig
	// SampleInterval, when positive, records the number of jobs in the
	// system (admitted minus completed or dropped) every SampleInterval
	// seconds into Result.InSystemSeries — the direct way to watch queues
	// grow without bound at ρ ≥ 1. Zero disables sampling and schedules
	// no extra events.
	SampleInterval float64
	// Drift, when non-nil and enabled, perturbs the ground truth during
	// the run: arrival-rate schedules, speed steps, and one-shot
	// misestimation of the inputs the policy plans from (see
	// internal/drift). With Drift nil or disabled the run is
	// bit-identical to a build without the drift subsystem: no extra
	// random stream is derived and no extra events are scheduled.
	Drift *drift.Config
	// Adapt, when non-nil and enabled, runs the stability watchdog and
	// hysteretic re-planning loop (see AdaptConfig); the policy must be
	// Replannable. With Adapt nil or disabled the run is bit-identical
	// to a build without the adaptive subsystem.
	Adapt *AdaptConfig
	// Netfault, when non-nil and enabled, inserts the network/control-
	// plane fault layer between the dispatcher and the computers:
	// per-link dispatch latency, loss and duplication, dispatcher
	// crash/restart, partitions, and the ack/resubmission reliability
	// loop (see internal/netfault). With Netfault nil or disabled the
	// run is bit-identical to a build without the subsystem: no extra
	// random stream is derived and no extra events are scheduled.
	Netfault *netfault.Config
	// Ctrl, when non-nil and enabled, makes the control plane physical:
	// JIQ idle-token reports, jsq/pod(d) queue-length queries and
	// inter-dispatcher counter-sync frames travel over faulty links
	// (latency, loss, duplication, partitions), so state-querying
	// policies act on stale, lossy views and pay query round-trips in
	// dispatch latency (see internal/ctrlplane). With Ctrl nil or
	// disabled the run is bit-identical to a build without the
	// subsystem: no extra random stream is derived, no extra events are
	// scheduled, and the policies read the oracle StateView.
	Ctrl *ctrlplane.Config
}

// ReplayJob is one recorded arrival for trace-driven simulation.
type ReplayJob struct {
	// Arrival is the absolute arrival time in seconds.
	Arrival float64
	// Size is the job's service demand at speed 1.
	Size float64
}

// withDefaults returns a copy of c with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.JobSize == nil {
		c.JobSize = dist.PaperJobSize()
	}
	if c.ArrivalCV == 0 {
		c.ArrivalCV = 3.0
	}
	if c.Duration == 0 {
		if len(c.Replay) > 0 {
			c.Duration = c.Replay[len(c.Replay)-1].Arrival
		} else {
			c.Duration = 4.0e6
		}
	}
	switch {
	case c.WarmupFraction == 0:
		c.WarmupFraction = 0.25
	case c.WarmupFraction < 0:
		c.WarmupFraction = 0
	}
	if c.Drain == nil {
		d := true
		c.Drain = &d
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if len(c.Speeds) == 0 {
		return errors.New("cluster: no computers")
	}
	for i, s := range c.Speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("cluster: speed[%d] = %v invalid", i, s)
		}
	}
	if c.Utilization < 0 || math.IsNaN(c.Utilization) || math.IsInf(c.Utilization, 0) {
		return fmt.Errorf("cluster: utilization %v invalid (must be finite and non-negative)", c.Utilization)
	}
	if c.ArrivalCV < 1 {
		return fmt.Errorf("cluster: arrival CV %v < 1 not representable by H2", c.ArrivalCV)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("cluster: duration %v invalid", c.Duration)
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("cluster: warmup fraction %v outside [0,1)", c.WarmupFraction)
	}
	if c.Discipline == RR && !(c.Quantum > 0) {
		return fmt.Errorf("cluster: RR discipline requires positive quantum, got %v", c.Quantum)
	}
	for i, r := range c.Replay {
		if !(r.Size > 0) {
			return fmt.Errorf("cluster: replay job %d has non-positive size %v", i, r.Size)
		}
		if r.Arrival < 0 || (i > 0 && r.Arrival < c.Replay[i-1].Arrival) {
			return fmt.Errorf("cluster: replay arrivals not sorted ascending at index %d", i)
		}
	}
	if err := c.Faults.Validate(len(c.Speeds)); err != nil {
		return err
	}
	if err := c.Overload.Validate(); err != nil {
		return err
	}
	if c.SampleInterval < 0 || math.IsNaN(c.SampleInterval) || math.IsInf(c.SampleInterval, 0) {
		return fmt.Errorf("cluster: sample interval %v invalid", c.SampleInterval)
	}
	if err := c.Drift.Validate(len(c.Speeds)); err != nil {
		return err
	}
	if c.Drift.Enabled() {
		if c.Drift.Arrival != nil && len(c.Replay) > 0 {
			return errors.New("cluster: arrival-rate drift cannot modulate a replayed trace")
		}
		if len(c.Drift.SpeedSteps) > 0 && c.Discipline != PS {
			return fmt.Errorf("cluster: speed drift requires the PS discipline, got %v", c.Discipline)
		}
	}
	if err := c.Adapt.Validate(); err != nil {
		return err
	}
	if err := c.Netfault.Validate(len(c.Speeds)); err != nil {
		return err
	}
	// The replica count is policy state the config cannot see; replica-
	// indexed sync partitions are range-checked by the CLI, which knows
	// -dispatchers.
	if err := c.Ctrl.Validate(len(c.Speeds), 0); err != nil {
		return err
	}
	return nil
}

// Lambda returns the system arrival rate implied by the configuration.
func (c Config) Lambda() float64 {
	cc := c.withDefaults()
	total := 0.0
	for _, s := range cc.Speeds {
		total += s
	}
	return cc.Utilization * total / cc.JobSize.Mean()
}

// Context is the simulation context handed to a Policy at initialization.
type Context struct {
	// Engine is the run's event engine; policies may schedule events
	// (e.g. delayed load updates).
	Engine *sim.Engine
	// Speeds are the computers' relative speeds.
	Speeds []float64
	// Utilization is the true offered load ρ.
	Utilization float64
	// Lambda and Mu are the arrival and base-line service rates.
	Lambda, Mu float64
	// RNG is a dedicated random stream for the policy's own decisions.
	RNG *rng.Stream
	// Horizon is the run duration in simulated seconds; policies that
	// schedule recurring events (e.g. periodic dispatcher counter sync)
	// must stop at the horizon or a draining run would never finish.
	Horizon float64
}

// Policy is a job scheduling policy: it selects a target computer for each
// arriving job and observes departures.
type Policy interface {
	// Name identifies the policy in reports ("ORR", "WRAN", "LL", ...).
	Name() string
	// Init is called once per run before any job arrives.
	Init(ctx *Context) error
	// Select returns the index of the computer to run the job on. It is
	// called at the job's arrival time.
	Select(job *sim.Job) int
	// Departed notifies the policy that a job completed on its target
	// computer, at the engine's current time. Policies model their own
	// detection/update delays by scheduling events.
	Departed(job *sim.Job)
}

// FaultAware is implemented by policies that react to computer failures
// and repairs. The run calls UpSetChanged — after the configured
// detection lag — with the availability mask current at detection time;
// policies typically stop dispatching to down computers and may
// recompute their allocation over the survivors (sched.ReallocResolve).
type FaultAware interface {
	UpSetChanged(up []bool)
}

// StateView is the computer state a state-aware policy may observe at
// decision time — the query channel of the scalable-dispatch family
// (JSQ(d), biased power-of-d, JIQ). Queries read the live servers, so a
// policy that never queries costs nothing: the stateless policies keep
// their zero-query path untouched.
type StateView interface {
	// QueueLen returns the number of jobs at computer i (queued plus in
	// service) as the policy can best observe it. With the control
	// plane enabled this is a probe over a faulty link: the value may
	// be a stale cached observation or a pessimistic placeholder.
	QueueLen(i int) int
	// Age returns the age in seconds of the observation the last
	// QueueLen(i) was served from: 0 for a live read (the oracle view,
	// or an in-time probe), positive for a cached fallback, +Inf for a
	// computer never observed. A StateView is a snapshot with an age,
	// not an oracle.
	Age(i int) float64
	// N returns the number of computers.
	N() int
}

// StateAware is implemented by policies that query computer state at
// decision time. The run binds the view once the simulated computers
// exist — after Init, before the first arrival.
type StateAware interface {
	BindState(view StateView)
}

// CtrlAware is implemented by policies that can route their control
// traffic (idle tokens, state queries, counter-sync frames) through the
// physical control plane. The run calls BindCtrl — after Init, before
// BindState — only when Config.Ctrl is enabled; a policy that never
// receives it keeps the oracle state path.
type CtrlAware interface {
	BindCtrl(p *ctrlplane.Plane)
}

// DecisionCost is implemented by policies whose Select may wait on
// control-plane round-trips. TakeDecisionCost returns the wait in
// seconds accumulated by the most recent Select and resets it; the run
// delays the job's departure from the dispatcher by that much.
type DecisionCost interface {
	TakeDecisionCost() float64
}

// ctrlEventKind maps a control-plane message event to its probe kind.
func ctrlEventKind(kind ctrlplane.MsgEvent) probe.EventKind {
	switch kind {
	case ctrlplane.MsgTokenReport:
		return probe.EvTokenReport
	case ctrlplane.MsgTokenSpend:
		return probe.EvTokenSpend
	case ctrlplane.MsgTokenExpire:
		return probe.EvTokenExpire
	case ctrlplane.MsgQueryTimeout:
		return probe.EvQueryTimeout
	default:
		return probe.EvSyncFrame
	}
}

// ShardedPolicy is implemented by policies that route arrivals through
// K dispatcher replicas; the probe uses it to attribute each dispatch
// decision to the replica that made it (per-dispatcher series).
type ShardedPolicy interface {
	// Shards returns the number of dispatcher replicas K.
	Shards() int
	// LastShard returns the replica index of the most recent Select.
	LastShard() int
}

// serverStateView adapts the run's servers to the StateView queries.
type serverStateView []server

func (v serverStateView) QueueLen(i int) int { return v[i].InService() }
func (v serverStateView) Age(int) float64    { return 0 }
func (v serverStateView) N() int             { return len(v) }

// Result aggregates one run's statistics over the post-warm-up jobs.
type Result struct {
	// Policy is the policy name.
	Policy string
	// MeanResponseTime is the average of Completion − Arrival (seconds).
	MeanResponseTime float64
	// MeanResponseRatio is the average of response time / job size.
	MeanResponseRatio float64
	// Fairness is the standard deviation of the response ratio (§4.1);
	// smaller is better.
	Fairness float64
	// Jobs is the number of jobs included in the statistics.
	Jobs int64
	// JobFractions[i] is the fraction of counted jobs sent to computer i.
	JobFractions []float64
	// Utilizations[i] is busy time / observed time for computer i over
	// the whole run (including warm-up).
	Utilizations []float64
	// RatioP50, RatioP95 and RatioP99 are percentile estimates of the
	// response ratio distribution, from a log-binned histogram (an
	// extension beyond the paper's mean-based metrics).
	RatioP50, RatioP95, RatioP99 float64
	// GeneratedJobs counts all arrivals, including warm-up.
	GeneratedJobs int64
	// Outcomes[o] counts every finalized job by terminal Outcome,
	// warm-up included (unlike the response-time statistics, which drop
	// the warm-up prefix). Length NumOutcomes. On a drained run every
	// arrival reaches exactly one outcome, so sum(Outcomes) ==
	// GeneratedJobs and FinalInSystem == 0 — the job-conservation
	// ledger the chaos harness (internal/chaos) asserts. Without Drain
	// the residual jobs at the horizon are unfinalized (FinalInSystem,
	// plus any arrivals parked in a crashed dispatcher's buffer).
	Outcomes []int64
	// FinalInSystem is the number of dispatched jobs still in the
	// system when the run ended (always 0 with Drain on).
	FinalInSystem int64
	// SimulatedTime is the time at which statistics collection ended.
	SimulatedTime float64
	// Overload holds the overload-protection counters and the admitted-job
	// response-time percentiles; nil unless Config.Overload was enabled.
	Overload *OverloadStats
	// InSystemSeries[k] is the number of jobs in the system at time
	// (k+1)·SampleInterval; nil unless Config.SampleInterval was set.
	InSystemSeries []int64
	// Adaptive holds the watchdog/re-planning counters and final
	// estimates; nil unless Config.Adapt was enabled.
	Adaptive *AdaptiveStats
	// Netfault holds the network/control-plane fault counters; nil
	// unless Config.Netfault was enabled.
	Netfault *NetfaultStats
	// Ctrl holds the control-plane message ledger (token, query and
	// sync counters); nil unless Config.Ctrl was enabled.
	Ctrl *ctrlplane.Stats

	// The remaining fields are populated only when Config.Faults enabled
	// failure injection (Availability is nil otherwise).

	// Availability[i] is the observed time-weighted fraction of the run
	// computer i was up.
	Availability []float64
	// Failures and Repairs count fault events across all computers.
	Failures, Repairs int64
	// JobsLost counts jobs discarded (fate Lost, or requeue budget
	// exhausted); JobsRequeued counts successful re-dispatches;
	// JobsRestarted and JobsResumed count jobs held at a failed computer
	// under the respective fates.
	JobsLost, JobsRequeued, JobsRestarted, JobsResumed int64
	// DegradedTime is the total time at least one computer was down.
	DegradedTime float64
	// DegradedJobs counts post-warm-up jobs that arrived while the
	// system was degraded; MeanResponseTimeDegraded and
	// MeanResponseRatioDegraded average over exactly those jobs.
	DegradedJobs                                        int64
	MeanResponseTimeDegraded, MeanResponseRatioDegraded float64
}

// FractionProvider is implemented by policies that know their target
// allocation fractions (static policies); the adaptive re-planning loop
// uses them for per-computer utilization estimates.
type FractionProvider interface {
	Fractions() []float64
}

// Run executes one simulation run of cfg under the given policy.
func Run(cfg Config, policy Policy) (*Result, error) {
	r, err := newRun(cfg, policy)
	if err != nil {
		return nil, err
	}
	return r.simulate(), nil
}

// server is what the run needs from a computer: eviction for the fault
// injector and single-job removal for the overload layer. Every
// discipline and sim.Bounded implement both.
type server interface {
	sim.Preemptable
	sim.Removable
}

// run is one simulation of the Figure 1 model. newRun builds the
// engine, the servers and every enabled layer and schedules their first
// events; simulate runs the engine and collects the Result. Each stage a
// job passes through is one method: admit, dispatchJob, sendTo, held,
// transit, deliverTo, depart, finalize and release, with the arrival
// chains syntheticArrival and replayArrival. The overload, netfault and
// adaptive layers hold the run and call its stages directly.
type run struct {
	cfg     Config
	policy  Policy
	ctx     *Context
	en      *sim.Engine
	arena   *sim.JobArena
	servers []server
	n       int
	warmup  float64

	// The layers, each nil when off. The probe counts as off unless it
	// does something, and every probe touch is gated on pb != nil, so
	// probe-less runs stay bit-identical; spansOn gates the span hooks
	// the same way.
	ov      *overloadRun
	nf      *netfaultRun
	plane   *ctrlplane.Plane
	inj     *faults.Injector
	ad      *adaptiveRun
	pb      *probe.Probe
	spansOn bool

	// Policy facets: fa learns availability changes; dc is the policy's
	// query wait, charged only under an enabled control plane; shardOf
	// names the replica of the last decision (probe on, K > 1).
	fa      FaultAware
	dc      DecisionCost
	shardOf func() int

	generated, inSystem, observed                  int64
	counts, outcomes                               []int64
	respTime, respRatio, respTimeDeg, respRatioDeg stats.Accumulator
	// ratioHist bins response ratios, which range from 1/maxSpeed (an
	// undisturbed job on the fastest computer) to arbitrarily large
	// under congestion; log bins cover the practical range for
	// percentile estimates.
	ratioHist *stats.Histogram
	samples   []int64
	// detectedUp is the fault injector's up-set as of the last detected
	// failure or repair; nil (all up) until the first detection.
	detectedUp []bool
	// maskBuf renders the live availability mask of dispatch events; nil
	// unless events are on.
	maskBuf []byte

	// The arrival chain schedules each arrival when the previous one
	// fires, so its times arrive in push order: it runs on a FIFO lane
	// beside the engine's heap. replayNext indexes the next trace job.
	arrivals              ArrivalProcess
	arrStream, sizeStream *rng.Stream
	arrLane               *sim.Lane
	replayNext            int

	// Handlers the engine or a server stores, bound once: a method value
	// evaluated per event would allocate.
	onArrival, onDetect func()
	onHeld              func(sim.Msg)
	onDepart            func(*sim.Job)
}

// newRun validates cfg, builds the run and schedules its first events.
// Random streams are derived by name, so their order is free; events
// are not, because ties fire in scheduling order. The set-up therefore
// keeps this order: policy Init, overload, probe, netfault, control
// plane, servers, speed drift, the policy's bindings, the fault
// injector, netfault's own events, the adaptive watchdog, the first
// arrival, then the two sampling chains.
func newRun(cfg Config, policy Policy) (*run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(cfg.Speeds)
	root := rng.New(cfg.Seed)
	r := &run{
		cfg:        cfg,
		policy:     policy,
		en:         &sim.Engine{},
		arena:      sim.NewJobArena(),
		n:          n,
		warmup:     cfg.Duration * cfg.WarmupFraction,
		counts:     make([]int64, n),
		outcomes:   make([]int64, numOutcomes),
		ratioHist:  stats.NewLogHistogram(1e-3, 1e6, 360),
		arrStream:  root.Derive("arrivals"),
		sizeStream: root.Derive("sizes"),
	}
	r.fa, _ = policy.(FaultAware)

	lambda := cfg.Lambda()
	mu := 1 / cfg.JobSize.Mean()
	if len(cfg.Replay) > 0 && cfg.Duration > 0 {
		// Trace-driven runs: report the trace's empirical rates to the
		// policy.
		lambda = float64(len(cfg.Replay)) / cfg.Duration
		var total float64
		for _, rj := range cfg.Replay {
			total += rj.Size
		}
		mu = 1 / (total / float64(len(cfg.Replay)))
	}
	r.arrivals = cfg.Arrivals
	if r.arrivals == nil {
		var interArrival dist.Distribution
		if cfg.ExponentialArrivals || cfg.ArrivalCV == 1 {
			interArrival = dist.NewExponential(1 / lambda)
		} else {
			interArrival = dist.FitHyperExp2(1/lambda, cfg.ArrivalCV)
		}
		r.arrivals = RenewalProcess{Gap: interArrival}
	} else if len(cfg.Replay) == 0 {
		if v, ok := r.arrivals.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return nil, err
			}
		}
		lambda = r.arrivals.MeanRate()
	}

	// Parameter drift. Everything is gated on an enabled drift config so
	// that drift-free runs stay bit-identical: no extra stream
	// derivation, no extra events, no perturbed plan inputs.
	var dr *drift.Config
	if cfg.Drift.Enabled() {
		dr = cfg.Drift
		if dr.Arrival != nil {
			// The schedule changes the truth the run evolves under;
			// lambda (the belief reported to the policy) stays the base
			// rate the plan would be built from.
			r.arrivals = drift.Modulated{Base: r.arrivals, Schedule: dr.Arrival}
		}
	}

	r.ctx = &Context{
		Engine:      r.en,
		Speeds:      cfg.Speeds,
		Utilization: cfg.Utilization,
		Lambda:      lambda,
		Mu:          mu,
		RNG:         root.Derive("policy"),
		Horizon:     cfg.Duration,
	}
	if dr != nil && dr.Misest.Enabled() {
		// One-shot misestimation: the policy plans from perturbed inputs
		// while the simulated world keeps the true values. The dedicated
		// stream is derived only here, so runs without misestimation are
		// unaffected.
		rhoHat, speedsHat := dr.Misest.Apply(cfg.Utilization, cfg.Speeds, root.Derive("drift.misest"))
		r.ctx.Utilization = rhoHat
		r.ctx.Speeds = speedsHat
		sumHat := 0.0
		for _, s := range speedsHat {
			sumHat += s
		}
		r.ctx.Lambda = rhoHat * sumHat * mu
	}
	if err := policy.Init(r.ctx); err != nil {
		return nil, fmt.Errorf("cluster: policy %s init: %w", policy.Name(), err)
	}

	// Each layer below is gated on an enabled config, so a run without it
	// stays bit-identical: no extra stream derivation, no extra events,
	// no changed dispatch path.
	if cfg.Overload.Enabled() {
		var err error
		if r.ov, err = newOverloadRun(r, root); err != nil {
			return nil, err
		}
	}
	if cfg.Probe.Enabled() {
		r.pb = cfg.Probe
		r.pb.Start(n, 0)
		// Span layer: per-job response-time decomposition.
		if r.spansOn = r.pb.SpansOn(); r.spansOn {
			r.pb.StartSpans(cfg.Speeds, terminalCauses())
		}
		if r.pb.EventsOn() {
			r.maskBuf = make([]byte, n)
		}
	}
	if cfg.Netfault.Enabled() {
		r.nf = newNetfaultRun(r, root)
		if r.pb != nil {
			r.pb.StartNetfault(0)
		}
	}
	if cfg.Ctrl.Enabled() {
		// The physical control plane; the policy keeps the oracle
		// StateView without it. The plane is bound to the policy and the
		// servers below, once both exist.
		r.plane = ctrlplane.NewPlane(r.en, cfg.Ctrl, n, root, cfg.Duration)
		r.dc, _ = policy.(DecisionCost)
		r.onHeld = r.held
		if pb := r.pb; pb != nil {
			pb.StartCtrl(0)
			r.plane.SetHooks(ctrlplane.Hooks{
				Event:     r.ctrlEvent,
				InFlight:  pb.SetCtrlInFlight,
				Staleness: pb.NoteCtrlStaleness,
			})
		}
	}

	r.onDepart = r.depart
	r.servers = make([]server, n)
	bounded := r.ov != nil && cfg.Overload.QueueCap > 0
	departure := func(int) func(*sim.Job) { return r.onDepart }
	if bounded {
		departure = r.boundedDeparture
	}
	// A run's PS servers come from one slab. Speed drift needs them
	// (validate enforces the PS discipline when steps are configured).
	var ps []sim.PSServer
	if cfg.Discipline == PS {
		ps = sim.NewPSServers(r.en, cfg.Speeds, departure)
	}
	for i, s := range cfg.Speeds {
		switch cfg.Discipline {
		case PS:
			r.servers[i] = &ps[i]
		case RR:
			r.servers[i] = sim.NewRRServer(r.en, s, cfg.Quantum, departure(i))
		case FCFS:
			r.servers[i] = sim.NewFCFSServer(r.en, s, departure(i))
		default:
			return nil, fmt.Errorf("cluster: unknown discipline %v", cfg.Discipline)
		}
		if bounded {
			r.servers[i] = sim.NewBounded(r.servers[i], cfg.Overload.QueueCap, cfg.Overload.Drop,
				func(j *sim.Job) { r.ov.shed(i, j) })
		}
	}
	if dr != nil {
		r.scheduleSpeedSteps(dr.SpeedSteps, ps)
	}

	// Bind the control plane before the state view: a CtrlAware policy
	// re-routes its token traffic and replaces its replicas' oracle
	// views with the plane's probing views during BindState. The plane
	// answers probes that physically arrive from the live servers.
	if r.plane != nil {
		r.plane.BindSource(serverStateView(r.servers))
		if ca, ok := policy.(CtrlAware); ok {
			ca.BindCtrl(r.plane)
		}
	}
	// Bind the queue-state view for state-aware policies (the scalable-
	// dispatch family). This must happen after the servers exist and
	// before the first arrival; Init runs too early. Stateless policies
	// don't implement StateAware, so their path is untouched.
	if sa, ok := policy.(StateAware); ok {
		sa.BindState(serverStateView(r.servers))
	}
	if r.pb != nil {
		if sp, ok := policy.(ShardedPolicy); ok && sp.Shards() > 1 {
			r.pb.StartShards(sp.Shards())
			r.shardOf = sp.LastShard
		}
	}

	if cfg.Faults.Enabled() {
		if err := r.startFaults(root); err != nil {
			return nil, err
		}
	}
	if r.nf != nil {
		r.nf.start()
	}
	if cfg.Adapt.Enabled() {
		var err error
		if r.ad, err = newAdaptiveRun(r); err != nil {
			return nil, err
		}
		r.ad.start()
	}

	r.arrLane = r.en.NewLane()
	if len(cfg.Replay) > 0 {
		r.onArrival = r.replayArrival
		if cfg.Replay[0].Arrival <= cfg.Duration {
			r.arrLane.Schedule(cfg.Replay[0].Arrival, r.onArrival)
		}
	} else {
		r.onArrival = r.syntheticArrival
		r.arrLane.Schedule(r.arrivals.Next(r.en.Now(), r.arrStream), r.onArrival)
	}

	// Cadence sampling: read queue lengths, utilization deltas and the
	// in-system count every SampleDT.
	if r.pb != nil && r.pb.SampleDT() > 0 {
		qls := make([]int, n)
		busy := make([]float64, n)
		every(r.en, r.pb.SampleDT(), cfg.Duration, func() {
			for i, s := range r.servers {
				qls[i] = s.InService()
				busy[i] = s.BusyTime()
			}
			r.pb.Sample(r.en.Now(), qls, busy, r.inSystem)
		})
	}
	if cfg.SampleInterval > 0 {
		every(r.en, cfg.SampleInterval, cfg.Duration, func() {
			r.samples = append(r.samples, r.inSystem)
		})
	}
	return r, nil
}

// ctrlEvent records a control-plane message event in the probe's stream.
func (r *run) ctrlEvent(t float64, kind ctrlplane.MsgEvent, target int, cause string, value float64) {
	r.pb.Emit(probe.Event{T: t, Kind: ctrlEventKind(kind), Target: target, Cause: cause, Value: value})
}

// every calls fn at k·dt for k = 1, 2, … while k·dt ≤ horizon. Each tick
// schedules the next once fn returns, so the chain ends at the horizon
// and a draining run completes.
func every(en *sim.Engine, dt, horizon float64, fn func()) {
	var tick func(k int)
	tick = func(k int) {
		t := float64(k) * dt
		if t > horizon {
			return
		}
		en.Schedule(t, func() {
			fn()
			tick(k + 1)
		})
	}
	tick(1)
}

// startFaults builds the failure injector over the servers and starts
// its renewal processes.
func (r *run) startFaults(root *rng.Stream) error {
	hooks := faults.Hooks{
		OnFail:   func(i int) { r.faultEdge(i, false) },
		OnRepair: func(i int) { r.faultEdge(i, true) },
		Requeue:  r.requeue,
		OnLost:   func(j *sim.Job) { r.lose(j, OutcomeLostFailure) },
	}
	if r.pb != nil {
		hooks.OnEnterService = r.serviceStart
		hooks.OnEvict = r.evicted
		hooks.OnResume = r.resumed
	}
	preempt := make([]sim.Preemptable, r.n)
	for i, s := range r.servers {
		preempt[i] = s
	}
	r.onDetect = r.detect
	var err error
	r.inj, err = faults.NewInjector(r.en, r.cfg.Faults, preempt, root.Derive("faults"), r.cfg.Duration, hooks)
	if err != nil {
		return err
	}
	r.inj.Start()
	return nil
}

// simulate runs the engine to the horizon, then, with Drain set, until
// every in-flight job has finished (the arrival pending beyond the
// horizon does nothing when it fires), and collects the Result.
func (r *run) simulate() *Result {
	r.en.RunUntil(r.cfg.Duration)
	if *r.cfg.Drain {
		r.en.RunUntil(math.Inf(1))
	}
	endTime := math.Max(r.en.Now(), r.cfg.Duration)
	if r.pb != nil {
		r.pb.FinishRun(endTime)
	}

	res := &Result{
		Policy:            r.policy.Name(),
		MeanResponseTime:  r.respTime.Mean(),
		MeanResponseRatio: r.respRatio.Mean(),
		Fairness:          r.respRatio.PopStdDev(),
		Jobs:              r.respTime.N(),
		JobFractions:      make([]float64, r.n),
		Utilizations:      make([]float64, r.n),
		RatioP50:          r.ratioHist.Quantile(0.50),
		RatioP95:          r.ratioHist.Quantile(0.95),
		RatioP99:          r.ratioHist.Quantile(0.99),
		GeneratedJobs:     r.generated,
		Outcomes:          r.outcomes,
		FinalInSystem:     r.inSystem,
		SimulatedTime:     endTime,
		InSystemSeries:    r.samples,
	}
	for i, s := range r.servers {
		if r.observed > 0 {
			res.JobFractions[i] = float64(r.counts[i]) / float64(r.observed)
		}
		res.Utilizations[i] = s.BusyTime() / endTime
	}
	if r.ov != nil {
		res.Overload = r.ov.finish()
	}
	if r.ad != nil {
		res.Adaptive = r.ad.finish()
	}
	if r.nf != nil {
		res.Netfault = r.nf.finish()
	}
	if r.plane != nil {
		res.Ctrl = r.plane.Finish()
	}
	if inj := r.inj; inj != nil {
		inj.Finish(endTime)
		res.Availability = make([]float64, r.n)
		for i := range res.Availability {
			res.Availability[i] = inj.Availability(i)
		}
		res.Failures = inj.Failures()
		res.Repairs = inj.Repairs()
		res.JobsLost = inj.JobsLost()
		res.JobsRequeued = inj.JobsRequeued()
		res.JobsRestarted = inj.JobsRestarted()
		res.JobsResumed = inj.JobsResumed()
		res.DegradedTime = inj.DegradedTime()
		res.DegradedJobs = r.respTimeDeg.N()
		res.MeanResponseTimeDegraded = r.respTimeDeg.Mean()
		res.MeanResponseRatioDegraded = r.respRatioDeg.Mean()
	}
	return res
}

// syntheticArrival is the arrival chain of the arrival process (default:
// a renewal process with the configured inter-arrival distribution) with
// sampled sizes. Each arrival schedules the next, and admission closes
// at the horizon.
func (r *run) syntheticArrival() {
	if r.en.Now() > r.cfg.Duration {
		return
	}
	r.admit(r.cfg.JobSize.Sample(r.sizeStream))
	r.arrLane.Schedule(r.arrivals.Next(r.en.Now(), r.arrStream), r.onArrival)
}

// replayArrival is the arrival chain of a trace: each recorded job
// arrives at its recorded time and schedules the next one that falls
// inside the horizon (validate has rejected decreasing arrival times).
func (r *run) replayArrival() {
	rj := r.cfg.Replay[r.replayNext]
	r.replayNext++
	r.admit(rj.Size)
	if r.replayNext < len(r.cfg.Replay) && r.cfg.Replay[r.replayNext].Arrival <= r.cfg.Duration {
		r.arrLane.Schedule(r.cfg.Replay[r.replayNext].Arrival, r.onArrival)
	}
}

// admit brings one job of the given size into the run at the current
// time. Jobs come from the arena: a recycled Job is field-identical to a
// freshly allocated one (Put zeroes every exported field), so reuse
// cannot change simulation results.
func (r *run) admit(size float64) {
	now := r.en.Now()
	r.generated++
	if r.ad != nil {
		r.ad.noteArrival(now, size)
	}
	j := r.arena.Get()
	j.ID = r.generated
	j.Size = size
	j.Arrival = now
	j.Target = -1
	if r.pb != nil {
		r.pb.Emit(probe.Event{T: now, Kind: probe.EvArrival, Job: j.ID, Target: -1})
		if r.spansOn {
			r.pb.SpanAdmit(j, now)
		}
	}
	if r.nf != nil && r.nf.interceptArrival(j) {
		return // dropped, buffered or failed over while down
	}
	r.dispatchJob(j, true)
}

// dispatchJob runs a job through the dispatcher and sends it: through
// the overload layer's gates when one is active, else by policy
// selection. first marks the job's first routing decision, at arrival or
// at a crashed dispatcher's buffer flush: the job passes admission
// control and enters the system, and statistics key on its arrival time
// while events are stamped now. Failure requeues and netfault
// resubmissions pass false.
func (r *run) dispatchJob(j *sim.Job, first bool) {
	if first {
		if r.ov != nil && !r.ov.admitJob(j) {
			r.reject(j, OutcomeRejectedAdmission)
			return
		}
		r.addInSystem(1)
	}
	if r.ov != nil {
		r.ov.dispatch(j, first)
		return
	}
	target := r.policy.Select(j)
	if target < 0 || target >= r.n {
		panic(fmt.Sprintf("cluster: policy %s selected invalid computer %d", r.policy.Name(), target))
	}
	j.Target = target
	if first {
		r.firstDispatch(j, target, true)
	}
	if r.pb != nil {
		r.emitDispatch(j, "")
	}
	r.sendTo(target, j)
}

// firstDispatch books the scheduler's first routing decision for j, at
// arrival, at a crashed dispatcher's buffer flush or by the failover
// backup: the job fractions count it, the probe attributes it to the
// computer's arrival substream and, for a policy decision, to the
// deciding replica, and a job routed while a computer is down counts as
// degraded.
func (r *run) firstDispatch(j *sim.Job, target int, byPolicy bool) {
	if j.Arrival >= r.warmup {
		r.counts[target]++
		r.observed++
	}
	if r.pb != nil {
		r.pb.NoteSubstream(target, j.Arrival)
		if byPolicy && r.shardOf != nil {
			r.pb.NoteShard(r.shardOf(), j.Arrival)
		}
	}
	if r.inj != nil && r.inj.AnyDown() {
		j.Degraded = true
	}
}

// emitDispatch records j's routing to j.Target in the event stream
// (probe on), with the live availability mask when events are on.
func (r *run) emitDispatch(j *sim.Job, cause string) {
	if j.Finalized {
		return
	}
	var mask string
	if r.maskBuf != nil {
		for i := range r.maskBuf {
			if r.available(i, r.inj == nil || r.inj.Up(i)) {
				r.maskBuf[i] = '1'
			} else {
				r.maskBuf[i] = '0'
			}
		}
		mask = string(r.maskBuf)
	}
	r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvDispatch, Job: j.ID, Target: j.Target, Cause: cause, Attempt: j.Attempts + j.Retries, Mask: mask})
}

// sendTo moves a routed job from the dispatcher towards computer target.
// Every dispatch — first dispatch, overload retry, failure requeue,
// netfault resubmission — passes these stages in this order:
//
//  1. the span's send stamp (spans on), so the query wait of stage 2
//     lands in the span's network component;
//  2. the decision-cost hold (control plane on): the job leaves the
//     dispatcher only once the query round-trips, or their timeout, of
//     the decision that routed it are over;
//  3. transit.
//
// Only the netfault failover backup, which makes no policy decision,
// skips stage 2 (see netfaultRun.failover).
func (r *run) sendTo(target int, j *sim.Job) {
	if r.spansOn {
		r.pb.SpanSend(j, r.en.Now())
	}
	if r.dc != nil {
		if d := r.dc.TakeDecisionCost(); d > 0 {
			// The job is held across simulated time, where a deadline or
			// timeout can reach a terminal outcome first and recycle it —
			// hold a generation-checked handle and let a dead one drop
			// the delivery (the job already finished; there is nothing
			// to deliver).
			r.en.ScheduleMsg(r.en.Now()+d, r.onHeld, sim.Msg{Ref: r.arena.Ref(j), A: target})
			return
		}
	}
	r.transit(target, j)
}

// held ends a decision-cost hold: a typed event carrying the job and
// A = its target.
func (r *run) held(m sim.Msg) {
	if j, ok := m.Ref.Load(); ok && !j.Finalized {
		r.transit(m.A, j)
	}
}

// transit carries a job to computer target: over its faulty dispatch
// link when the netfault layer is on, else straight to deliverTo.
func (r *run) transit(target int, j *sim.Job) {
	if r.nf != nil {
		r.nf.send(target, j, true)
		return
	}
	r.deliverTo(target, j)
}

// deliverTo physically lands a job at computer target: through the
// fault injector when one is active, else straight into the server.
func (r *run) deliverTo(target int, j *sim.Job) {
	if r.pb != nil {
		r.pb.NoteDelivery(target, r.en.Now())
		if r.spansOn {
			r.pb.SpanArrive(target, j, r.en.Now())
		}
	}
	if r.inj != nil {
		r.inj.Arrive(target, j)
	} else {
		r.serviceStart(target, j)
		r.servers[target].Arrive(j)
	}
	if r.pb != nil {
		r.pb.SetQueueLen(r.en.Now(), target, r.servers[target].InService())
	}
}

// serviceStart books j entering service at computer i (probe on).
func (r *run) serviceStart(i int, j *sim.Job) {
	if r.pb == nil {
		return
	}
	if !j.Finalized {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvServiceStart, Job: j.ID, Target: i})
	}
	if r.spansOn {
		r.pb.SpanServe(i, j, r.en.Now())
	}
}

// evicted books j leaving service at computer i on its failure (probe
// on).
func (r *run) evicted(i int, j *sim.Job) {
	if !j.Finalized {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvEvict, Job: j.ID, Target: i})
	}
	if r.spansOn {
		r.pb.SpanEvict(i, j, r.en.Now())
	}
}

// resumed books a held j re-entering service at repaired computer i
// (probe on).
func (r *run) resumed(i int, j *sim.Job) {
	if !j.Finalized {
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: probe.EvResume, Job: j.ID, Target: i})
	}
	if r.spansOn {
		r.pb.SpanServe(i, j, r.en.Now())
	}
}

// scheduleSpeedSteps schedules the speed-drift steps on the run's PS
// servers.
func (r *run) scheduleSpeedSteps(steps []drift.SpeedStep, ps []sim.PSServer) {
	for _, step := range steps {
		r.en.Schedule(step.At, func() {
			if step.Computer >= 0 {
				ps[step.Computer].SetSpeed(r.cfg.Speeds[step.Computer] * step.Factor)
				return
			}
			for i := range ps {
				ps[i].SetSpeed(r.cfg.Speeds[i] * step.Factor)
			}
		})
	}
}

// boundedDeparture is server i's departure callback under bounded
// queues: server i's sim.Bounded wrapper sees the departure before the
// run statistics, so its occupancy is current.
func (r *run) boundedDeparture(i int) func(*sim.Job) {
	return func(j *sim.Job) {
		r.servers[i].(*sim.Bounded).NoteDeparture(j)
		r.depart(j)
	}
}

// depart is every server's departure callback: j completed at its
// computer.
func (r *run) depart(j *sim.Job) {
	if r.pb != nil && j.Target >= 0 {
		r.pb.SetQueueLen(r.en.Now(), j.Target, r.servers[j.Target].InService())
	}
	if r.ov != nil {
		if !r.ov.preDepart(j) {
			// A condemned job's completion: the deadline kill already
			// counted it out of the system and the statistics.
			r.release(j)
			return
		}
	} else {
		r.policy.Departed(j)
	}
	if r.ad != nil {
		r.ad.noteCompletion(j)
	}
	r.addInSystem(-1)
	outcome := OutcomeCompleted
	if j.Deadline > 0 && j.Completion > j.Deadline {
		outcome = OutcomeLate
	}
	r.finalize(j, outcome)
	if j.Arrival >= r.warmup {
		rt, rr := j.ResponseTime(), j.ResponseRatio()
		r.respTime.Add(rt)
		r.respRatio.Add(rr)
		r.ratioHist.Add(rr)
		if j.Degraded {
			r.respTimeDeg.Add(rt)
			r.respRatioDeg.Add(rr)
		}
	}
	r.release(j)
}

// finalize records a job's terminal outcome exactly once: the probe's
// terminal lifecycle event (every job) and cfg.OnFinal (post-warm-up
// jobs). Overlapping layers may race to a job's end — a deadline kill
// followed by the held job's eventual completion, a shed of an
// already-condemned job — so the Finalized flag arbitrates.
func (r *run) finalize(j *sim.Job, o Outcome) {
	if j.Finalized {
		return
	}
	j.Finalized = true
	r.outcomes[o]++
	if r.nf != nil {
		r.nf.untrack(j)
	}
	if r.pb != nil {
		kind, cause := o.probeEvent()
		r.pb.Emit(probe.Event{T: r.en.Now(), Kind: kind, Job: j.ID, Target: j.Target, Cause: cause, Attempt: j.Attempts + j.Retries})
		if r.spansOn {
			// Close the job's span before OnFinal so the callback can
			// fetch the decomposition via LastFinal. counted mirrors the
			// respTime filter exactly: completed jobs arriving after
			// warmup are the ones T̄ averages.
			r.pb.SpanFinal(j, cause, o.Completed(), o.Completed() && j.Arrival >= r.warmup, r.en.Now())
		}
	}
	if r.cfg.OnFinal != nil && j.Arrival >= r.warmup {
		r.cfg.OnFinal(j, o)
	}
}

// release recycles j into the arena at its terminal event (completion,
// shed, drop, loss). Every terminal path cancels the job's timers first;
// the check guards the rule that a job a pending timer still references
// is never recycled.
func (r *run) release(j *sim.Job) {
	if j.TimeoutEvent.Active() || j.DeadlineEvent.Active() || j.AckEvent.Active() {
		return
	}
	r.arena.Put(j)
}

// reject ends a job turned away before it entered the system (admission
// control, a down dispatcher's drop): no in-system charge, no timers
// armed.
func (r *run) reject(j *sim.Job, o Outcome) {
	r.finalize(j, o)
	r.release(j)
}

// lose ends a job the fault layer (OutcomeLostFailure) or the network
// layer (OutcomeLostNetwork) discarded. A job the deadline already
// condemned was finalized and counted out of the system by the kill;
// the fault layer surfacing it later only hands it back for recycling,
// and counting it out again would drive the in-system ledger negative.
func (r *run) lose(j *sim.Job, o Outcome) {
	if r.ov != nil {
		r.ov.jobLost(j)
	}
	if !j.Finalized {
		r.addInSystem(-1)
		r.finalize(j, o)
	}
	r.release(j)
}

// addInSystem moves the in-system count by d and mirrors it into the
// probe's series.
func (r *run) addInSystem(d int64) {
	r.inSystem += d
	if r.pb != nil {
		r.pb.SetInSystem(r.en.Now(), r.inSystem)
	}
}

// requeue re-dispatches a job whose computer failed. It goes through the
// policy again but does not re-enter the job-fraction or arrival counts:
// those track the scheduler's first decision per job.
func (r *run) requeue(j *sim.Job) {
	if r.nf != nil {
		// The job verifiably left its failed computer: clear the
		// delivery state so its re-dispatch is not deduplicated.
		r.nf.reclaim(j)
	}
	if r.ov != nil {
		// A half-open probe evicted by its computer's failure is a
		// failed probe: record the outcome against the probed breaker
		// before the job re-enters the pool as a normal job — otherwise
		// it would carry its probe mark to another computer and close
		// the wrong breaker on completion, leaving the probed one stuck
		// half-open forever.
		r.ov.probeFailed(j)
	}
	r.dispatchJob(j, false)
}

// faultEdge books computer i failing (up false) or coming back up: the
// probe's series and event, then the fault-aware policy's update after
// the detection lag. Flaps shorter than the lag collapse into one
// observation of the final state.
func (r *run) faultEdge(i int, up bool) {
	if r.pb != nil {
		now := r.en.Now()
		kind := probe.EvFail
		if up {
			kind = probe.EvRepair
		}
		r.pb.SetUp(now, i, up)
		r.pb.SetQueueLen(now, i, r.servers[i].InService())
		r.pb.Emit(probe.Event{T: now, Kind: kind, Target: i})
	}
	if r.fa == nil {
		return
	}
	if lag := r.cfg.Faults.DetectionLag; lag > 0 {
		r.en.ScheduleAfter(lag, r.onDetect)
	} else {
		r.detect()
	}
}

// detect hands a fault-aware policy the injector's up-set as of now.
func (r *run) detect() {
	r.detectedUp = r.inj.UpSet()
	r.notifyUp()
}

// notifyUp hands a fault-aware policy its availability mask after a
// detected failure or repair, a partition edge or a breaker transition.
// The fault state is the detected one, never the injector's live state:
// the policy cannot know of a failure before DetectionLag has passed.
func (r *run) notifyUp() {
	if r.fa == nil {
		return
	}
	up := make([]bool, r.n)
	for i := range up {
		up[i] = r.available(i, r.detectedUp == nil || r.detectedUp[i])
	}
	r.fa.UpSetChanged(up)
}

// available reports whether computer i can take a dispatch: its fault
// state faultUp (as detected, or live) is up, its dispatch link is uncut
// and its breaker, if any, is closed.
func (r *run) available(i int, faultUp bool) bool {
	return faultUp && (r.nf == nil || r.nf.linkUp(i)) && r.ov.breakerClosed(i)
}

// Summary aggregates a metric across replications.
type Summary struct {
	Mean float64 // mean across replications
	CI95 float64 // 95% Student-t half-width
	N    int     // replications
}

// ReplicatedResult aggregates replications of one (config, policy) cell.
type ReplicatedResult struct {
	Policy            string
	MeanResponseTime  Summary
	MeanResponseRatio Summary
	Fairness          Summary
	// JobFractions[i] is the across-replication mean fraction of jobs on
	// computer i.
	JobFractions []float64
	// Utilizations[i] is the across-replication mean utilization.
	Utilizations []float64
	// Availability[i] is the across-replication mean observed
	// availability of computer i; nil when the runs had no fault
	// injection.
	Availability []float64
	// JobsLost and MeanResponseTimeDegraded summarize the fault metrics
	// across replications (zero-valued without fault injection).
	JobsLost                 Summary
	MeanResponseTimeDegraded Summary
	// Runs holds the individual run results, in replication order.
	Runs []*Result
}

// PolicyFactory builds a fresh policy instance for each replication (a
// policy instance is stateful and owned by one run).
type PolicyFactory func() Policy

// RunReplications executes reps independent runs — replication r uses seed
// Seed+r — in parallel (bounded by GOMAXPROCS) and aggregates the metrics.
func RunReplications(cfg Config, factory PolicyFactory, reps int) (*ReplicatedResult, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("cluster: reps = %d, must be positive", reps)
	}
	results := make([]*Result, reps)
	errs := make([]error, reps)
	sem := make(chan struct{}, maxParallel())
	var wg sync.WaitGroup
	for r := 0; r < reps; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := cfg
			c.Seed = cfg.Seed + uint64(r)
			results[r], errs[r] = Run(c, factory())
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return Aggregate(results)
}

// MaxParallel, when positive, caps the number of replications executing
// concurrently in RunReplications; zero (the
// default) means GOMAXPROCS. Each replication is fully deterministic in
// its seed, so results are independent of this setting — the golden
// tests pin it to several values to prove exactly that.
var MaxParallel int

// maxParallel bounds replication parallelism.
func maxParallel() int {
	if MaxParallel > 0 {
		return MaxParallel
	}
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// Aggregate combines per-run results into a ReplicatedResult. All runs
// must have the same number of computers.
func Aggregate(runs []*Result) (*ReplicatedResult, error) {
	if len(runs) == 0 {
		return nil, errors.New("cluster: no runs to aggregate")
	}
	n := len(runs[0].JobFractions)
	var rt, rr, fair, lost, rtDeg stats.Sample
	fractions := make([]float64, n)
	utils := make([]float64, n)
	withFaults := runs[0].Availability != nil
	var avail []float64
	if withFaults {
		avail = make([]float64, n)
	}
	for _, run := range runs {
		if len(run.JobFractions) != n {
			return nil, fmt.Errorf("cluster: inconsistent computer counts (%d vs %d)", len(run.JobFractions), n)
		}
		rt.Add(run.MeanResponseTime)
		rr.Add(run.MeanResponseRatio)
		fair.Add(run.Fairness)
		for i := 0; i < n; i++ {
			fractions[i] += run.JobFractions[i] / float64(len(runs))
			utils[i] += run.Utilizations[i] / float64(len(runs))
		}
		if withFaults {
			if run.Availability == nil {
				return nil, errors.New("cluster: mixing fault-injected and fault-free runs")
			}
			lost.Add(float64(run.JobsLost))
			rtDeg.Add(run.MeanResponseTimeDegraded)
			for i := 0; i < n; i++ {
				avail[i] += run.Availability[i] / float64(len(runs))
			}
		}
	}
	agg := &ReplicatedResult{
		Policy:            runs[0].Policy,
		MeanResponseTime:  Summary{rt.Mean(), rt.CI95(), rt.N()},
		MeanResponseRatio: Summary{rr.Mean(), rr.CI95(), rr.N()},
		Fairness:          Summary{fair.Mean(), fair.CI95(), fair.N()},
		JobFractions:      fractions,
		Utilizations:      utils,
		Runs:              runs,
	}
	if withFaults {
		agg.Availability = avail
		agg.JobsLost = Summary{lost.Mean(), lost.CI95(), lost.N()}
		agg.MeanResponseTimeDegraded = Summary{rtDeg.Mean(), rtDeg.CI95(), rtDeg.N()}
	}
	return agg, nil
}
