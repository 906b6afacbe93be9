package faults

import (
	"fmt"

	"heterosched/internal/rng"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// Hooks lets the embedding run (internal/cluster) react to fault events.
// All hooks are optional except Requeue, which is required when the fate
// policy is RequeueToDispatcher.
type Hooks struct {
	// OnFail fires when computer i goes down, after its jobs have been
	// evicted and before their fates are applied, so that a requeued
	// job is re-dispatched by a policy that has been told of the
	// failure (at zero detection lag it is not sent straight back).
	OnFail func(i int)
	// OnRepair fires when computer i comes back up, after held jobs have
	// resumed service.
	OnRepair func(i int)
	// Requeue re-dispatches a job whose computer failed (or that arrived
	// at a down computer) under RequeueToDispatcher. The job's Remaining
	// has been reset to its full size and Retries incremented.
	Requeue func(j *sim.Job)
	// OnLost fires for each discarded job (fate Lost, or retry budget
	// exhausted under RequeueToDispatcher).
	OnLost func(j *sim.Job)
	// OnEnterService fires when a dispatched job enters service at up
	// computer i, immediately before the server admits it (observability).
	OnEnterService func(i int, j *sim.Job)
	// OnEvict fires for each job evicted by computer i's failure, before
	// the job's fate is applied (observability).
	OnEvict func(i int, j *sim.Job)
	// OnResume fires when a held job re-enters service at repaired
	// computer i, immediately before the server resumes it (observability).
	OnResume func(i int, j *sim.Job)
}

// Injector drives the per-computer failure/repair renewal processes on a
// simulation engine and owns all job routing into the servers while
// failures are possible: arrivals must go through Arrive so jobs landing
// on a down computer are held or requeued instead of entering service.
type Injector struct {
	en      *sim.Engine
	cfg     *Config
	servers []sim.Server
	hooks   Hooks
	horizon float64
	retries int

	streams []*rng.Stream
	up      []bool
	numDown int
	// pending holds jobs waiting at a down computer (fates
	// RestartInPlace / ResumeOnRepair, and arrivals during an outage),
	// in arrival order.
	pending [][]*sim.Job

	avail    []stats.TimeWeighted
	degraded stats.TimeWeighted

	failures, repairs           int64
	lost, requeued              int64
	restarted, resumed, arrived int64
}

// NewInjector builds an injector for the given servers. The stream st is
// consumed only via derivation: each computer gets the independent child
// stream st.DeriveIndexed("computer", i). Failures whose sampled time
// falls past horizon are not scheduled, so the event chain terminates
// and the post-horizon drain completes; repairs are always scheduled,
// even past the horizon, so held jobs are never stranded.
func NewInjector(en *sim.Engine, cfg *Config, servers []sim.Server, st *rng.Stream, horizon float64, hooks Hooks) (*Injector, error) {
	n := len(servers)
	if err := cfg.Validate(n); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, ErrNoFailureModel
	}
	if cfg.Fate == RequeueToDispatcher && hooks.Requeue == nil {
		return nil, fmt.Errorf("faults: RequeueToDispatcher needs a Requeue hook")
	}
	inj := &Injector{
		en:      en,
		cfg:     cfg,
		servers: servers,
		hooks:   hooks,
		horizon: horizon,
		retries: cfg.maxRetries(),
		streams: make([]*rng.Stream, n),
		up:      make([]bool, n),
		pending: make([][]*sim.Job, n),
		avail:   make([]stats.TimeWeighted, n),
	}
	for i := 0; i < n; i++ {
		inj.streams[i] = st.DeriveIndexed("computer", i)
		inj.up[i] = true
	}
	return inj, nil
}

// Start opens the availability clocks and schedules each computer's first
// failure. Call it once, before the run's first arrival.
func (inj *Injector) Start() {
	now := inj.en.Now()
	for i := range inj.up {
		inj.avail[i].Update(now, 1)
		inj.scheduleFailure(i)
	}
	inj.degraded.Update(now, 0)
}

// scheduleFailure samples computer i's next uptime and schedules the
// failure, unless it lands past the horizon (then the renewal process
// ends for this run — the computer stays up through the drain).
func (inj *Injector) scheduleFailure(i int) {
	dt := inj.cfg.uptimeFor(i).Sample(inj.streams[i])
	if dt < 0 {
		dt = 0
	}
	t := inj.en.Now() + dt
	if !(t <= inj.horizon) { // also skips NaN and +Inf
		return
	}
	inj.en.Schedule(t, func() { inj.fail(i) })
}

// fail takes computer i down: evict its jobs, announce the failure,
// apply the fate policy, and schedule the repair.
func (inj *Injector) fail(i int) {
	if !inj.up[i] {
		panic(fmt.Sprintf("faults: computer %d failed while down", i))
	}
	now := inj.en.Now()
	inj.up[i] = false
	inj.failures++
	inj.avail[i].Update(now, 0)
	inj.setDown(now, +1)

	evicted := inj.servers[i].Evict()
	if inj.hooks.OnEvict != nil {
		for _, j := range evicted {
			inj.hooks.OnEvict(i, j)
		}
	}
	if inj.hooks.OnFail != nil {
		inj.hooks.OnFail(i)
	}
	for _, j := range evicted {
		inj.applyFate(i, j)
	}

	dt := inj.cfg.downtimeFor(i).Sample(inj.streams[i])
	if dt < 0 {
		dt = 0
	}
	// Repairs are scheduled unconditionally: a failure near the horizon
	// must still be repaired during the drain, or held jobs would never
	// complete and RunUntil(+Inf) would not terminate.
	inj.en.ScheduleAfter(dt, func() { inj.repair(i) })
}

// repair brings computer i back up, resumes its held jobs in arrival
// order, and schedules the next failure.
func (inj *Injector) repair(i int) {
	if inj.up[i] {
		panic(fmt.Sprintf("faults: computer %d repaired while up", i))
	}
	now := inj.en.Now()
	inj.up[i] = true
	inj.repairs++
	inj.avail[i].Update(now, 1)
	inj.setDown(now, -1)

	held := inj.pending[i]
	inj.pending[i] = nil
	for _, j := range held {
		if inj.hooks.OnResume != nil {
			inj.hooks.OnResume(i, j)
		}
		inj.servers[i].Resume(j)
	}

	inj.scheduleFailure(i)

	if inj.hooks.OnRepair != nil {
		inj.hooks.OnRepair(i)
	}
}

// applyFate disposes of one job evicted from failed computer i.
func (inj *Injector) applyFate(i int, j *sim.Job) {
	switch inj.cfg.Fate {
	case Lost:
		inj.lose(j)
	case RestartInPlace:
		j.Remaining = j.Size
		inj.restarted++
		inj.pending[i] = append(inj.pending[i], j)
	case ResumeOnRepair:
		inj.resumed++
		inj.pending[i] = append(inj.pending[i], j)
	case RequeueToDispatcher:
		inj.requeue(j)
	}
}

// requeue sends a job back to the dispatcher (restarting from scratch),
// or loses it once its retry budget is spent.
func (inj *Injector) requeue(j *sim.Job) {
	j.Retries++
	if j.Retries > inj.retries {
		inj.lose(j)
		return
	}
	j.Remaining = j.Size
	inj.requeued++
	inj.hooks.Requeue(j)
}

// lose discards a job permanently.
func (inj *Injector) lose(j *sim.Job) {
	inj.lost++
	if inj.hooks.OnLost != nil {
		inj.hooks.OnLost(j)
	}
}

// Arrive routes a dispatched job to computer i. If the computer is up the
// job enters service normally; if it is down, the job is requeued (under
// RequeueToDispatcher, consuming a retry — the dispatcher may not have
// detected the failure yet) or held until the repair.
func (inj *Injector) Arrive(i int, j *sim.Job) {
	inj.arrived++
	if inj.up[i] {
		if inj.hooks.OnEnterService != nil {
			inj.hooks.OnEnterService(i, j)
		}
		inj.servers[i].Arrive(j)
		return
	}
	if inj.cfg.Fate == RequeueToDispatcher {
		inj.requeue(j)
		return
	}
	j.Remaining = j.Size
	inj.pending[i] = append(inj.pending[i], j)
}

// setDown adjusts the down-computer count and the degraded-time clock.
func (inj *Injector) setDown(now float64, delta int) {
	inj.numDown += delta
	v := 0.0
	if inj.numDown > 0 {
		v = 1
	}
	inj.degraded.Update(now, v)
}

// Finish closes the availability and degraded-time clocks at time t.
func (inj *Injector) Finish(t float64) {
	for i := range inj.avail {
		inj.avail[i].Finish(t)
	}
	inj.degraded.Finish(t)
}

// Up reports whether computer i is currently up.
func (inj *Injector) Up(i int) bool { return inj.up[i] }

// UpSet returns a copy of the current availability mask.
func (inj *Injector) UpSet() []bool {
	return append([]bool(nil), inj.up...)
}

// AnyDown reports whether at least one computer is currently down.
func (inj *Injector) AnyDown() bool { return inj.numDown > 0 }

// Availability returns the observed time-weighted availability of
// computer i (fraction of elapsed time spent up).
func (inj *Injector) Availability(i int) float64 { return inj.avail[i].Mean() }

// DegradedTime returns the total time at least one computer was down.
func (inj *Injector) DegradedTime() float64 { return inj.degraded.Area() }

// Failures returns the number of failure events.
func (inj *Injector) Failures() int64 { return inj.failures }

// Repairs returns the number of repair events.
func (inj *Injector) Repairs() int64 { return inj.repairs }

// JobsLost returns the number of jobs discarded.
func (inj *Injector) JobsLost() int64 { return inj.lost }

// JobsRequeued returns the number of successful re-dispatches.
func (inj *Injector) JobsRequeued() int64 { return inj.requeued }

// JobsRestarted returns the number of restart-in-place holds.
func (inj *Injector) JobsRestarted() int64 { return inj.restarted }

// JobsResumed returns the number of resume-on-repair holds.
func (inj *Injector) JobsResumed() int64 { return inj.resumed }
