package sim

// Job is one unit of work flowing through the simulated system.
//
// Size is the job's service demand expressed as the completion time on an
// idle computer of relative speed 1 (the paper's definition of job size,
// §2.3). Response time is Completion − Arrival; response ratio is response
// time divided by Size.
type Job struct {
	// ID is a unique, monotonically increasing identifier.
	ID int64
	// Size is the service demand in seconds at speed 1.
	Size float64
	// Arrival is the time the job arrived at the central scheduler.
	Arrival float64
	// Completion is the time the job finished; zero until it departs.
	Completion float64
	// Target is the index of the computer the scheduler selected.
	Target int
	// Remaining is the unserved demand in seconds at speed 1, set by
	// Server.Evict when the job is pulled off a failed computer and
	// consumed by Resume. It is zero for jobs that never lived through a
	// failure.
	Remaining float64
	// Retries counts how many times the job has been re-dispatched after
	// a computer failure (RequeueToDispatcher fate policy).
	Retries int
	// Degraded records that the job arrived while at least one computer
	// was down, for response-time conditioning on degraded windows.
	Degraded bool
	// Deadline is the absolute time by which the job must complete to
	// count toward goodput; zero means no deadline. Set by the overload
	// layer (internal/cluster) when a deadline distribution is configured.
	Deadline float64
	// Attempts counts dispatcher-level re-dispatches after timeouts or
	// admission rejections (overload retry/backoff). It is distinct from
	// Retries, which counts failure-driven requeues.
	Attempts int
	// Killed marks a job condemned by deadline expiry. A killed job that
	// nevertheless completes (it was unreachable at expiry, e.g. held at a
	// failed computer) is excluded from statistics.
	Killed bool
	// Probe marks a circuit-breaker half-open probe dispatch.
	Probe bool
	// ProbeTarget is the computer whose breaker this probe tests, valid
	// only while Probe is set. It is recorded separately from Target
	// because the network layer rebinds Target to wherever a transit
	// copy actually lands — the probe's verdict must still reach the
	// breaker that dispatched it.
	ProbeTarget int
	// Finalized marks that the job's terminal outcome has been recorded
	// (completion, kill, shed, drop, rejection or loss). The run uses it
	// to guarantee exactly-once terminal accounting when subsystems
	// overlap — e.g. a deadline-killed job that later surfaces from a
	// failed computer must not be finalized twice.
	Finalized bool
	// TimeoutEvent and DeadlineEvent are the overload layer's pending
	// timers for this job, cancelled when the job leaves the system. The
	// zero value means no timer is armed.
	TimeoutEvent, DeadlineEvent Event
	// AckEvent is the network-fault layer's pending ack-timeout timer for
	// this job's latest dispatch, cancelled when the acceptance ack
	// arrives or the job leaves the system.
	AckEvent Event
	// NetAccepted marks that a computer has accepted a delivery of this
	// job; later deliveries of duplicated or resubmitted copies are
	// deduplicated against it. Cleared when the job verifiably leaves its
	// server (overload timeout, failure requeue) so re-dispatch works.
	NetAccepted bool
	// NetEpoch is the job's delivery epoch: bumped whenever the job
	// verifiably leaves its server and its delivery state is reclaimed.
	// Transit copies are stamped with the epoch they were sent under, so
	// a stale duplicate from a superseded dispatch cannot land as a
	// fresh delivery after the reclaim cleared NetAccepted — without the
	// stamp, a lagging duplicate re-enters a server the moment the
	// overload retry loop also owns the job.
	NetEpoch int
	// Resubmits counts network-layer resubmissions after ack timeouts or
	// client-timeout rescues; distinct from Retries (failure requeues)
	// and Attempts (overload retry/backoff).
	Resubmits int
	// SpanSlot is the probe span layer's slab slot for this job, offset
	// by one so the zero value means "no span". It is owned entirely by
	// internal/probe (set at admission, cleared at finalization) and is
	// reset with the rest of the exported fields when the arena recycles
	// the job.
	SpanSlot int32
	// NetSlot is the network-fault layer's outstanding-dispatch slab
	// slot for this job, offset by one like SpanSlot (0 = not tracked).
	// It is owned by internal/cluster: set when a dispatch is tracked,
	// cleared when the entry is freed (ack, reclaim, resubmission budget
	// spent, terminal outcome).
	NetSlot int32

	// attained is the virtual-time target used internally by PS servers,
	// or the remaining work for quantum/FCFS servers.
	attained float64
	// heapIdx is the job's index in its server's internal heap; -1 when
	// the job is not at a server.
	heapIdx int
	// gen is the arena recycling generation; JobRef handles compare it to
	// detect use-after-Put. Jobs not managed by a JobArena keep gen 0.
	gen uint32
}

// ResponseTime returns Completion − Arrival.
func (j *Job) ResponseTime() float64 { return j.Completion - j.Arrival }

// ResponseRatio returns the job's response time divided by its size.
func (j *Job) ResponseRatio() float64 { return j.ResponseTime() / j.Size }

// Server models one computer: jobs arrive, are served at the computer's
// speed under some discipline, and depart via the server's callback.
// PSServer and RRServer implement it, and Bounded wraps either one.
type Server interface {
	// Arrive hands a job to the server at the current engine time.
	Arrive(j *Job)
	// InService returns the number of jobs currently at the server.
	InService() int
	// BusyTime returns the cumulative time the server has been non-idle,
	// up to the current engine time.
	BusyTime() float64
	// Evict removes every job from the server (in service and queued) —
	// a computer failure — sets each job's Remaining field to its
	// unserved demand at speed 1, and returns the jobs. The server is
	// idle afterwards; busy time is charged up to the current engine
	// time.
	Evict() []*Job
	// Resume re-admits an evicted job with service demand Remaining
	// (rather than Size). A job with zero Remaining departs immediately.
	Resume(j *Job)
	// Remove extracts j if it is currently at this server — the
	// primitive behind queue reneging (deadline expiry) and dispatcher
	// timeouts in the overload-protection layer — setting its Remaining
	// field to its unserved demand at speed 1 (like Evict, for one job),
	// and reports whether j was present. The server's departure callback
	// is not invoked for removed jobs.
	Remove(j *Job) bool
}

var (
	_ Server = (*PSServer)(nil)
	_ Server = (*RRServer)(nil)
	_ Server = (*Bounded)(nil)
)
