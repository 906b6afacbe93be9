package sim

import "fmt"

// jobChunk is the arena's allocation unit. Chunked allocation keeps Job
// pointers stable (a growing flat slice would move them) while amortizing
// allocator calls to one per chunkSize jobs.
const jobChunkSize = 256

// JobArena is a per-run free-list allocator for Job objects. A simulation
// churns through millions of jobs whose lifetimes are strictly shorter
// than the run's; allocating each one individually makes the GC scan and
// sweep them forever. The arena hands out recycled Jobs instead:
// steady-state Get/Put perform no heap allocations, and the whole
// population is released at once when the arena (one per run) becomes
// unreachable.
//
// Put resets every exported field and bumps the job's generation, so
// JobRef handles taken before the release are detectably stale — the
// safety net for the faults/overload layers, whose per-job timers must
// never act on a recycled Job. Arenas are not safe for concurrent use;
// like the Engine, each replication owns its own.
type JobArena struct {
	chunks [][]Job
	free   []*Job
	// next is the first never-used index in the newest chunk.
	next int
}

// NewJobArena returns an empty arena; the first Get allocates the first
// chunk.
func NewJobArena() *JobArena { return &JobArena{} }

// Get returns a zeroed Job with heap bookkeeping reset. The Job's
// generation is preserved across recycling, so stale JobRef handles from
// a previous occupant do not resolve to the new one.
func (a *JobArena) Get() *Job {
	if n := len(a.free); n > 0 {
		j := a.free[n-1]
		a.free = a.free[:n-1]
		return j
	}
	if len(a.chunks) == 0 || a.next == jobChunkSize {
		a.chunks = append(a.chunks, make([]Job, jobChunkSize))
		a.next = 0
	}
	j := &a.chunks[len(a.chunks)-1][a.next]
	a.next++
	j.heapIdx = -1
	return j
}

// Put recycles a Job. The caller must guarantee the job has left every
// server, queue and held set, and that its pending timers (TimeoutEvent,
// DeadlineEvent) are cancelled; Put zeroes every exported field, bumps
// the generation, and makes the Job available to the next Get. Putting a
// job twice corrupts the free list — the generation panic exists to catch
// exactly the double-release and stale-handle mistakes that would
// otherwise silently mix two jobs' identities.
func (a *JobArena) Put(j *Job) {
	if j.heapIdx != -1 {
		panic(fmt.Sprintf("sim: arena Put of job %d still at a server (heap index %d)", j.ID, j.heapIdx))
	}
	gen := j.gen
	*j = Job{heapIdx: -1, gen: gen + 1}
	a.free = append(a.free, j)
}

// Ref returns a generation-checked weak handle to j.
func (a *JobArena) Ref(j *Job) JobRef { return JobRef{j: j, gen: j.gen} }

// JobRef is a weak, generation-checked handle to an arena Job. It is the
// safe way to hold a job across a scheduled delay (a deadline timer, a
// retry backoff): if the job is recycled in the meantime, Load reports
// the handle dead instead of resolving to the slot's new occupant.
type JobRef struct {
	j   *Job
	gen uint32
}

// Load returns the referenced job, or (nil, false) if it was recycled
// since the handle was taken.
func (r JobRef) Load() (*Job, bool) {
	if r.j == nil || r.j.gen != r.gen {
		return nil, false
	}
	return r.j, true
}
