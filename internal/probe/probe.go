package probe

import (
	"fmt"
	"math"
	"strconv"

	"heterosched/internal/stats"
)

// Options selects which probe facilities a run activates. The zero value
// activates nothing: a Probe built from it reports Enabled() == false and
// the simulation treats it exactly like a nil probe.
type Options struct {
	// Metrics activates the metrics registry: per-computer queue length,
	// up/down state, breaker state and in-system count as time-weighted
	// series updated on event boundaries, plus per-computer interarrival
	// statistics (the §3 burstiness measurement).
	Metrics bool
	// SampleDT, when positive, additionally samples the series every
	// SampleDT simulated seconds; samples are exported as "sample" events
	// when an event writer is attached. Implies Metrics.
	SampleDT float64
	// Events, when non-nil, receives the structured lifecycle event
	// stream (JSONL or CSV exporter, or any custom sink).
	Events EventWriter
	// Spans activates the span layer (see span.go): per-job response
	// time decomposition into queue/service/net/retry, aggregated per
	// computer and per terminal cause, with streaming per-component
	// latency histograms in the registry.
	Spans bool
	// SpanSink, when non-nil, additionally receives every closed span
	// (e.g. a ChromeTraceWriter exporting a Perfetto-loadable trace).
	// Implies span assembly even when Spans is false.
	SpanSink SpanSink
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.SampleDT < 0 || math.IsNaN(o.SampleDT) || math.IsInf(o.SampleDT, 0) {
		return fmt.Errorf("probe: sample interval %v invalid (must be >= 0 and finite)", o.SampleDT)
	}
	return nil
}

// Probe is one run's observability attachment. A Probe belongs to exactly
// one simulation run (it is not safe to share across parallel
// replications); metric reads through Registry().Snapshot() are safe from
// other goroutines while the run executes.
type Probe struct {
	opts Options
	reg  *Registry

	n int // computers, set by Start

	counts [numEventKinds]*Counter

	queueLen []*Series
	upState  []*Series
	breaker  []*Series
	inSystem *Series
	utilPts  []*Series

	lastArrival []float64
	interGaps   []stats.Accumulator
	lastBusy    []float64
	lastSample  float64

	// Delivered-stream statistics: gaps between successive *deliveries*
	// at each computer. With a perfect network these track the dispatch
	// substreams; transit latency, loss and resubmission jitter them,
	// which is exactly the degradation ext-netfaults measures.
	lastDelivery  []float64
	deliveredGaps []stats.Accumulator

	// Per-dispatcher (shard) series, allocated by StartShards only when
	// a multi-dispatcher policy is active (inert otherwise): per-replica
	// decision counts and the interarrival statistics of each replica's
	// arrival substream.
	shardJobs    []int64
	shardLast    []float64
	shardGaps    []stats.Accumulator
	shardCounter []*Counter

	// Netfault series, allocated by StartNetfault only when the
	// network-fault layer is active (inert otherwise).
	linkInFlight []*Series
	linkLoss     []*Counter
	linkDup      []*Counter
	dispUp       *Series
	stateAge     *Series

	// Control-plane series, allocated by StartCtrl only when the
	// ctrlplane layer is active (inert otherwise): control messages in
	// flight, and the age of cached state served when probes miss.
	ctrlInFlight *Series
	ctrlStale    *Series

	// Span layer (see span.go), active only under Options.Spans or a
	// SpanSink.
	spanSpeeds     []float64
	spanSlab       []spanRec
	spanFree       []int32
	spanTotals     compAgg
	spanByComp     []compAgg
	spanByCause    map[string]*compAgg
	spanHists      [][]*Hist
	spanRoots      int64
	lastFinalID    int64
	lastFinalComps SpanComponents

	// ev is the one Event that Emit hands to the writer, overwritten on
	// every call (writers must not retain it), so emitting allocates
	// nothing.
	ev  Event
	err error
}

// New builds a probe from options. A probe with nothing enabled is valid
// and inert.
func New(o Options) (*Probe, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.SampleDT > 0 {
		o.Metrics = true
	}
	p := &Probe{opts: o, reg: NewRegistry()}
	for k := 0; k < numEventKinds; k++ {
		p.counts[k] = p.reg.Counter("events." + EventKind(k).String())
	}
	return p, nil
}

// Enabled reports whether the probe does anything at all. The simulation
// must treat a nil or disabled probe as fully off.
func (p *Probe) Enabled() bool {
	return p != nil && (p.opts.Metrics || p.opts.Events != nil || p.SpansOn())
}

// EventsOn reports whether a lifecycle event writer is attached.
func (p *Probe) EventsOn() bool { return p != nil && p.opts.Events != nil }

// SampleDT returns the cadence sampling interval (0 = event-boundary
// integration only).
func (p *Probe) SampleDT() float64 { return p.opts.SampleDT }

// Registry exposes the metrics registry (nil until New).
func (p *Probe) Registry() *Registry { return p.reg }

// Err returns the first event-writer error, if any.
func (p *Probe) Err() error { return p.err }

// Start sizes the per-computer metric vectors; the simulation calls it
// once before the first arrival.
func (p *Probe) Start(n int, now float64) {
	p.n = n
	if !p.opts.Metrics {
		return
	}
	p.queueLen = make([]*Series, n)
	p.upState = make([]*Series, n)
	p.breaker = make([]*Series, n)
	p.utilPts = make([]*Series, n)
	p.lastArrival = make([]float64, n)
	p.interGaps = make([]stats.Accumulator, n)
	p.lastBusy = make([]float64, n)
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		p.queueLen[i] = p.reg.Series("queue_len." + is)
		p.upState[i] = p.reg.Series("up." + is)
		p.breaker[i] = p.reg.Series("breaker." + is)
		p.utilPts[i] = p.reg.Series("util." + is)
		p.queueLen[i].Update(now, 0)
		p.upState[i].Update(now, 1)
		p.breaker[i].Update(now, 0)
		p.lastArrival[i] = math.NaN()
	}
	p.inSystem = p.reg.Series("in_system")
	p.inSystem.Update(now, 0)
	p.lastSample = now
	p.lastDelivery = make([]float64, n)
	p.deliveredGaps = make([]stats.Accumulator, n)
	for i := range p.lastDelivery {
		p.lastDelivery[i] = math.NaN()
	}
}

// StartShards sizes the per-dispatcher metric vectors for a K-replica
// sharded policy. The simulation calls it after Start, only when the
// policy actually shards (K > 1); otherwise these series never exist.
func (p *Probe) StartShards(k int) {
	if p == nil || k < 1 {
		return
	}
	p.shardJobs = make([]int64, k)
	p.shardLast = make([]float64, k)
	p.shardGaps = make([]stats.Accumulator, k)
	for i := range p.shardLast {
		p.shardLast[i] = math.NaN()
	}
	if p.opts.Metrics {
		p.shardCounter = make([]*Counter, k)
		for i := range p.shardCounter {
			p.shardCounter[i] = p.reg.Counter("shard_jobs." + strconv.Itoa(i))
		}
	}
}

// NoteShard records that the arrival at the given time was routed by
// dispatcher replica k, feeding the per-dispatcher decision counts and
// substream interarrival statistics.
func (p *Probe) NoteShard(k int, arrival float64) {
	if p.shardJobs == nil || k < 0 || k >= len(p.shardJobs) {
		return
	}
	p.shardJobs[k]++
	if p.shardCounter != nil {
		p.shardCounter[k].Inc()
	}
	if last := p.shardLast[k]; !math.IsNaN(last) {
		p.shardGaps[k].Add(arrival - last)
	}
	p.shardLast[k] = arrival
}

// Shards returns the number of dispatcher replicas being tracked (0
// when the policy does not shard).
func (p *Probe) Shards() int {
	if p == nil {
		return 0
	}
	return len(p.shardJobs)
}

// ShardJobs returns the number of arrivals routed by replica k.
func (p *Probe) ShardJobs(k int) int64 {
	if p == nil || k < 0 || k >= len(p.shardJobs) {
		return 0
	}
	return p.shardJobs[k]
}

// ShardCV returns the interarrival CV of replica k's routed substream
// and the number of gaps observed.
func (p *Probe) ShardCV(k int) (cv float64, gaps int64) {
	if p == nil || k < 0 || k >= len(p.shardGaps) {
		return 0, 0
	}
	return p.shardGaps[k].CV(), p.shardGaps[k].N()
}

// StartNetfault sizes the network-fault metric vectors: per-link
// in-flight, loss and duplication, plus dispatcher up/state-age series.
// The simulation calls it after Start, only when the netfault layer is
// active; otherwise these series never exist.
func (p *Probe) StartNetfault(now float64) {
	if !p.opts.Metrics {
		return
	}
	n := p.n
	p.linkInFlight = make([]*Series, n)
	p.linkLoss = make([]*Counter, n)
	p.linkDup = make([]*Counter, n)
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		p.linkInFlight[i] = p.reg.Series("link_inflight." + is)
		p.linkInFlight[i].Update(now, 0)
		p.linkLoss[i] = p.reg.Counter("net.loss." + is)
		p.linkDup[i] = p.reg.Counter("net.dup." + is)
	}
	p.dispUp = p.reg.Series("dispatcher_up")
	p.dispUp.Update(now, 1)
	p.stateAge = p.reg.Series("dispatcher_state_age")
	p.stateAge.Update(now, 0)
}

// StartCtrl sizes the control-plane metric series. The simulation calls
// it after Start, only when the ctrlplane layer is active; otherwise
// these series never exist.
func (p *Probe) StartCtrl(now float64) {
	if !p.opts.Metrics {
		return
	}
	p.ctrlInFlight = p.reg.Series("ctrl_inflight")
	p.ctrlInFlight.Update(now, 0)
	p.ctrlStale = p.reg.Series("ctrl_state_age")
	p.ctrlStale.Update(now, 0)
}

// SetCtrlInFlight records the number of control-plane messages (tokens,
// late query replies, sync frames) in transit.
func (p *Probe) SetCtrlInFlight(t float64, v int) {
	if p.ctrlInFlight != nil {
		p.ctrlInFlight.Update(t, float64(v))
	}
}

// NoteCtrlStaleness records the age of a cached observation a replica
// acted on in place of a live probe.
func (p *Probe) NoteCtrlStaleness(t, age float64) {
	if p.ctrlStale != nil {
		p.ctrlStale.Update(t, age)
	}
}

// Emit records one lifecycle event: the per-kind counter always, the
// stream when a writer is attached. The writer receives a pointer to the
// probe's one reused Event, so Emit allocates nothing with or without a
// writer. The first writer error is latched and stops further writes.
func (p *Probe) Emit(e Event) {
	p.counts[e.Kind].Inc()
	if p.opts.Events == nil || p.err != nil {
		return
	}
	p.ev = e
	if err := p.opts.Events.Write(&p.ev); err != nil {
		p.err = err
	}
}

// Flush drains the event writer.
func (p *Probe) Flush() error {
	if p.opts.Events == nil {
		return nil
	}
	if err := p.opts.Events.Flush(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}

// SetQueueLen updates computer i's queue-length series (jobs present, in
// service plus queued) at an event boundary.
func (p *Probe) SetQueueLen(t float64, i, qlen int) {
	if p.queueLen != nil {
		p.queueLen[i].Update(t, float64(qlen))
	}
}

// SetUp updates computer i's up/down series (1 = up).
func (p *Probe) SetUp(t float64, i int, up bool) {
	if p.upState != nil {
		v := 0.0
		if up {
			v = 1
		}
		p.upState[i].Update(t, v)
	}
}

// SetBreaker updates computer i's breaker-state series (0 = closed,
// 1 = open, 2 = half-open, matching dispatch.BreakerState).
func (p *Probe) SetBreaker(t float64, i, state int) {
	if p.breaker != nil {
		p.breaker[i].Update(t, float64(state))
	}
}

// SetInSystem updates the jobs-in-system series.
func (p *Probe) SetInSystem(t float64, v int64) {
	if p.inSystem != nil {
		p.inSystem.Update(t, float64(v))
	}
}

// NoteSubstream records that a job with the given arrival time was
// first-dispatched to computer i, feeding the per-computer interarrival
// statistics. Calls must come in non-decreasing arrival order (they do:
// first dispatch happens at arrival time).
func (p *Probe) NoteSubstream(i int, arrival float64) {
	if p.interGaps == nil {
		return
	}
	if last := p.lastArrival[i]; !math.IsNaN(last) {
		p.interGaps[i].Add(arrival - last)
	}
	p.lastArrival[i] = arrival
}

// InterarrivalCV returns the coefficient of variation of computer i's
// arrival substream gaps and the number of gaps observed. This is the §3
// burstiness measurement: round-robin splitting (ORR) yields smoother
// substreams (lower CV) than probabilistic splitting (ORAN) from the same
// arrival process.
func (p *Probe) InterarrivalCV(i int) (cv float64, gaps int64) {
	if p.interGaps == nil || i < 0 || i >= len(p.interGaps) {
		return 0, 0
	}
	return p.interGaps[i].CV(), p.interGaps[i].N()
}

// NoteDelivery records a job delivery at computer i at time t, feeding
// the delivered-interarrival statistics. Delivery times are event times,
// so calls arrive in non-decreasing order.
func (p *Probe) NoteDelivery(i int, t float64) {
	if p.deliveredGaps == nil {
		return
	}
	if last := p.lastDelivery[i]; !math.IsNaN(last) {
		p.deliveredGaps[i].Add(t - last)
	}
	p.lastDelivery[i] = t
}

// DeliveredCV returns the coefficient of variation of computer i's
// delivered interarrival gaps and the number of gaps observed. With a
// perfect control plane this matches the dispatch substream; network
// latency, loss and resubmission inflate it.
func (p *Probe) DeliveredCV(i int) (cv float64, gaps int64) {
	if p.deliveredGaps == nil || i < 0 || i >= len(p.deliveredGaps) {
		return 0, 0
	}
	return p.deliveredGaps[i].CV(), p.deliveredGaps[i].N()
}

// SetLinkInFlight updates link i's in-flight dispatch-copy series.
func (p *Probe) SetLinkInFlight(t float64, i, v int) {
	if p.linkInFlight != nil {
		p.linkInFlight[i].Update(t, float64(v))
	}
}

// NoteLinkLoss counts one lost (or partition-blocked) copy on link i.
func (p *Probe) NoteLinkLoss(i int) {
	if p.linkLoss != nil {
		p.linkLoss[i].Inc()
	}
}

// NoteLinkDup counts one duplicated dispatch on link i.
func (p *Probe) NoteLinkDup(i int) {
	if p.linkDup != nil {
		p.linkDup[i].Inc()
	}
}

// SetDispatcherUp updates the dispatcher up/down series (1 = up).
func (p *Probe) SetDispatcherUp(t float64, up bool) {
	if p.dispUp != nil {
		v := 0.0
		if up {
			v = 1
		}
		p.dispUp.Update(t, v)
	}
}

// NoteStateAge records the age of the dispatch state recovered at a
// restart (0 for reconstruct-from-acks, now−checkpoint for checkpoint
// recovery, -1 when cold reset recovered nothing).
func (p *Probe) NoteStateAge(t, age float64) {
	if p.stateAge != nil {
		p.stateAge.Update(t, age)
	}
}

// Sample takes one cadence sample at time t: per-computer queue length
// and cumulative busy time (for the utilization-over-interval series) and
// the in-system count. The simulation passes reused slices; Sample copies
// what it keeps. Samples are exported as EvSample events when a writer is
// attached.
func (p *Probe) Sample(t float64, queueLens []int, busy []float64, inSystem int64) {
	if p.queueLen == nil {
		return
	}
	dt := t - p.lastSample
	for i := 0; i < p.n; i++ {
		q := float64(queueLens[i])
		p.queueLen[i].Update(t, q)
		u := 0.0
		if dt > 0 {
			u = (busy[i] - p.lastBusy[i]) / dt
		}
		p.utilPts[i].Update(t, u)
		p.lastBusy[i] = busy[i]
		p.Emit(Event{T: t, Kind: EvSample, Target: i, Cause: "queue_len", Value: q})
		p.Emit(Event{T: t, Kind: EvSample, Target: i, Cause: "util", Value: u})
	}
	p.inSystem.Update(t, float64(inSystem))
	p.Emit(Event{T: t, Kind: EvSample, Target: -1, Cause: "in_system", Value: float64(inSystem)})
	p.lastSample = t
}

// FinishRun closes every time-weighted series at the run's end time and
// folds the interarrival CVs into the registry as gauges
// ("interarrival_cv.<i>"). Call once, after the simulation drained.
func (p *Probe) FinishRun(t float64) {
	if p.queueLen == nil {
		return
	}
	for i := 0; i < p.n; i++ {
		p.queueLen[i].Finish(t)
		p.upState[i].Finish(t)
		p.breaker[i].Finish(t)
		cv, gaps := p.InterarrivalCV(i)
		p.reg.Gauge("interarrival_cv." + strconv.Itoa(i)).Set(cv)
		p.reg.Gauge("interarrival_gaps." + strconv.Itoa(i)).Set(float64(gaps))
	}
	p.inSystem.Finish(t)
	if p.linkInFlight != nil {
		for i := 0; i < p.n; i++ {
			p.linkInFlight[i].Finish(t)
			cv, gaps := p.DeliveredCV(i)
			p.reg.Gauge("delivered_cv." + strconv.Itoa(i)).Set(cv)
			p.reg.Gauge("delivered_gaps." + strconv.Itoa(i)).Set(float64(gaps))
		}
		p.dispUp.Finish(t)
		p.stateAge.Finish(t)
	}
	if p.ctrlInFlight != nil {
		p.ctrlInFlight.Finish(t)
		p.ctrlStale.Finish(t)
	}
}

// KindCount is one row of the events-by-kind summary.
type KindCount struct {
	Kind  EventKind
	Count int64
}

// EventCounts returns the per-kind event totals in kind order, skipping
// kinds that never occurred.
func (p *Probe) EventCounts() []KindCount {
	var out []KindCount
	for k := 0; k < numEventKinds; k++ {
		if c := p.counts[k].Value(); c > 0 {
			out = append(out, KindCount{Kind: EventKind(k), Count: c})
		}
	}
	return out
}

// EventCountMap returns the per-kind totals keyed by wire name (for the
// manifest), skipping zero kinds.
func (p *Probe) EventCountMap() map[string]int64 {
	out := map[string]int64{}
	for k := 0; k < numEventKinds; k++ {
		if c := p.counts[k].Value(); c > 0 {
			out[EventKind(k).String()] = c
		}
	}
	return out
}
