// Package probe is the simulator's observability layer: a metrics
// registry with typed counters, gauges and time-weighted series; a
// structured job-lifecycle event stream with JSONL and CSV exporters; a
// per-run manifest; and opt-in live introspection over expvar and pprof.
//
// Everything is opt-in and inert by default: a run with no probe attached
// (cluster.Config.Probe nil, or a Probe with no options enabled) is
// bit-identical to a build without this package — no random streams are
// derived, no simulation events are scheduled, and no hot-path work is
// done. The internal/sched golden tests lock that promise.
//
// The hot path (counter increments, gauge sets, series updates,
// histogram adds) performs no allocations and takes no lock: metric
// handles are created once at registration and mutated in place, with
// atomics for every value the live snapshot reads, so live readers (the
// -debug-addr expvar endpoint) can snapshot a running simulation without
// a lock. Histograms are not in that snapshot: each has a single writer
// and is read after the run.
package probe

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"heterosched/internal/stats"
)

// Counter is a monotonically increasing event count. Safe for concurrent
// read (atomic); written from the single simulation goroutine.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d >= 0 for counters; not enforced on the hot path).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value (e.g. jobs in system). Stored as
// atomic bits so live readers never see a torn value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Point is one sampled (time, value) pair of a Series.
type Point struct {
	T float64
	V float64
}

// Series is a piecewise-constant signal over simulation time (queue
// length, up/down state, breaker state). Update integrates the signal at
// every event boundary into a time-weighted mean; AddPoint records cadence
// samples for time-series export. The current value is additionally kept
// in atomic bits for lock-free live reads.
type Series struct {
	name string
	cur  atomic.Uint64

	// tw is touched only by the simulation goroutine.
	tw stats.TimeWeighted

	mu     sync.Mutex
	points []Point
}

// Name returns the metric name.
func (s *Series) Name() string { return s.name }

// Update records that the signal takes value v from time t onward
// (event-boundary integration; t must be non-decreasing).
func (s *Series) Update(t, v float64) {
	s.tw.Update(t, v)
	s.cur.Store(math.Float64bits(v))
}

// Value returns the current (most recently updated) value.
func (s *Series) Value() float64 { return math.Float64frombits(s.cur.Load()) }

// AddPoint appends one cadence sample.
func (s *Series) AddPoint(t, v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{T: t, V: v})
	s.mu.Unlock()
}

// Points returns a copy of the sampled points.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Finish closes the time-weighted integration at time t. Call once, after
// the run, from the simulation goroutine.
func (s *Series) Finish(t float64) { s.tw.Finish(t) }

// Mean returns the time-weighted mean of the signal over the observed
// duration. Meaningful after Finish (or mid-run from the simulation
// goroutine).
func (s *Series) Mean() float64 { return s.tw.Mean() }

// Hist is a streaming latency histogram metric: log-bucketed bins that
// answer p50/p90/p99/p999 queries without retaining samples (see
// stats.Histogram for the one-bin-width error bound). Add is
// allocation-free.
//
// A Hist has a single writer and no lock: it belongs to one run's probe
// (a probe serves exactly one run), which adds to it from the simulation
// goroutine. Read N and Quantiles from that goroutine or after the run;
// the live Snapshot skips histograms, and FinalSnapshot runs after the
// run.
type Hist struct {
	name string
	h    *stats.Histogram
}

// Name returns the metric name.
func (h *Hist) Name() string { return h.name }

// Add records one observation. Values below the histogram floor land in
// the underflow bucket (reported as the floor by quantile queries).
func (h *Hist) Add(x float64) { h.h.Add(x) }

// N returns the number of observations.
func (h *Hist) N() int64 { return h.h.N() }

// Quantiles estimates the given quantiles (ascending) from the bins.
func (h *Hist) Quantiles(qs ...float64) []float64 { return h.h.Quantiles(qs...) }

// Registry holds a run's metrics by name. Registration (Counter, Gauge,
// Series, Hist) is get-or-create and intended for setup time; the
// returned handles are then mutated allocation-free on the hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	series   map[string]*Series
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		series:   map[string]*Series{},
		hists:    map[string]*Hist{},
	}
}

// Counter returns the counter registered under name, creating it if
// needed. It panics if the name is already taken by another metric type.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Series returns the series registered under name, creating it if needed.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		return s
	}
	r.checkFree(name, "series")
	s := &Series{name: name}
	r.series[name] = s
	return s
}

// Hist returns the streaming histogram registered under name, creating
// it with the given log-bucket geometry if needed (see
// stats.NewLogHistogram). Geometry is fixed at first registration.
func (r *Registry) Hist(name string, lo, hi float64, bins int) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFree(name, "hist")
	h := &Hist{name: name, h: stats.NewLogHistogram(lo, hi, bins)}
	r.hists[name] = h
	return h
}

// checkFree panics when name is registered under a different metric type;
// callers hold r.mu.
func (r *Registry) checkFree(name, as string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("probe: %q already registered as a counter, not a %s", name, as))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("probe: %q already registered as a gauge, not a %s", name, as))
	}
	if _, ok := r.series[name]; ok {
		panic(fmt.Sprintf("probe: %q already registered as a series, not a %s", name, as))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("probe: %q already registered as a hist, not a %s", name, as))
	}
}

// Snapshot returns every metric's current value by name: counters and
// gauges directly, series as their current value under "<name>". It is
// safe to call concurrently with a running simulation (atomic reads only)
// and is what the expvar endpoint serves.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+len(r.series))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, s := range r.series {
		out[n] = s.Value()
	}
	return out
}

// FinalSnapshot returns the post-run snapshot: counters, gauges, for
// each series its time-weighted mean under "<name>.mean", and for each
// non-empty histogram its streaming percentiles under "<name>.p50" /
// ".p90" / ".p99" / ".p999" plus the count under "<name>.n". Call only
// after the simulation finished (it reads non-atomic state).
func (r *Registry) FinalSnapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+2*len(r.series)+5*len(r.hists))
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, s := range r.series {
		out[n+".mean"] = s.Mean()
	}
	for n, h := range r.hists {
		if h.N() == 0 {
			continue
		}
		q := h.Quantiles(0.50, 0.90, 0.99, 0.999)
		out[n+".p50"] = q[0]
		out[n+".p90"] = q[1]
		out[n+".p99"] = q[2]
		out[n+".p999"] = q[3]
		out[n+".n"] = float64(h.N())
	}
	return out
}

// Names returns all registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.series)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.series {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
