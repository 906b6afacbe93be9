package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"heterosched/internal/alloc"
	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/dispatch"
	"heterosched/internal/experiments"
	"heterosched/internal/sim"
)

// This file is the traced run. It measures layers only from outside: a
// wrapper around the cluster.Policy times Init, Select and Departed, a
// wrapper around the bound StateView times QueueLen, and the engine's
// public counters are read through the Context the run hands to Init.

// meter accumulates one run's policy-call timings and engine samples.
type meter struct {
	en                 *sim.Engine
	initStart, initEnd time.Time
	selects, selectNs  int64
	departs, departNs  int64
	queries, queryNs   int64
	pendingMax         int
}

// timedPolicy times the four cluster.Policy methods of inner.
type timedPolicy struct {
	inner cluster.Policy
	m     *meter
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init(ctx *cluster.Context) error {
	p.m.en = ctx.Engine
	p.m.initStart = time.Now()
	err := p.inner.Init(ctx)
	p.m.initEnd = time.Now()
	return err
}

func (p *timedPolicy) Select(j *sim.Job) int {
	if n := p.m.en.Pending(); n > p.m.pendingMax {
		p.m.pendingMax = n
	}
	t0 := time.Now()
	k := p.inner.Select(j)
	p.m.selectNs += int64(time.Since(t0))
	p.m.selects++
	return k
}

func (p *timedPolicy) Departed(j *sim.Job) {
	t0 := time.Now()
	p.inner.Departed(j)
	p.m.departNs += int64(time.Since(t0))
	p.m.departs++
}

// timedView times QueueLen on the StateView the run binds.
type timedView struct {
	inner cluster.StateView
	m     *meter
}

func (v timedView) QueueLen(i int) int {
	t0 := time.Now()
	q := v.inner.QueueLen(i)
	v.m.queryNs += int64(time.Since(t0))
	v.m.queries++
	return q
}

func (v timedView) Age(i int) float64 { return v.inner.Age(i) }
func (v timedView) N() int            { return v.inner.N() }

// The run changes behaviour on which optional interfaces a policy
// implements, so a wrapper must present exactly the wrapped policy's
// set. Go cannot add methods at run time; each shape below embeds the
// optional interfaces of one set, and wrap refuses any other set.

// ifaceSet is a set of the optional policy interfaces cluster.Run
// inspects, one bit each in the order of ifaceNames.
type ifaceSet uint8

var ifaceNames = [...]string{"FaultAware", "StateAware", "CtrlAware", "DecisionCost", "ShardedPolicy", "FractionProvider", "Replannable"}

func ifacesOf(p cluster.Policy) ifaceSet {
	has := [...]bool{
		is[cluster.FaultAware](p), is[cluster.StateAware](p), is[cluster.CtrlAware](p),
		is[cluster.DecisionCost](p), is[cluster.ShardedPolicy](p),
		is[cluster.FractionProvider](p), is[cluster.Replannable](p),
	}
	var s ifaceSet
	for i, h := range has {
		if h {
			s |= 1 << i
		}
	}
	return s
}

func is[T any](p cluster.Policy) bool {
	_, ok := p.(T)
	return ok
}

func (s ifaceSet) String() string {
	var names []string
	for i, n := range ifaceNames {
		if s&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return "{" + strings.Join(names, ", ") + "}"
}

// staticShape is the set of sched.Static (ORR and the other static
// policies).
type staticShape struct {
	*timedPolicy
	cluster.FaultAware
	cluster.CtrlAware
	cluster.ShardedPolicy
	cluster.FractionProvider
	cluster.Replannable
}

// scalableShape is the set of sched.Scalable (jsq(d), pod(d), jiq); it
// wraps the view it is bound to.
type scalableShape struct {
	*timedPolicy
	cluster.FaultAware
	cluster.CtrlAware
	cluster.DecisionCost
	cluster.ShardedPolicy
}

func (s *scalableShape) BindState(v cluster.StateView) {
	s.inner.(cluster.StateAware).BindState(timedView{v, s.m})
}

// wrap returns p with its policy calls timed into m, presenting exactly
// p's optional interfaces.
func wrap(p cluster.Policy, m *meter) (cluster.Policy, error) {
	tp := &timedPolicy{inner: p, m: m}
	want := ifacesOf(p)
	var w cluster.Policy
	switch {
	case want == ifacesOf(&staticShape{}):
		w = &staticShape{tp, p.(cluster.FaultAware), p.(cluster.CtrlAware), p.(cluster.ShardedPolicy),
			p.(cluster.FractionProvider), p.(cluster.Replannable)}
	case want == ifacesOf(&scalableShape{}):
		w = &scalableShape{tp, p.(cluster.FaultAware), p.(cluster.CtrlAware), p.(cluster.DecisionCost),
			p.(cluster.ShardedPolicy)}
	default:
		return nil, fmt.Errorf("no timing wrapper presents the interface set %v of policy %s", want, p.Name())
	}
	return w, nil
}

// span is one recorded interval. Spans of one simulation run share
// Trace; Calls and BusyNs summarize a boundary crossed many times (the
// per-job policy calls), whose span covers the whole run.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Trace   int    `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
}

// spanLog keeps spans in memory until the benchmark ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(parent, trace int, name string, start, end time.Time, calls, busy int64) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNs: int64(start.Sub(l.origin)), EndNs: int64(end.Sub(l.origin)), Calls: calls, BusyNs: busy})
	return id
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedShare is the part of the time budget the untraced baseline of
// the traced run gets; the traced pass and the three layer on/off passes
// repeat its seeds and take about as long each.
const tracedShare = 0.18

// tracedRun measures the per-layer metrics of workload w.
func tracedRun(w workload, seed uint64, seconds float64, spansPath string) (*report, error) {
	rep := &report{}
	in, _, err := setUp(w, rep)
	if err != nil {
		return nil, err
	}
	log := &spanLog{origin: time.Now()}

	// Untraced baseline: the same loop as the end-to-end run, so its
	// digest matches that run's over the same seeds.
	p0 := time.Now()
	base := timedRuns(in, seed, seconds*tracedShare, 3, rep)
	log.add(0, 0, "phase.untraced", p0, time.Now(), int64(len(base)), 0)

	// Traced pass over the same seeds.
	p1 := time.Now()
	phase := log.add(0, 0, "phase.traced", p1, p1, int64(len(base)), 0) // end set below
	traced := make([]outcome, len(base))
	meters := make([]meter, len(base))
	var gcCycles, mallocs uint64
	var gcPauseNs, fired uint64
	for i := range base {
		m := &meters[i]
		pol, err := wrap(in.factory(), m)
		if err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		o := in.run(runSeed(seed, i), pol)
		runtime.ReadMemStats(&ms1)
		rep.note(o)
		traced[i] = o
		gcCycles += uint64(ms1.NumGC - ms0.NumGC)
		gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		mallocs += ms1.Mallocs - ms0.Mallocs
		if m.en != nil {
			fired += m.en.Fired()
		}
		end := o.start.Add(time.Duration(o.secs * 1e9))
		root := log.add(phase, i+1, "cluster.Run", o.start, end, 1, 0)
		log.add(root, i+1, "policy.Init", m.initStart, m.initEnd, 1, int64(m.initEnd.Sub(m.initStart)))
		log.add(root, i+1, "policy.Select", o.start, end, m.selects, m.selectNs)
		log.add(root, i+1, "policy.Departed", o.start, end, m.departs, m.departNs)
		log.add(root, i+1, "state.QueueLen", o.start, end, m.queries, m.queryNs)
	}
	log.spans[phase-1].EndNs = int64(time.Since(log.origin))

	if got, want := digest(traced), digest(base); got != want {
		rep.fail(fmt.Errorf("traced digest %s differs from untraced %s over %d runs", got, want, len(base)))
	}
	rep.digest = digest(base[:min(len(base), digestRuns)])

	// Layer on/off passes over the same seeds: each switches one layer,
	// off where the workload has it and on (with the faulty workload's
	// spec) where it does not.
	var onRuns [numLayers][]outcome
	var onCost [numLayers]float64
	for l := layer(0); l < numLayers; l++ {
		tin, err := w.toggled(l).build()
		if err != nil {
			return nil, err
		}
		p := time.Now()
		runs := make([]outcome, len(base))
		for i := range base {
			runs[i] = tin.run(runSeed(seed, i), tin.factory())
			rep.note(runs[i])
		}
		log.add(0, 0, "phase.toggle."+l.String(), p, time.Now(), int64(len(runs)), 0)
		on, off := base, runs
		if !w.on(l) {
			on, off = runs, base
		}
		onRuns[l] = on
		onCost[l] = meanRefSecs(on) - meanRefSecs(off)
	}

	var initNs, selects, selectNs, departs, departNs, queries, queryNs int64
	pendingMax := 0
	for _, m := range meters {
		initNs += int64(m.initEnd.Sub(m.initStart))
		selects += m.selects
		selectNs += m.selectNs
		departs += m.departs
		departNs += m.departNs
		queries += m.queries
		queryNs += m.queryNs
		pendingMax = max(pendingMax, m.pendingMax)
	}
	n := float64(len(traced))
	jobs := float64(sumJobs(traced))
	var runNs float64
	scales := make([]float64, len(traced))
	for i, o := range traced {
		runNs += o.secs * 1e9
		scales[i] = o.scale()
	}
	// sc turns the host times below into reference-host times.
	sc := median(scales)

	solveUs, err := allocSolveUs(in.cfg.Speeds)
	if err != nil {
		return nil, err
	}
	rep.add("alloc.solve_us", "us", solveUs*sc)
	rep.add("sched.init_ms", "ms", ratio(float64(initNs), n)/1e6*sc)
	rep.add("dispatch.selects", "count", ratio(float64(selects), n))
	rep.add("dispatch.select_ns", "ns", ratio(float64(selectNs), float64(selects))*sc)
	rep.add("dispatch.select_share", "ratio", ratio(float64(selectNs), runNs))
	rep.add("dispatch.departed_calls", "count", ratio(float64(departs), n))
	rep.add("dispatch.departed_ns", "ns", ratio(float64(departNs), float64(departs))*sc)
	rep.add("state.queries_per_select", "ratio", ratio(float64(queries), float64(selects)))
	rep.add("state.query_ns", "ns", ratio(float64(queryNs), float64(queries))*sc)
	rep.add("sim.events", "count", ratio(float64(fired), n))
	rep.add("sim.events_per_job", "ratio", ratio(float64(fired), jobs))
	rep.add("sim.event_ns", "ns", ratio(runNs-float64(initNs+selectNs+departNs), float64(fired))*sc)
	rep.add("sim.pending_max", "count", float64(pendingMax))

	var nfSent, nfResub, nfDedup, tokSent, tokSpent, decisions, timeouts float64
	for _, o := range onRuns[layerNetfault] {
		if nf := o.nf; nf != nil {
			nfSent += float64(nf.Sent)
			nfResub += float64(nf.Resubmits)
			nfDedup += float64(nf.DupDeliveries + nf.StaleDeliveries)
		}
	}
	for _, o := range onRuns[layerCtrl] {
		if c := o.ctrl; c != nil {
			tokSent += float64(c.TokensSent)
			tokSpent += float64(c.TokensSpent)
			decisions += float64(c.Decisions)
			timeouts += float64(c.DecisionTimeouts)
		}
	}
	var roots, residual float64
	for _, o := range onRuns[layerProbe] {
		roots += float64(o.roots)
		if o.spans.N > 0 {
			residual = math.Max(residual, math.Abs(o.spans.Total()/float64(o.spans.N)-o.tbar))
		}
	}
	rep.add("netfault.sent", "count", ratio(nfSent, n))
	rep.add("netfault.resubmit_ratio", "ratio", ratio(nfResub, nfSent))
	rep.add("netfault.dedup_ratio", "ratio", ratio(nfDedup, nfSent))
	rep.add("ctrl.tokens_sent", "count", ratio(tokSent, n))
	rep.add("ctrl.token_spend_ratio", "ratio", ratio(tokSpent, tokSent))
	rep.add("ctrl.query_timeout_ratio", "ratio", ratio(timeouts, decisions))
	rep.add("probe.spans", "count", ratio(roots, n))
	rep.add("probe.decomp_residual_s", "s", residual)
	rep.add("go.gc_cycles", "count", ratio(float64(gcCycles), n))
	rep.add("go.gc_pause_ms", "ms", ratio(float64(gcPauseNs), n)/1e6*sc)
	rep.add("go.mallocs_per_job", "ratio", ratio(float64(mallocs), jobs))
	for l := layer(0); l < numLayers; l++ {
		rep.add(l.String()+".on_cost_s", "s", onCost[l])
	}

	p := time.Now()
	for _, size := range []int{15, 200, 800, 3200} {
		ns, err := rrNextNs(size)
		if err != nil {
			return nil, err
		}
		rep.add(fmt.Sprintf("dispatch.rr_next_ns.n%d", size), "ns", ns*sc)
	}
	log.add(0, 0, "phase.rr_slope", p, time.Now(), 4, 0)

	untraced := jobsPerSec(base)
	tracedRate := jobsPerSec(traced)
	rep.add("trace.jobs_per_s_untraced", "1/s", untraced)
	rep.add("trace.jobs_per_s_traced", "1/s", tracedRate)
	rep.add("trace.overhead_ratio", "ratio", ratio(untraced, tracedRate)-1)
	rep.runs = len(base)

	if err := log.write(spansPath); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(log.spans), spansPath))
	return rep, nil
}

// ratio is a/b, or 0 when b is 0 (no runs, calls or jobs to divide by),
// so a degenerate run still prints valid JSON.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// allocSolveUs is the median time of one Algorithm 1 solve on speeds.
func allocSolveUs(speeds []float64) (float64, error) {
	var us []float64
	for k := 0; k < 21; k++ {
		t0 := time.Now()
		if _, err := (alloc.Optimized{}).Allocate(speeds, rho); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// rrNextNs is the median time of one Algorithm 2 step (RoundRobin.Next)
// over Algorithm 1's fractions of the base speeds tiled to n computers.
func rrNextNs(n int) (float64, error) {
	speeds, err := cli.ScaleSpeeds(experiments.BaseSpeeds(), n)
	if err != nil {
		return 0, err
	}
	fr, err := alloc.Optimized{}.Allocate(speeds, rho)
	if err != nil {
		return 0, err
	}
	rr, err := dispatch.NewRoundRobin(fr)
	if err != nil {
		return 0, err
	}
	calls := max(2e7/n, 2000)
	for i := 0; i < n; i++ { // warm-up: one step per computer
		rr.Next()
	}
	var ns []float64
	for b := 0; b < 3; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			rr.Next()
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(calls))
	}
	return median(ns), nil
}
