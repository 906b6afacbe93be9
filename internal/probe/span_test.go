package probe

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"heterosched/internal/sim"
)

func newSpanProbe(t *testing.T, sink SpanSink, speeds []float64) *Probe {
	t.Helper()
	opts := Options{Spans: true}
	if sink != nil {
		opts.SpanSink = sink
	}
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Start(len(speeds), 0)
	p.StartSpans(speeds, []string{"", "late", "failure"})
	return p
}

// TestSpanLifecycleExactDecomposition drives one job through
// admission → retry wait → transit → queue → service → finalization and
// checks every component charge and the exact additivity guarantee.
func TestSpanLifecycleExactDecomposition(t *testing.T) {
	p := newSpanProbe(t, nil, []float64{1, 2})
	j := &sim.Job{ID: 7, Size: 4}
	p.SpanAdmit(j, 0)
	p.SpanSend(j, 1)                   // 1s at the dispatcher → retry
	p.SpanArrive(0, j, 3)              // 2s in transit → net
	p.SpanServe(0, j, 4)               // 1s held → queue
	p.SpanFinal(j, "", true, true, 10) // 6s on server; 4s demand at speed 1

	c, ok := p.LastFinal(7)
	if !ok {
		t.Fatal("LastFinal missing for finalized job")
	}
	want := SpanComponents{Queue: 3, Service: 4, Net: 2, Retry: 1}
	if c != want {
		t.Fatalf("components = %+v, want %+v", c, want)
	}
	if got := c.Queue + c.Service + c.Net + c.Retry; got != 10 {
		t.Fatalf("components sum to %v, want exact response time 10", got)
	}
	if j.SpanSlot != 0 {
		t.Fatalf("SpanSlot not recycled: %d", j.SpanSlot)
	}
	tot := p.SpanTotals()
	if tot.N != 1 || tot.Total() != 10 {
		t.Fatalf("totals = %+v", tot)
	}
	byComp := p.SpanByComputer()
	if byComp[0].N != 1 || byComp[1].N != 0 {
		t.Fatalf("per-computer rows wrong: %+v", byComp)
	}
	if s, ok := p.SpanByCause()["completed"]; !ok || s.N != 1 {
		t.Fatalf("per-cause rows wrong: %+v", p.SpanByCause())
	}
	if p.SpanCount() != 1 {
		t.Fatalf("SpanCount = %d", p.SpanCount())
	}
}

// TestSpanPreemptionAndUncounted covers the eviction/resume path and an
// uncounted (killed) job: preemption windows charge queue, partial work
// bounds service, and uncounted jobs stay out of the T̄ totals while
// still appearing in the per-cause aggregate.
func TestSpanPreemptionAndUncounted(t *testing.T) {
	p := newSpanProbe(t, nil, []float64{2})
	j := &sim.Job{ID: 1, Size: 8, Remaining: 4}
	p.SpanAdmit(j, 0)
	p.SpanSend(j, 0)
	p.SpanArrive(0, j, 0)
	p.SpanServe(0, j, 0)
	p.SpanEvict(0, j, 2)                       // 2s served
	p.SpanServe(0, j, 5)                       // 3s held through the failure window
	p.SpanFinal(j, "failure", false, false, 6) // killed after 1 more second

	c, ok := p.LastFinal(1)
	if !ok {
		t.Fatal("LastFinal missing")
	}
	// done = 8-4 = 4 work units at speed 2 → 2s pure service; 3s on
	// server total → 1s PS/discipline delay joins the 3s failure hold.
	if c.Service != 2 || c.Queue != 4 || c.Net != 0 || c.Retry != 0 {
		t.Fatalf("components = %+v", c)
	}
	if tot := p.SpanTotals(); tot.N != 0 {
		t.Fatalf("uncounted job entered totals: %+v", tot)
	}
	if s := p.SpanByCause()["failure"]; s.N != 1 || s.Total() != 6 {
		t.Fatalf("failure cause aggregate = %+v", s)
	}
}

// TestSpanStaleSlotGuard checks that a recycled job (arena reuse: same
// slot, new ID) cannot corrupt another job's span.
func TestSpanStaleSlotGuard(t *testing.T) {
	p := newSpanProbe(t, nil, []float64{1})
	j := &sim.Job{ID: 1, Size: 1}
	p.SpanAdmit(j, 0)
	slot := j.SpanSlot
	p.SpanFinal(j, "", true, true, 1)
	// Simulate an arena recycle that left a stale SpanSlot behind (the
	// arena zeroes it in reality; this is the defense in depth).
	ghost := &sim.Job{ID: 99, SpanSlot: slot}
	p.SpanSend(ghost, 2)
	p.SpanFinal(ghost, "", true, true, 3)
	if p.SpanCount() != 1 {
		t.Fatalf("stale slot produced a span: count = %d", p.SpanCount())
	}
	if _, ok := p.LastFinal(99); ok {
		t.Fatal("stale job finalized")
	}
}

// TestSpanSteadyStateZeroAlloc locks the zero-allocation guarantee of
// the steady-state span lifecycle, including the Chrome-trace export
// path (reused buffer into io.Discard).
func TestSpanSteadyStateZeroAlloc(t *testing.T) {
	tw := NewChromeTraceWriter(io.Discard)
	p := newSpanProbe(t, tw, []float64{1, 2})
	j := &sim.Job{}
	id := int64(0)
	cycle := func() {
		id++
		j.ID = id
		j.Size = 1
		j.Remaining = 0
		now := float64(id)
		p.SpanAdmit(j, now)
		p.SpanSend(j, now+0.1)
		p.SpanArrive(0, j, now+0.2)
		p.SpanServe(0, j, now+0.3)
		p.SpanFinal(j, "", true, true, now+1.3)
	}
	// Warm up: grow the slab, the free list, the writer buffer and the
	// histogram bins to steady state.
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("steady-state span lifecycle allocates %v per job, want 0", allocs)
	}
}

// TestChromeTraceExportValidates streams a mixed set of lifecycles
// through the exporter and validates the result with VerifySpans: the
// JSON parses as a trace-event envelope and every tree is well-formed.
func TestChromeTraceExportValidates(t *testing.T) {
	var buf bytes.Buffer
	tw := NewChromeTraceWriter(&buf)
	p := newSpanProbe(t, tw, []float64{1, 2})

	// Clean job.
	a := &sim.Job{ID: 1, Size: 2}
	p.SpanAdmit(a, 0)
	p.SpanSend(a, 0)
	p.SpanArrive(0, a, 0.5)
	p.SpanServe(0, a, 1)
	p.SpanFinal(a, "", true, true, 3)

	// Resubmitted job with a retry/backoff window.
	b := &sim.Job{ID: 2, Size: 1}
	p.SpanAdmit(b, 1)
	p.SpanSend(b, 1)
	p.SpanResubmit(b, 4)
	p.SpanSend(b, 5)
	p.SpanArrive(1, b, 5.5)
	p.SpanServe(1, b, 5.5)
	p.SpanFinal(b, "", true, true, 6.5)

	// Never-dispatched drop (admission reject).
	d := &sim.Job{ID: 3, Size: 1}
	p.SpanAdmit(d, 2)
	p.SpanFinal(d, "admission", false, false, 2)

	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := VerifySpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export fails validation: %v\n%s", err, strings.Join(st.Details, "\n"))
	}
	if st.Jobs != 3 || st.Roots != 3 {
		t.Fatalf("jobs/roots = %d/%d, want 3/3", st.Jobs, st.Roots)
	}
	if st.Children == 0 {
		t.Fatal("no child spans exported")
	}
}

// TestVerifySpansViolations feeds hand-built malformed traces to the
// validator and checks each defect class is caught.
func TestVerifySpansViolations(t *testing.T) {
	cases := map[string]string{
		"negative duration": `{"traceEvents":[
			{"name":"job","ph":"X","ts":0,"dur":-1,"pid":0,"tid":0,"args":{"job":1,"outcome":"completed"}}]}`,
		"double root": `{"traceEvents":[
			{"name":"job","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"job":1,"outcome":"completed","queue":0,"service":1000000,"net":0,"retry":0}},
			{"name":"job","ph":"X","ts":2,"dur":1,"pid":0,"tid":0,"args":{"job":1,"outcome":"completed","queue":0,"service":1000000,"net":0,"retry":0}}]}`,
		"child without root": `{"traceEvents":[
			{"name":"service","ph":"X","ts":0,"dur":1,"pid":0,"tid":2,"args":{"job":1}}]}`,
		"child outside root bounds": `{"traceEvents":[
			{"name":"service","ph":"X","ts":5,"dur":10,"pid":0,"tid":2,"args":{"job":1}},
			{"name":"job","ph":"X","ts":0,"dur":1,"pid":0,"tid":2,"args":{"job":1,"outcome":"completed","queue":0,"service":1000000,"net":0,"retry":0}}]}`,
		"components do not sum": `{"traceEvents":[
			{"name":"job","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"job":1,"outcome":"completed","queue":900000,"service":1000000,"net":0,"retry":0}}]}`,
		"missing outcome": `{"traceEvents":[
			{"name":"job","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"job":1,"queue":0,"service":1000000,"net":0,"retry":0}}]}`,
		"unknown phase name": `{"traceEvents":[
			{"name":"mystery","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"job":1}},
			{"name":"job","ph":"X","ts":0,"dur":1,"pid":0,"tid":0,"args":{"job":1,"outcome":"completed","queue":0,"service":1000000,"net":0,"retry":0}}]}`,
	}
	for name, in := range cases {
		st, err := VerifySpans(strings.NewReader(in))
		if err == nil || st.Violations == 0 {
			t.Errorf("%s: not caught (violations=%d err=%v)", name, st.Violations, err)
		}
	}
	// And a well-formed single-job trace passes (dur in µs; components
	// sum to dur).
	good := `{"traceEvents":[
		{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"dispatcher"}},
		{"name":"service","ph":"X","ts":0,"dur":1000000,"pid":0,"tid":2,"args":{"job":1}},
		{"name":"job","ph":"X","ts":0,"dur":1000000,"pid":0,"tid":2,"args":{"job":1,"outcome":"completed","queue":0,"service":1000000,"net":0,"retry":0}}]}`
	if st, err := VerifySpans(strings.NewReader(good)); err != nil {
		t.Errorf("well-formed trace rejected: %v (%v)", err, st.Details)
	}
}

// TestRegistryHist covers the streaming histogram metric: get-or-create
// semantics, percentile export in FinalSnapshot, and omission of empty
// histograms.
func TestRegistryHist(t *testing.T) {
	reg := NewRegistry()
	h := reg.Hist("lat", 1e-3, 1e3, 100)
	if reg.Hist("lat", 1e-3, 1e3, 100) != h {
		t.Fatal("Hist not idempotent")
	}
	reg.Hist("empty", 1e-3, 1e3, 100)
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) / 100) // 0.01 .. 10
	}
	snap := reg.FinalSnapshot()
	if snap["lat.n"] != 1000 {
		t.Fatalf("lat.n = %v", snap["lat.n"])
	}
	p50, ok := snap["lat.p50"]
	if !ok {
		t.Fatal("lat.p50 missing from FinalSnapshot")
	}
	if math.Abs(p50-5)/5 > 0.1 {
		t.Errorf("lat.p50 = %v, want ≈5", p50)
	}
	for _, k := range []string{"lat.p90", "lat.p99", "lat.p999"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("%s missing from FinalSnapshot", k)
		}
	}
	if _, ok := snap["empty.p50"]; ok {
		t.Error("empty histogram exported percentiles")
	}
}
