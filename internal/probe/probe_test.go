package probe

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryTypesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Inc()
	c.Inc()
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if r.Counter("jobs") != c {
		t.Error("counter registration not idempotent")
	}
	g := r.Gauge("rho")
	g.Set(0.7)
	if g.Value() != 0.7 {
		t.Errorf("gauge = %v, want 0.7", g.Value())
	}
	s := r.Series("q")
	s.Update(0, 2)
	s.Update(10, 4)
	s.Finish(20)
	// 2 over [0,10], 4 over [10,20] → mean 3.
	if s.Mean() != 3 {
		t.Errorf("series mean = %v, want 3", s.Mean())
	}
	if s.Value() != 4 {
		t.Errorf("series current = %v, want 4", s.Value())
	}
	snap := r.Snapshot()
	if snap["jobs"] != 3 || snap["rho"] != 0.7 || snap["q"] != 4 {
		t.Errorf("snapshot = %v", snap)
	}
	final := r.FinalSnapshot()
	if final["q.mean"] != 3 {
		t.Errorf("final snapshot q.mean = %v, want 3", final["q.mean"])
	}
	defer func() {
		if recover() == nil {
			t.Error("cross-type registration did not panic")
		}
	}()
	r.Gauge("jobs")
}

func TestEventKindRoundTrip(t *testing.T) {
	for k := 0; k < numEventKinds; k++ {
		kind := EventKind(k)
		got, err := ParseEventKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseEventKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseEventKind("bogus"); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, k := range []EventKind{EvDeparture, EvKill, EvDrop} {
		if !k.Terminal() {
			t.Errorf("%v not terminal", k)
		}
	}
	for _, k := range []EventKind{EvArrival, EvDispatch, EvRetry, EvSample} {
		if k.Terminal() {
			t.Errorf("%v terminal", k)
		}
	}
}

func TestJSONLWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	events := []Event{
		{T: 1.5, Kind: EvArrival, Job: 7, Target: -1},
		{T: 1.5, Kind: EvDispatch, Job: 7, Target: 2, Attempt: 1, Mask: "1101"},
		{T: 2.25, Kind: EvRetry, Job: 7, Target: 2, Cause: "timeout", Value: 0.5},
		{T: 9, Kind: EvDeparture, Job: 7, Target: 2, Cause: "ok"},
		{T: 10, Kind: EvSample, Target: 0, Cause: "queue_len", Value: 3},
	}
	for i := range events {
		if err := w.Write(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := VerifyJSONL(strings.NewReader(buf.String()), true)
	if err != nil {
		t.Fatalf("verify: %v\nstream:\n%s", err, buf.String())
	}
	if st.Events != 5 || st.Jobs != 1 || st.Terminated != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.ByKind["retry"] != 1 || st.ByKind["sample"] != 1 {
		t.Errorf("by kind = %v", st.ByKind)
	}
}

func TestCSVWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	if err := w.Write(&Event{T: 1, Kind: EvArrival, Job: 1, Target: -1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want header + row", len(lines))
	}
	if lines[0] != "t,kind,job,target,cause,attempt,value,mask" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,arrival,1,-1") {
		t.Errorf("row = %q", lines[1])
	}
}

// TestCSVWriterMatchesEncodingCSV pins the hand-rolled CSV rows to what
// encoding/csv writes for the same fields, quoting rules included.
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	events := []Event{
		{T: 0.1, Kind: EvDispatch, Job: 7, Target: 2, Attempt: 1, Mask: "1011"},
		{T: math.Inf(1), Kind: EvSample, Target: -1, Cause: "in_system", Value: math.NaN()},
		{T: 3e-9, Kind: EvDrop, Job: 1 << 40, Cause: `say "hi", twice`},
		{T: 4, Kind: EvRetry, Cause: "line\nbreak\r"},
		{T: 5, Kind: EvBreaker, Cause: " leading space"},
		{T: 6, Kind: EvBreaker, Cause: `\.`},
		{T: 7, Kind: EventKind(200), Value: -1.5e300},
	}
	var got, want bytes.Buffer
	w := NewCSVWriter(&got)
	ref := csv.NewWriter(&want)
	if err := ref.Write([]string{"t", "kind", "job", "target", "cause", "attempt", "value", "mask"}); err != nil {
		t.Fatal(err)
	}
	for i := range events {
		e := &events[i]
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		row := []string{
			strconv.FormatFloat(e.T, 'g', -1, 64), e.Kind.String(), strconv.FormatInt(e.Job, 10),
			strconv.Itoa(e.Target), e.Cause, strconv.Itoa(e.Attempt),
			strconv.FormatFloat(e.Value, 'g', -1, 64), e.Mask,
		}
		if err := ref.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	ref.Flush()
	if got.String() != want.String() {
		t.Errorf("CSV rows differ from encoding/csv:\n got %q\nwant %q", got.String(), want.String())
	}
}

// TestEmitZeroAlloc locks Emit at zero allocations per event: the probe
// hands the writer its one reused Event, and neither exporter allocates
// per row once its buffer has grown.
func TestEmitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    EventWriter
	}{
		{"no writer", nil},
		{"jsonl", NewJSONLWriter(io.Discard)},
		{"csv", NewCSVWriter(io.Discard)},
	} {
		p, err := New(Options{Events: tc.w})
		if err != nil {
			t.Fatal(err)
		}
		ev := Event{T: 12.5, Kind: EvDispatch, Job: 42, Target: 3, Cause: "failover", Attempt: 2, Value: 0.25, Mask: "1101"}
		p.Emit(ev) // warm-up: grows the row buffer, writes the CSV header
		allocs := testing.AllocsPerRun(1000, func() {
			ev.T++
			ev.Job++
			p.Emit(ev)
		})
		if allocs != 0 {
			t.Errorf("%s: Emit allocates %v/op, want 0", tc.name, allocs)
		}
		if err := p.Flush(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestVerifyJSONLViolations(t *testing.T) {
	cases := []struct {
		label, stream string
	}{
		{"no arrival", `{"t":1,"kind":"dispatch","job":1,"target":0}`},
		{"double arrival", "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n{\"t\":2,\"kind\":\"arrival\",\"job\":1}"},
		{"after terminal", "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n{\"t\":2,\"kind\":\"drop\",\"job\":1,\"target\":0,\"cause\":\"failure\"}\n{\"t\":3,\"kind\":\"retry\",\"job\":1,\"target\":0}"},
		{"time backwards", "{\"t\":5,\"kind\":\"arrival\",\"job\":1}\n{\"t\":4,\"kind\":\"arrival\",\"job\":2}"},
		{"service before dispatch", "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n{\"t\":2,\"kind\":\"service-start\",\"job\":1,\"target\":0}"},
		{"unknown kind", `{"t":1,"kind":"warp","job":1}`},
		{"resubmit before dispatch", "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n{\"t\":2,\"kind\":\"resubmit\",\"job\":1,\"cause\":\"ack-timeout\"}"},
		{"dup before dispatch", "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n{\"t\":2,\"kind\":\"dup-deliver\",\"job\":1,\"target\":0,\"cause\":\"dup\"}"},
		{"second terminal after stale dup", "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n" +
			"{\"t\":2,\"kind\":\"dispatch\",\"job\":1,\"target\":0}\n" +
			"{\"t\":3,\"kind\":\"departure\",\"job\":1,\"target\":0}\n" +
			"{\"t\":4,\"kind\":\"dup-deliver\",\"job\":1,\"target\":0,\"cause\":\"stale\"}\n" +
			"{\"t\":5,\"kind\":\"departure\",\"job\":1,\"target\":0}"},
	}
	for _, c := range cases {
		if _, err := VerifyJSONL(strings.NewReader(c.stream), false); err == nil {
			t.Errorf("%s: verification passed, want error", c.label)
		}
	}
	// A clean stream with an unterminated job passes without
	// requireTerminal and fails with it.
	open := "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n{\"t\":1,\"kind\":\"dispatch\",\"job\":1,\"target\":0}"
	if _, err := VerifyJSONL(strings.NewReader(open), false); err != nil {
		t.Errorf("open stream rejected without requireTerminal: %v", err)
	}
	if _, err := VerifyJSONL(strings.NewReader(open), true); err == nil {
		t.Error("unterminated job accepted with requireTerminal")
	}
}

// TestVerifyJSONLReportsAllViolations: the verifier is not a
// first-error checker — a stream with several independent defects must
// come back with every one of them counted, and the recorded details
// must carry the 1-based line numbers so a reproducer can be pulled out
// of a multi-megabyte export with sed.
func TestVerifyJSONLReportsAllViolations(t *testing.T) {
	// Three independent defects on three distinct lines: job 1 gets a
	// second terminal (line 4), job 2 never arrived before dispatching
	// (line 5), and job 3 starts service with no dispatch (line 7).
	stream := strings.Join([]string{
		`{"t":1,"kind":"arrival","job":1}`,
		`{"t":2,"kind":"dispatch","job":1,"target":0}`,
		`{"t":3,"kind":"departure","job":1,"target":0}`,
		`{"t":4,"kind":"departure","job":1,"target":0}`,
		`{"t":5,"kind":"dispatch","job":2,"target":1}`,
		`{"t":6,"kind":"arrival","job":3}`,
		`{"t":7,"kind":"service-start","job":3,"target":0}`,
	}, "\n")
	st, err := VerifyJSONL(strings.NewReader(stream), false)
	if err == nil {
		t.Fatal("verification passed, want violations")
	}
	if st.Violations < 3 {
		t.Fatalf("found %d violations, want at least 3 (details: %v)", st.Violations, st.Details)
	}
	if len(st.Details) < 3 {
		t.Fatalf("recorded %d details, want at least 3", len(st.Details))
	}
	wantLines := map[int]bool{4: false, 5: false, 7: false}
	for _, v := range st.Details {
		if v.Line <= 0 {
			t.Errorf("violation %q has no line number", v.Msg)
		}
		if _, ok := wantLines[v.Line]; ok {
			wantLines[v.Line] = true
		}
	}
	for line, seen := range wantLines {
		if !seen {
			t.Errorf("no violation recorded for defective line %d (details: %v)", line, st.Details)
		}
	}
	// The error summary points at the first violation and the total.
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not name the first defective line", err)
	}
}

// TestVerifyJSONLNetworkEvents: the reliability-loop event kinds verify
// cleanly in their legal order — a resubmit after a lost dispatch, a
// deduplicated duplicate before the terminal, and a stale delivery as
// the only event allowed after it — and the stats expose the
// dedup-implies-exactly-once accounting.
func TestVerifyJSONLNetworkEvents(t *testing.T) {
	stream := "{\"t\":1,\"kind\":\"arrival\",\"job\":1}\n" +
		"{\"t\":1,\"kind\":\"dispatch\",\"job\":1,\"target\":0}\n" +
		"{\"t\":2,\"kind\":\"net-loss\",\"job\":1,\"target\":0,\"cause\":\"loss\"}\n" +
		"{\"t\":30,\"kind\":\"resubmit\",\"job\":1,\"cause\":\"ack-timeout\",\"attempt\":1,\"value\":5}\n" +
		"{\"t\":36,\"kind\":\"dispatch\",\"job\":1,\"target\":0}\n" +
		"{\"t\":37,\"kind\":\"dup-deliver\",\"job\":1,\"target\":0,\"cause\":\"dup\"}\n" +
		"{\"t\":38,\"kind\":\"service-start\",\"job\":1,\"target\":0}\n" +
		"{\"t\":50,\"kind\":\"departure\",\"job\":1,\"target\":0}\n" +
		"{\"t\":55,\"kind\":\"dup-deliver\",\"job\":1,\"target\":0,\"cause\":\"stale\"}\n" +
		"{\"t\":60,\"kind\":\"dispatcher-down\",\"target\":-1}\n" +
		"{\"t\":70,\"kind\":\"dispatcher-up\",\"target\":-1,\"cause\":\"checkpoint\",\"value\":12}"
	st, err := VerifyJSONL(strings.NewReader(stream), true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs != 1 || st.Terminated != 1 {
		t.Errorf("jobs %d terminated %d, want 1/1", st.Jobs, st.Terminated)
	}
	if st.Resubmits != 1 || st.DupDeliveries != 2 || st.StaleDeliveries != 1 {
		t.Errorf("resubmits %d dup %d stale %d, want 1/2/1", st.Resubmits, st.DupDeliveries, st.StaleDeliveries)
	}
	if st.DupJobsTerminated != 1 {
		t.Errorf("DupJobsTerminated = %d, want 1", st.DupJobsTerminated)
	}
	if st.ByKind["net-loss"] != 1 || st.ByKind["dispatcher-down"] != 1 || st.ByKind["dispatcher-up"] != 1 {
		t.Errorf("ByKind = %v", st.ByKind)
	}
}

func TestProbeLifecycle(t *testing.T) {
	var buf bytes.Buffer
	p, err := New(Options{SampleDT: 5, Events: NewJSONLWriter(&buf)})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Enabled() || !p.EventsOn() {
		t.Fatal("probe not enabled")
	}
	p.Start(2, 0)
	p.Emit(Event{T: 0, Kind: EvArrival, Job: 1, Target: -1})
	p.Emit(Event{T: 0, Kind: EvDispatch, Job: 1, Target: 1, Attempt: 1, Mask: "11"})
	p.NoteSubstream(1, 0)
	p.Emit(Event{T: 0, Kind: EvServiceStart, Job: 1, Target: 1})
	p.SetQueueLen(0, 1, 1)
	p.SetInSystem(0, 1)
	p.Sample(5, []int{0, 1}, []float64{0, 5}, 1)
	p.Emit(Event{T: 7, Kind: EvArrival, Job: 2, Target: -1})
	p.Emit(Event{T: 7, Kind: EvDispatch, Job: 2, Target: 1, Attempt: 1, Mask: "11"})
	p.NoteSubstream(1, 7)
	p.Emit(Event{T: 7, Kind: EvServiceStart, Job: 2, Target: 1})
	p.Emit(Event{T: 8, Kind: EvDeparture, Job: 1, Target: 1, Cause: "ok"})
	p.Emit(Event{T: 9, Kind: EvDeparture, Job: 2, Target: 1, Cause: "ok"})
	p.SetQueueLen(9, 1, 0)
	p.SetInSystem(9, 0)
	p.FinishRun(10)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	// util over [0,5] on computer 1: busy delta 5 over dt 5 → 1.0.
	if util := `{"t":5,"kind":"sample","target":1,"cause":"util","value":1}`; !strings.Contains(buf.String(), util) {
		t.Errorf("no sample event %s in\n%s", util, buf.String())
	}

	st, err := VerifyJSONL(&buf, true)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if st.Jobs != 2 || st.Terminated != 2 {
		t.Errorf("stats = %+v", st)
	}
	counts := p.EventCountMap()
	if counts["arrival"] != 2 || counts["departure"] != 2 || counts["sample"] != 5 {
		t.Errorf("counts = %v", counts)
	}
	// One gap on computer 1 (7 − 0); a single gap has CV 0.
	cv, gaps := p.InterarrivalCV(1)
	if gaps != 1 || cv != 0 {
		t.Errorf("interarrival cv=%v gaps=%d", cv, gaps)
	}
	final := p.Registry().FinalSnapshot()
	if final["events.arrival"] != 2 {
		t.Errorf("final events.arrival = %v", final["events.arrival"])
	}
	if _, ok := final["interarrival_cv.1"]; !ok {
		t.Error("interarrival_cv.1 missing from final snapshot")
	}
}

func TestDisabledProbeInert(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Error("empty options produced an enabled probe")
	}
	var nilP *Probe
	if nilP.Enabled() || nilP.EventsOn() {
		t.Error("nil probe reports enabled")
	}
	if _, err := New(Options{SampleDT: math.Inf(1)}); err == nil {
		t.Error("infinite sample interval accepted")
	}
	if _, err := New(Options{SampleDT: -1}); err == nil {
		t.Error("negative sample interval accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := NewManifest("heterosim", []string{"-rho", "0.7"}, time.Now())
	m.Seed = 42
	m.Config["rho"] = 0.7
	m.SimTime = 1e4
	m.WallSeconds = 1.25
	m.Metrics["mean_response_ratio"] = 0.85
	m.Events = map[string]int64{"arrival": 100}
	path := t.TempDir() + "/manifest.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.SimTime != 1e4 || got.Events["arrival"] != 100 {
		t.Errorf("manifest round trip = %+v", got)
	}
	// Schema violations are rejected on both write and read.
	bad := *m
	bad.SimTime = 0
	if err := bad.WriteFile(path); err == nil {
		t.Error("zero sim_time accepted")
	}
	bad = *m
	bad.Schema = 99
	if err := bad.Validate(); err == nil {
		t.Error("wrong schema version accepted")
	}
}

func TestServeDebug(t *testing.T) {
	p, err := New(Options{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(1, 0)
	p.Registry().Gauge("answer").Set(42)
	PublishLive(p)
	addr, shutdown, errc, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.String(), `"answer"`) {
		t.Errorf("/debug/vars missing probe snapshot: %s", body.String())
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// A clean shutdown must close the error channel without surfacing
	// http.ErrServerClosed.
	if serr, ok := <-errc; ok && serr != nil {
		t.Errorf("unexpected serve error: %v", serr)
	}
	UnpublishLive(p)
}

func TestPublishUnpublishCycles(t *testing.T) {
	// Repeated publish/unpublish cycles (one per sweep cell) must stay
	// safe: expvar registration happens once, the live pointer always
	// tracks the latest published probe, and unpublishing a superseded
	// probe must not clobber the current one.
	probes := make([]*Probe, 3)
	for i := range probes {
		p, err := New(Options{Metrics: true})
		if err != nil {
			t.Fatal(err)
		}
		p.Start(1, 0)
		p.Registry().Gauge("cell").Set(float64(i))
		probes[i] = p
	}
	for _, p := range probes {
		PublishLive(p)
		UnpublishLive(p)
	}
	if lp := liveProbe.Load(); lp != nil {
		t.Fatalf("live probe not cleared after cycles: %v", lp)
	}
	// Unpublishing a stale probe while a newer one is live is a no-op.
	PublishLive(probes[0])
	PublishLive(probes[1])
	UnpublishLive(probes[0])
	if lp := liveProbe.Load(); lp != probes[1] {
		t.Fatalf("stale unpublish clobbered the live probe: got %v, want %v", lp, probes[1])
	}
	UnpublishLive(probes[1])
}
