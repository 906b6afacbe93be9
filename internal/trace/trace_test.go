package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{ID: 1, Target: 0, Arrival: 0.5, Size: 2, Completion: 3.5, Outcome: "completed"},
		{ID: 2, Target: 3, Arrival: 1.25, Size: 0.125, Completion: 10, Outcome: "late", Retries: 2},
		{ID: 3, Target: 1, Arrival: 2, Size: 4, Outcome: "deadline-killed", Retries: 1},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestWriterFromJob(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	j := &sim.Job{ID: 7, Target: 2, Arrival: 10, Size: 3, Completion: 19}
	if err := w.Record(j); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 7 || got[0].ResponseTime() != 9 || got[0].ResponseRatio() != 3 {
		t.Errorf("record = %+v", got)
	}
}

func TestReaderWithoutHeader(t *testing.T) {
	// Headerless data (e.g. concatenated shards) still parses.
	in := "5,1,0,2,4,completed,0\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 5 {
		t.Errorf("records = %+v", got)
	}
}

func TestReaderLegacyFormat(t *testing.T) {
	// A trace written before the outcome/retries columns — five-column
	// header and rows — reads back as completed jobs with zero retries.
	in := "id,target,arrival,size,completion\n" +
		"1,0,0.5,2,3.5\n" +
		"2,1,1,4,9\n"
	got, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	for i, rec := range got {
		if rec.Outcome != "completed" || rec.Retries != 0 {
			t.Errorf("record %d = %+v, want completed outcome and zero retries", i, rec)
		}
	}
	// Legacy and current rows may even be mixed (concatenated shards).
	mixed := "1,0,0.5,2,3.5\n2,1,1,4,0,shed,3\n"
	got, err = NewReader(strings.NewReader(mixed)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Outcome != "completed" || got[1].Outcome != "shed" || got[1].Retries != 3 {
		t.Errorf("mixed records = %+v", got)
	}
}

func TestRoundTripResubmits(t *testing.T) {
	// The resubmits column (network-layer resubmissions) round-trips, and
	// the intermediate seven-column format — outcome and retries but no
	// resubmits — reads back with zero resubmits.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	recs := []Record{
		{ID: 1, Target: 0, Arrival: 0.5, Size: 2, Completion: 3.5, Outcome: "completed", Resubmits: 3},
		{ID: 2, Target: 3, Arrival: 1.25, Size: 0.5, Outcome: "net-lost", Retries: 1, Resubmits: 4},
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	// Seven-column rows (pre-resubmits) and current rows can be mixed.
	mixed := "id,target,arrival,size,completion,outcome,retries\n" +
		"1,0,0.5,2,3.5,late,2\n" +
		"2,1,1,4,9,completed,0,5\n"
	got, err = NewReader(strings.NewReader(mixed)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Resubmits != 0 || got[0].Retries != 2 || got[1].Resubmits != 5 {
		t.Errorf("mixed records = %+v", got)
	}
}

func TestReaderBadRows(t *testing.T) {
	cases := []string{
		"x,1,0,2,4\n",
		"1,x,0,2,4\n",
		"1,1,x,2,4\n",
		"1,1,0,x,4\n",
		"1,1,0,2,x\n",
		"1,1,0,2,4,bogus-outcome,0\n",
		"1,1,0,2,4,completed,x\n",
		"1,1,0,2,4,completed,0,x\n", // bad resubmits
		"1,1,0,2,4,completed\n",     // six columns: no known format
	}
	for _, in := range cases {
		if _, err := NewReader(strings.NewReader(in)).Next(); err == nil {
			t.Errorf("row %q accepted", strings.TrimSpace(in))
		}
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestSummarize(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	// Two jobs: ratios 2 and 4 → mean 3, pop sd 1.
	if err := w.Append(Record{ID: 1, Target: 0, Arrival: 0, Size: 1, Completion: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{ID: 2, Target: 1, Arrival: 0, Size: 2, Completion: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != 2 {
		t.Errorf("jobs = %d", s.Jobs)
	}
	if math.Abs(s.MeanResponseRatio-3) > 1e-12 {
		t.Errorf("mean ratio = %v", s.MeanResponseRatio)
	}
	if math.Abs(s.Fairness-1) > 1e-12 {
		t.Errorf("fairness = %v", s.Fairness)
	}
	if s.PerTarget[0] != 1 || s.PerTarget[1] != 1 {
		t.Errorf("per-target = %v", s.PerTarget)
	}
}

// End to end: record a cluster run's trace, then verify the trace summary
// matches the run's own metrics.
func TestTraceMatchesClusterMetrics(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cfg := cluster.Config{
		Speeds:      []float64{1, 2},
		Utilization: 0.5,
		JobSize:     dist.NewExponential(1.0),
		ArrivalCV:   1,
		Duration:    20000,
		Seed:        4,
		OnFinal: func(j *sim.Job, o cluster.Outcome) {
			if o.Completed() {
				_ = w.Record(j)
			}
		},
	}
	res, err := cluster.Run(cfg, &alternator{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := Summarize(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if s.Jobs != res.Jobs {
		t.Errorf("trace has %d jobs, run reports %d", s.Jobs, res.Jobs)
	}
	if math.Abs(s.MeanResponseTime-res.MeanResponseTime) > 1e-9 {
		t.Errorf("trace mean %v vs run mean %v", s.MeanResponseTime, res.MeanResponseTime)
	}
	if math.Abs(s.Fairness-res.Fairness) > 1e-9 {
		t.Errorf("trace fairness %v vs run %v", s.Fairness, res.Fairness)
	}
}

// End to end through the terminal-outcome hook: every generated job —
// completed or shed — lands in the trace exactly once, with its outcome.
func TestOnFinalTraceCoversAllFates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cfg := cluster.Config{
		Speeds:         []float64{1, 1},
		Utilization:    1.5, // overloaded: bounded queues must shed
		JobSize:        dist.NewExponential(1.0),
		ArrivalCV:      1,
		Duration:       5000,
		WarmupFraction: -1,
		Seed:           9,
		Overload:       &cluster.OverloadConfig{QueueCap: 3},
		OnFinal: func(j *sim.Job, o cluster.Outcome) {
			if err := w.RecordFinal(j, o); err != nil {
				t.Fatal(err)
			}
		},
	}
	res, err := cluster.Run(cfg, &alternator{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(records)) != res.GeneratedJobs {
		t.Errorf("trace has %d records, run generated %d jobs", len(records), res.GeneratedJobs)
	}
	seen := map[int64]bool{}
	byOutcome := map[string]int64{}
	for _, rec := range records {
		if seen[rec.ID] {
			t.Fatalf("job %d recorded twice", rec.ID)
		}
		seen[rec.ID] = true
		byOutcome[rec.Outcome]++
	}
	if byOutcome["completed"] == 0 || byOutcome["shed"] == 0 {
		t.Errorf("outcome mix %v, want both completions and sheds", byOutcome)
	}
	if byOutcome["completed"] != res.Jobs {
		t.Errorf("trace has %d completions, run counted %d", byOutcome["completed"], res.Jobs)
	}
	if byOutcome["shed"] != res.Overload.ShedOverflow {
		t.Errorf("trace has %d sheds, run counted %d", byOutcome["shed"], res.Overload.ShedOverflow)
	}
}

type alternator struct{ next int }

func (a *alternator) Name() string                { return "alt" }
func (a *alternator) Init(*cluster.Context) error { return nil }
func (a *alternator) Select(*sim.Job) int {
	a.next = 1 - a.next
	return a.next
}
func (a *alternator) Departed(*sim.Job) {}

func TestReplayRoundTrip(t *testing.T) {
	// Record a run's trace, replay it under the same policy, and verify
	// identical aggregate behavior (the same arrivals produce the same
	// schedule and completions for a deterministic policy).
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cfg := cluster.Config{
		Speeds:         []float64{1, 2},
		Utilization:    0.5,
		JobSize:        dist.NewExponential(1.0),
		ArrivalCV:      1,
		Duration:       10000,
		WarmupFraction: -1,
		Seed:           6,
		OnFinal: func(j *sim.Job, o cluster.Outcome) {
			if o.Completed() {
				_ = w.Record(j)
			}
		},
	}
	orig, err := cluster.Run(cfg, &alternator{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	records, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	SortByArrival(records)

	replayCfg := cluster.Config{
		Speeds:         []float64{1, 2},
		Utilization:    0.5,
		Duration:       10000,
		WarmupFraction: -1,
		Replay:         Replay(records),
	}
	rerun, err := cluster.Run(replayCfg, &alternator{})
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Jobs != orig.Jobs {
		t.Errorf("replay completed %d jobs, original %d", rerun.Jobs, orig.Jobs)
	}
	if math.Abs(rerun.MeanResponseTime-orig.MeanResponseTime) > 1e-9 {
		t.Errorf("replay mean response %v, original %v", rerun.MeanResponseTime, orig.MeanResponseTime)
	}
	if math.Abs(rerun.Fairness-orig.Fairness) > 1e-9 {
		t.Errorf("replay fairness %v, original %v", rerun.Fairness, orig.Fairness)
	}
}

func TestReplayDifferentPolicy(t *testing.T) {
	// The point of replay: evaluate a different policy on the exact same
	// workload. Send everything to the fast machine vs alternating.
	records := []Record{}
	for i := 0; i < 200; i++ {
		records = append(records, Record{ID: int64(i + 1), Arrival: float64(i) * 5, Size: 2})
	}
	replayCfg := cluster.Config{
		Speeds:         []float64{1, 4},
		Utilization:    0.3,
		WarmupFraction: -1,
		Replay:         Replay(records),
	}
	alt, err := cluster.Run(replayCfg, &alternator{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cluster.Run(replayCfg, &toFastest{})
	if err != nil {
		t.Fatal(err)
	}
	if alt.Jobs != fast.Jobs {
		t.Fatalf("job counts differ: %d vs %d", alt.Jobs, fast.Jobs)
	}
	// Widely spaced size-2 jobs: on the speed-4 machine each takes 0.5 s;
	// alternating, half take 2 s. The fast-only policy must win.
	if fast.MeanResponseTime >= alt.MeanResponseTime {
		t.Errorf("fast-only %v not below alternating %v", fast.MeanResponseTime, alt.MeanResponseTime)
	}
}

type toFastest struct{}

func (*toFastest) Name() string                { return "fastest" }
func (*toFastest) Init(*cluster.Context) error { return nil }
func (*toFastest) Select(*sim.Job) int         { return 1 }
func (*toFastest) Departed(*sim.Job)           {}

func TestReplayValidation(t *testing.T) {
	base := cluster.Config{
		Speeds:      []float64{1},
		Utilization: 0.5,
	}
	bad := base
	bad.Replay = []cluster.ReplayJob{{Arrival: 10, Size: 1}, {Arrival: 5, Size: 1}}
	if _, err := cluster.Run(bad, &toFastest{}); err == nil {
		t.Error("unsorted replay accepted")
	}
	bad2 := base
	bad2.Replay = []cluster.ReplayJob{{Arrival: 1, Size: 0}}
	if _, err := cluster.Run(bad2, &toFastest{}); err == nil {
		t.Error("zero-size replay job accepted")
	}
}

// TestTraceFormatVersions is the table test over every historical
// column width: each format is a strict prefix of the canonical header,
// parses through the single versioned path, and absent fields take
// their documented defaults.
func TestTraceFormatVersions(t *testing.T) {
	cases := []struct {
		name string
		row  string
		want Record
	}{
		{
			name: "v0 five columns (original)",
			row:  "1,2,0.5,4,9.5",
			want: Record{ID: 1, Target: 2, Arrival: 0.5, Size: 4, Completion: 9.5, Outcome: "completed"},
		},
		{
			name: "v1 seven columns (outcome, retries)",
			row:  "2,0,1,2,0,shed,3",
			want: Record{ID: 2, Arrival: 1, Size: 2, Outcome: "shed", Retries: 3},
		},
		{
			name: "v2 eight columns (resubmits)",
			row:  "3,1,1,2,8,late,1,4",
			want: Record{ID: 3, Target: 1, Arrival: 1, Size: 2, Completion: 8, Outcome: "late", Retries: 1, Resubmits: 4},
		},
		{
			name: "v3 twelve columns (span decomposition)",
			row:  "4,3,2,1,12,completed,0,1,5.5,2.5,1.25,0.75",
			want: Record{ID: 4, Target: 3, Arrival: 2, Size: 1, Completion: 12, Outcome: "completed",
				Resubmits: 1, Queue: 5.5, Service: 2.5, Net: 1.25, Retry: 0.75},
		},
	}
	for _, tc := range cases {
		got, err := NewReader(strings.NewReader(tc.row + "\n")).Next()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: parsed %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// Widths between the registered versions are rejected, and bad
	// component floats in the new columns are caught.
	for _, bad := range []string{
		"1,1,0,2,4,completed,0,0,1\n",          // 9 columns: no such version
		"1,1,0,2,4,completed,0,0,1,1,1\n",      // 11 columns: no such version
		"1,1,0,2,4,completed,0,0,x,1,1,1\n",    // bad queue
		"1,1,0,2,4,completed,0,0,1,1,1,nope\n", // bad retry
	} {
		if _, err := NewReader(strings.NewReader(bad)).Next(); err == nil {
			t.Errorf("row %q accepted", strings.TrimSpace(bad))
		}
	}
}

// TestRecordFinalComponents checks the component-carrying writer used
// by instrumented runs: components round-trip, and the plain RecordFinal
// writes zero components.
func TestRecordFinalComponents(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	j := &sim.Job{ID: 9, Target: 2, Arrival: 1, Size: 3, Completion: 11}
	if err := w.RecordFinalComponents(j, cluster.OutcomeCompleted, 6, 3, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := w.RecordFinal(j, cluster.OutcomeCompleted); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	if got[0].Queue != 6 || got[0].Service != 3 || got[0].Net != 0.5 || got[0].Retry != 0.5 {
		t.Errorf("components = %+v", got[0])
	}
	if got[1].Queue != 0 || got[1].Service != 0 || got[1].Net != 0 || got[1].Retry != 0 {
		t.Errorf("RecordFinal wrote nonzero components: %+v", got[1])
	}
}
