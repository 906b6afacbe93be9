// Package trace records and reads per-job simulation traces. A trace is a
// CSV stream with one row per finished job — id, target computer, arrival
// time, size, completion time, terminal outcome, retry count — enabling
// offline analysis (response-time distributions, per-computer breakdowns)
// and regression comparison between runs.
//
// Wire a Writer into a simulation through cluster.Config.OnFinal, which
// fires for every terminal outcome (kills, sheds and drops included), not
// just completions:
//
//	w := trace.NewWriter(f)
//	cfg.OnFinal = func(j *sim.Job, o cluster.Outcome) { _ = w.RecordFinal(j, o) }
//	... run ...
//	err := w.Flush()
//
// The format is versioned by column count: every historical layout is a
// strict prefix of the current column order (see header and
// traceVersions), so the Reader accepts the legacy five-column format
// (no outcome or retries; rows read back as outcome "completed" with
// zero retries), the seven-column format (no resubmits), the
// eight-column format (no per-component time attribution) and the
// current twelve-column format with the queue/service/net/retry
// response-time decomposition from the probe span layer (zero when the
// producing run had spans off).
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"

	"heterosched/internal/cluster"
	"heterosched/internal/sim"
	"heterosched/internal/stats"
)

// header is the canonical CSV column order, written once per trace.
// Columns are only ever appended, so every historical format is a
// strict prefix of this list and one width→version map (traceVersions)
// replaces per-format fallback branches: to add columns, append them
// here, register the new width below, and add their parsers to
// columnParsers — nothing else changes.
var header = []string{
	"id", "target", "arrival", "size", "completion", // v0 (original)
	"outcome", "retries", // v1
	"resubmits",                        // v2
	"queue", "service", "net", "retry", // v3 (span decomposition)
}

// traceVersions maps a row's column count to the format version that
// produced it. Absent fields take their documented defaults (outcome
// "completed", zero counts, zero components).
var traceVersions = map[int]int{5: 0, 7: 1, 8: 2, 12: 3}

// Record is one finished job.
type Record struct {
	ID         int64
	Target     int
	Arrival    float64
	Size       float64
	Completion float64
	// Outcome is the terminal outcome's wire name (cluster.Outcome); a
	// legacy trace reads back as "completed".
	Outcome string
	// Retries is the total number of re-dispatches the job saw: fault
	// requeues plus dispatcher retry/backoff attempts.
	Retries int
	// Resubmits counts network-layer resubmissions (ack-timeout or client
	// rescue, see internal/netfault); legacy traces read back as zero.
	Resubmits int
	// Queue, Service, Net and Retry are the probe span layer's additive
	// response-time decomposition (they sum to ResponseTime for completed
	// jobs when the producing run had spans on; all zero otherwise and in
	// pre-v3 traces).
	Queue, Service, Net, Retry float64
}

// ResponseTime returns Completion − Arrival.
func (r Record) ResponseTime() float64 { return r.Completion - r.Arrival }

// ResponseRatio returns response time divided by size.
func (r Record) ResponseRatio() float64 { return r.ResponseTime() / r.Size }

// Writer streams job records as CSV.
type Writer struct {
	cw          *csv.Writer
	wroteHeader bool
}

// NewWriter returns a Writer emitting CSV to w. The header row is written
// lazily with the first record.
func NewWriter(w io.Writer) *Writer {
	return &Writer{cw: csv.NewWriter(w)}
}

// Record appends one completed job to the trace with outcome "completed";
// use RecordFinal when recording through cluster.Config.OnFinal.
func (w *Writer) Record(j *sim.Job) error {
	return w.RecordFinal(j, cluster.OutcomeCompleted)
}

// RecordFinal appends one finished job with its terminal outcome. It is
// designed as the cluster.Config.OnFinal callback: every job fate is
// recorded, with Completion zero for jobs that never completed. The
// component columns are written as zero; instrumented runs use
// RecordFinalComponents.
func (w *Writer) RecordFinal(j *sim.Job, o cluster.Outcome) error {
	return w.RecordFinalComponents(j, o, 0, 0, 0, 0)
}

// RecordFinalComponents appends one finished job with its terminal
// outcome and the span layer's response-time decomposition (probe
// SpanComponents, queried via Probe.LastFinal inside OnFinal).
func (w *Writer) RecordFinalComponents(j *sim.Job, o cluster.Outcome, queue, service, net, retry float64) error {
	return w.Append(Record{
		ID:         j.ID,
		Target:     j.Target,
		Arrival:    j.Arrival,
		Size:       j.Size,
		Completion: j.Completion,
		Outcome:    o.String(),
		Retries:    j.Retries + j.Attempts,
		Resubmits:  j.Resubmits,
		Queue:      queue,
		Service:    service,
		Net:        net,
		Retry:      retry,
	})
}

// Append writes one record.
func (w *Writer) Append(r Record) error {
	if !w.wroteHeader {
		if err := w.cw.Write(header); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	outcome := r.Outcome
	if outcome == "" {
		outcome = cluster.OutcomeCompleted.String()
	}
	return w.cw.Write([]string{
		strconv.FormatInt(r.ID, 10),
		strconv.Itoa(r.Target),
		strconv.FormatFloat(r.Arrival, 'g', -1, 64),
		strconv.FormatFloat(r.Size, 'g', -1, 64),
		strconv.FormatFloat(r.Completion, 'g', -1, 64),
		outcome,
		strconv.Itoa(r.Retries),
		strconv.Itoa(r.Resubmits),
		strconv.FormatFloat(r.Queue, 'g', -1, 64),
		strconv.FormatFloat(r.Service, 'g', -1, 64),
		strconv.FormatFloat(r.Net, 'g', -1, 64),
		strconv.FormatFloat(r.Retry, 'g', -1, 64),
	})
}

// Flush drains buffered rows to the underlying writer.
func (w *Writer) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// Reader parses a trace written by Writer.
type Reader struct {
	cr     *csv.Reader
	seenHd bool
}

// NewReader returns a Reader over CSV trace data, current or legacy
// five-column format.
func NewReader(r io.Reader) *Reader {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated per row: legacy or current width
	return &Reader{cr: cr}
}

// Next returns the next record, or io.EOF at the end of the trace.
func (r *Reader) Next() (Record, error) {
	for {
		row, err := r.cr.Read()
		if err != nil {
			return Record{}, err
		}
		if !r.seenHd {
			r.seenHd = true
			if row[0] == header[0] {
				continue // skip header row
			}
		}
		return parseRow(row)
	}
}

// ReadAll consumes the remaining records.
func (r *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// columnParsers assigns each canonical column, in header order, to its
// destination Record field. parseRow runs the prefix of this table
// matching the row's width, so every format version shares one parsing
// path and new columns need only a new entry here.
var columnParsers = []struct {
	name  string
	parse func(rec *Record, s string) error
}{
	{"id", func(rec *Record, s string) (err error) { rec.ID, err = strconv.ParseInt(s, 10, 64); return }},
	{"target", func(rec *Record, s string) (err error) { rec.Target, err = strconv.Atoi(s); return }},
	{"arrival", func(rec *Record, s string) (err error) { rec.Arrival, err = strconv.ParseFloat(s, 64); return }},
	{"size", func(rec *Record, s string) (err error) { rec.Size, err = strconv.ParseFloat(s, 64); return }},
	{"completion", func(rec *Record, s string) (err error) { rec.Completion, err = strconv.ParseFloat(s, 64); return }},
	{"outcome", func(rec *Record, s string) error {
		if _, err := cluster.ParseOutcome(s); err != nil {
			return err
		}
		rec.Outcome = s
		return nil
	}},
	{"retries", func(rec *Record, s string) (err error) { rec.Retries, err = strconv.Atoi(s); return }},
	{"resubmits", func(rec *Record, s string) (err error) { rec.Resubmits, err = strconv.Atoi(s); return }},
	{"queue", func(rec *Record, s string) (err error) { rec.Queue, err = strconv.ParseFloat(s, 64); return }},
	{"service", func(rec *Record, s string) (err error) { rec.Service, err = strconv.ParseFloat(s, 64); return }},
	{"net", func(rec *Record, s string) (err error) { rec.Net, err = strconv.ParseFloat(s, 64); return }},
	{"retry", func(rec *Record, s string) (err error) { rec.Retry, err = strconv.ParseFloat(s, 64); return }},
}

func parseRow(row []string) (Record, error) {
	if _, ok := traceVersions[len(row)]; !ok {
		widths := make([]int, 0, len(traceVersions))
		for w := range traceVersions {
			widths = append(widths, w)
		}
		sort.Ints(widths)
		return Record{}, fmt.Errorf("trace: row has %d columns, want one of %v", len(row), widths)
	}
	rec := Record{Outcome: cluster.OutcomeCompleted.String()}
	for i, s := range row {
		cp := columnParsers[i]
		if err := cp.parse(&rec, s); err != nil {
			return Record{}, fmt.Errorf("trace: bad %s %q: %v", cp.name, s, err)
		}
	}
	return rec, nil
}

// Replay converts trace records into the arrival stream consumed by
// cluster.Config.Replay, so a recorded workload can be re-run under a
// different policy or configuration. cluster requires arrivals sorted
// ascending; traces are written in *completion* order, so call
// SortByArrival first.
func Replay(records []Record) []cluster.ReplayJob {
	out := make([]cluster.ReplayJob, len(records))
	for i, r := range records {
		out[i] = cluster.ReplayJob{Arrival: r.Arrival, Size: r.Size}
	}
	return out
}

// SortByArrival sorts records in place by ascending arrival time. Traces
// are written in completion order, which for PS servers is not arrival
// order.
func SortByArrival(records []Record) {
	sort.Slice(records, func(i, j int) bool { return records[i].Arrival < records[j].Arrival })
}

// Summary aggregates a trace into the paper's metrics plus per-computer
// breakdowns.
type Summary struct {
	Jobs              int64
	MeanResponseTime  float64
	MeanResponseRatio float64
	Fairness          float64
	// PerTarget maps computer index to its job count.
	PerTarget map[int]int64
	// Unfinished counts records whose outcome is not a completion (kills,
	// sheds, drops, losses); they are excluded from the response-time
	// statistics, which have no meaning for jobs that never finished.
	Unfinished int64
}

// Summarize streams records from r and computes the summary over the
// completed (possibly late) jobs.
func Summarize(r *Reader) (*Summary, error) {
	var rt, rr stats.Accumulator
	perTarget := map[int]int64{}
	var unfinished int64
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if o, perr := cluster.ParseOutcome(rec.Outcome); perr == nil && !o.Completed() {
			unfinished++
			continue
		}
		rt.Add(rec.ResponseTime())
		rr.Add(rec.ResponseRatio())
		perTarget[rec.Target]++
	}
	return &Summary{
		Jobs:              rt.N(),
		MeanResponseTime:  rt.Mean(),
		MeanResponseRatio: rr.Mean(),
		Fairness:          rr.PopStdDev(),
		PerTarget:         perTarget,
		Unfinished:        unfinished,
	}, nil
}
