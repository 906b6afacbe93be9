package probe

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// EventKind classifies one job-lifecycle or system event. The stream for
// one job follows arrival → dispatch (with chosen target and availability
// mask) → possibly reject/timeout/retry cycles → service start → exactly
// one terminal event (departure, kill or drop). Computer-level events
// (fail, repair, breaker) and cadence samples carry no job ID.
type EventKind uint8

const (
	// EvArrival is a job arriving at the central scheduler.
	EvArrival EventKind = iota
	// EvDispatch is a dispatch decision: the chosen target, the attempt
	// number, and the availability mask the dispatcher saw ('1' = up).
	EvDispatch
	// EvRejectFull is a dispatch refused because the target's bounded
	// queue was at capacity (reject-when-full admission).
	EvRejectFull
	// EvRejectBreaker is a dispatch refused by an open circuit breaker.
	EvRejectBreaker
	// EvTimeout is a dispatcher timeout: the job is pulled back.
	EvTimeout
	// EvRetry is a re-dispatch scheduled after backoff (value = delay in
	// seconds; cause "timeout", "reject" or "failure").
	EvRetry
	// EvServiceStart is the job entering its computer (for PS/RR servers
	// service begins immediately; for FCFS it enters the queue).
	EvServiceStart
	// EvEvict is a job pulled off a failed computer (cause = fate).
	EvEvict
	// EvResume is a held job re-entering its repaired computer.
	EvResume
	// EvFail is a computer going down (target = computer).
	EvFail
	// EvRepair is a computer coming back up (target = computer).
	EvRepair
	// EvBreaker is a circuit-breaker transition (cause = "open",
	// "half-open", "closed" or "probe"; target = computer).
	EvBreaker
	// EvSample is a cadence sample of a time series (cause = metric name,
	// target = computer or -1, value = sampled value).
	EvSample
	// EvDeparture is a terminal completion (cause "ok", or "late" for a
	// deadline-marked job finishing past its deadline).
	EvDeparture
	// EvKill is a terminal deadline kill.
	EvKill
	// EvDrop is a terminal loss: cause "overflow" (bounded-queue shed),
	// "retry-budget", "failure" (fault machinery), "admission" (token
	// bucket), "network" (resubmission budget exhausted) or
	// "dispatcher-down" (dropped while the dispatcher was crashed).
	EvDrop
	// EvNetLoss is a dispatch (or duplicate) copy lost in transit, or
	// blocked by a partition (cause "loss", "partition" or "ack-loss";
	// target = link).
	EvNetLoss
	// EvResubmit is a network-layer retransmission after an ack timeout or
	// client-timeout rescue (cause "ack-timeout" or "client"; value =
	// backoff delay in seconds; attempt = resubmit count).
	EvResubmit
	// EvDupDeliver is a duplicate or stale delivery deduplicated at the
	// computer (cause "dup" while the original is live, "stale" after the
	// job already reached a terminal outcome). Stale duplicates are the
	// one event kind allowed after a job's terminal event.
	EvDupDeliver
	// EvDispatcherDown is the dispatcher crashing (system-level, no job).
	EvDispatcherDown
	// EvDispatcherUp is the dispatcher restarting (cause = recovery
	// policy; value = age in seconds of the recovered dispatch state, -1
	// when cold-reset recovered nothing).
	EvDispatcherUp
	// EvTokenReport is a JIQ idle-token copy delivered over the control
	// plane (target = computer; cause "accept" or "dedup"; value =
	// lease expiry, 0 when leases are off).
	EvTokenReport
	// EvTokenSpend is an idle token popped and spent on a dispatch
	// (target = computer; value = lease expiry).
	EvTokenSpend
	// EvTokenExpire is an idle token dropped at pop time past its lease
	// (target = computer; value = the missed expiry).
	EvTokenExpire
	// EvQueryTimeout is a dispatch decision that waited out the
	// control-plane query timeout and fell back to cached state
	// (target = dispatcher replica; value = wait charged in seconds).
	EvQueryTimeout
	// EvSyncFrame is a counter-sync frame arriving at a dispatcher
	// replica (target = replica; cause "apply" or "stale"; value =
	// frame version).
	EvSyncFrame

	numEventKinds = int(EvSyncFrame) + 1
)

// kindNames are the wire names, stable across releases (they appear in
// JSONL/CSV exports and the manifest).
var kindNames = [numEventKinds]string{
	"arrival", "dispatch", "reject-full", "reject-breaker", "timeout",
	"retry", "service-start", "evict", "resume", "fail", "repair",
	"breaker", "sample", "departure", "kill", "drop",
	"net-loss", "resubmit", "dup-deliver", "dispatcher-down", "dispatcher-up",
	"token-report", "token-spend", "token-expire", "query-timeout", "sync-frame",
}

// String returns the event kind's wire name.
func (k EventKind) String() string {
	if int(k) < numEventKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind maps a wire name back to its kind.
func ParseEventKind(s string) (EventKind, error) {
	for i, n := range kindNames {
		if n == s {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("probe: unknown event kind %q", s)
}

// Terminal reports whether k ends a job's lifecycle.
func (k EventKind) Terminal() bool {
	return k == EvDeparture || k == EvKill || k == EvDrop
}

// Event is one structured record in the lifecycle stream.
type Event struct {
	// T is the simulation time of the event.
	T float64 `json:"t"`
	// Kind is the event kind (wire name in exports).
	Kind EventKind `json:"-"`
	// Job is the job ID, or 0 for computer-level events and samples.
	Job int64 `json:"job,omitempty"`
	// Target is the computer index, or -1 when not applicable.
	Target int `json:"target"`
	// Cause qualifies the event ("late", "overflow", "open", ...).
	Cause string `json:"cause,omitempty"`
	// Attempt is the dispatch attempt number (retries + 1 on dispatch).
	Attempt int `json:"attempt,omitempty"`
	// Value carries the event's quantity: backoff delay for retry,
	// sampled value for sample events.
	Value float64 `json:"value,omitempty"`
	// Mask is the availability mask the dispatcher saw ('1' = routable),
	// set on dispatch events when the run tracks availability.
	Mask string `json:"mask,omitempty"`
}

// EventWriter receives the event stream. Writers are invoked from the
// simulation goroutine in event order. The pointer is valid only during
// Write: the probe reuses one Event for every call, so a writer must copy
// what it keeps and never retain the pointer.
type EventWriter interface {
	Write(e *Event) error
	// Flush drains any buffering to the underlying sink.
	Flush() error
}

// JSONLWriter exports events as one JSON object per line. The encoding is
// hand-rolled over a reused buffer so a multi-million-event run does not
// allocate per event.
type JSONLWriter struct {
	w   io.Writer
	buf []byte
}

// NewJSONLWriter returns a JSONL exporter writing to w. Wrap w in a
// bufio.Writer for file sinks; Flush does not fsync.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{w: w, buf: make([]byte, 0, 256)}
}

// Write encodes one event as a JSON line.
func (jw *JSONLWriter) Write(e *Event) error {
	b := jw.buf[:0]
	b = append(b, `{"t":`...)
	b = strconv.AppendFloat(b, e.T, 'g', -1, 64)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, '"')
	if e.Job != 0 {
		b = append(b, `,"job":`...)
		b = strconv.AppendInt(b, e.Job, 10)
	}
	if e.Target >= 0 {
		b = append(b, `,"target":`...)
		b = strconv.AppendInt(b, int64(e.Target), 10)
	}
	if e.Cause != "" {
		b = append(b, `,"cause":`...)
		b = strconv.AppendQuote(b, e.Cause)
	}
	if e.Attempt != 0 {
		b = append(b, `,"attempt":`...)
		b = strconv.AppendInt(b, int64(e.Attempt), 10)
	}
	if e.Value != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
	}
	if e.Mask != "" {
		b = append(b, `,"mask":"`...)
		b = append(b, e.Mask...)
		b = append(b, '"')
	}
	b = append(b, '}', '\n')
	jw.buf = b
	_, err := jw.w.Write(b)
	return err
}

// Flush is a no-op for the JSONL writer itself (buffering belongs to the
// underlying writer).
func (jw *JSONLWriter) Flush() error {
	if f, ok := jw.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// CSVWriter exports events as CSV with a fixed column set:
// t,kind,job,target,cause,attempt,value,mask. Like JSONLWriter it encodes
// each row over a reused buffer, so a long run does not allocate per
// event; the output is byte-for-byte what encoding/csv writes for the
// same fields (quoting as csvNeedsQuotes decides).
type CSVWriter struct {
	w           *bufio.Writer
	buf         []byte
	wroteHeader bool
}

// NewCSVWriter returns a CSV exporter writing to w through a buffer;
// Flush drains it.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// eventCSVHeader is the exported column layout.
const eventCSVHeader = "t,kind,job,target,cause,attempt,value,mask\n"

// Write encodes one event as a CSV row (header emitted lazily).
func (cw *CSVWriter) Write(e *Event) error {
	if !cw.wroteHeader {
		if _, err := cw.w.WriteString(eventCSVHeader); err != nil {
			return err
		}
		cw.wroteHeader = true
	}
	b := strconv.AppendFloat(cw.buf[:0], e.T, 'g', -1, 64)
	b = append(b, ',')
	b = appendCSVField(b, e.Kind.String())
	b = append(b, ',')
	b = strconv.AppendInt(b, e.Job, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Target), 10)
	b = append(b, ',')
	b = appendCSVField(b, e.Cause)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(e.Attempt), 10)
	b = append(b, ',')
	b = strconv.AppendFloat(b, e.Value, 'g', -1, 64)
	b = append(b, ',')
	b = appendCSVField(b, e.Mask)
	b = append(b, '\n')
	cw.buf = b
	_, err := cw.w.Write(b)
	return err
}

// Flush drains the CSV buffer.
func (cw *CSVWriter) Flush() error { return cw.w.Flush() }

// appendCSVField appends s as one CSV field, quoted (with inner quotes
// doubled) exactly when encoding/csv would quote it.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			b = append(b, '"')
		}
		b = append(b, s[i])
	}
	return append(b, '"')
}

// csvNeedsQuotes is encoding/csv's rule for a comma-separated field: a
// comma, quote, CR or LF anywhere, a leading space, or the field `\.`.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}
