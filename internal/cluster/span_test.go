package cluster_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/dist"
	"heterosched/internal/netfault"
	"heterosched/internal/probe"
	"heterosched/internal/sched"
	"heterosched/internal/sim"
)

// spanProbe builds a probe with the span layer and an optional Chrome
// trace sink; the returned writer (nil without a buffer) must be Closed
// before validating the export.
func spanProbe(t *testing.T, buf *bytes.Buffer) (*probe.Probe, *probe.ChromeTraceWriter) {
	t.Helper()
	opts := probe.Options{Spans: true}
	var tw *probe.ChromeTraceWriter
	if buf != nil {
		tw = probe.NewChromeTraceWriter(buf)
		opts.SpanSink = tw
	}
	p, err := probe.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p, tw
}

// TestSpanDecompositionMatchesMeanResponseTime is the critical-path
// acceptance check: with the default warmup filter active, the span
// layer's counted component sums must average to the run's measured
// mean response time within 1e-9, and count exactly the same jobs.
func TestSpanDecompositionMatchesMeanResponseTime(t *testing.T) {
	p, _ := spanProbe(t, nil)
	cfg := cluster.Config{
		Speeds:      []float64{1, 1, 2, 10},
		Utilization: 0.7,
		Duration:    3e4,
		Seed:        5,
		Probe:       p,
	}
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	tot := p.SpanTotals()
	if tot.N != res.Jobs {
		t.Fatalf("span layer counted %d jobs, run counted %d", tot.N, res.Jobs)
	}
	mean := tot.Total() / float64(tot.N)
	if diff := math.Abs(mean - res.MeanResponseTime); diff > 1e-9 {
		t.Fatalf("decomposed T̄ %v vs measured %v: |diff| = %v > 1e-9", mean, res.MeanResponseTime, diff)
	}
	// Per-computer rows partition the totals.
	var n int64
	var sum float64
	for _, s := range p.SpanByComputer() {
		n += s.N
		sum += s.Total()
	}
	if n != tot.N || math.Abs(sum-tot.Total()) > 1e-6 {
		t.Fatalf("per-computer rows do not partition the totals: %d/%v vs %d/%v", n, sum, tot.N, tot.Total())
	}
}

// nastySpanConfig is the worst case for span assembly: lossy duplicating
// high-latency links, a crashing buffering dispatcher, ack-timeout
// resubmissions and dispatcher timeouts with retries — every re-send,
// duplicate delivery and restart path fires.
func nastySpanConfig(seed uint64) cluster.Config {
	return cluster.Config{
		Speeds:         []float64{1, 1, 2, 10},
		Utilization:    0.6,
		Duration:       3e4,
		WarmupFraction: -1,
		Seed:           seed,
		Netfault: &netfault.Config{
			Links: netfault.Links{
				Link: netfault.Link{
					Latency: dist.Exponential{MeanVal: 2},
					Loss:    0.05,
					Dup:     0.05,
				},
			},
			Dispatcher: &netfault.Dispatcher{
				Uptime:   dist.Exponential{MeanVal: 5e3},
				Downtime: dist.Exponential{MeanVal: 200},
				Down:     netfault.DownBuffer,
				Recovery: netfault.RecoverAcks,
				ClientTO: 300,
			},
			Ack: netfault.Ack{Timeout: 20, Budget: 4},
		},
	}
}

// TestSpanAssemblyUnderNetfault runs the nastiest network-fault path
// with span export on and checks (a) the export validates — exactly one
// well-formed tree per finalized job even across resubmits, duplicate
// deliveries and dispatcher restarts; (b) per-job additivity: every
// completed job's components sum to its response time.
func TestSpanAssemblyUnderNetfault(t *testing.T) {
	var buf bytes.Buffer
	p, tw := spanProbe(t, &buf)
	cfg := nastySpanConfig(11)
	cfg.Probe = p
	var badSum int
	cfg.OnFinal = func(j *sim.Job, o cluster.Outcome) {
		c, ok := p.LastFinal(j.ID)
		if !ok {
			t.Errorf("job %d finalized without a span", j.ID)
			return
		}
		if o.Completed() {
			resp := j.Completion - j.Arrival
			if diff := math.Abs(c.Queue + c.Service + c.Net + c.Retry - resp); diff > 1e-9*(1+resp) {
				badSum++
			}
		}
	}
	res, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if badSum > 0 {
		t.Errorf("%d completed jobs with non-additive decompositions", badSum)
	}
	// The run must actually have exercised the nasty paths.
	nf := res.Netfault
	if nf.Resubmits == 0 || nf.DupDeliveries == 0 || nf.Crashes == 0 {
		t.Fatalf("scenario too tame: %+v", nf)
	}
	if p.SpanCount() != res.GeneratedJobs {
		t.Fatalf("span roots %d != generated jobs %d", p.SpanCount(), res.GeneratedJobs)
	}
	// Close the export and validate every tree.
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := probe.VerifySpans(bytes.NewReader(buf.Bytes()))
	if err != nil {
		for _, d := range st.Details {
			t.Log(d)
		}
		t.Fatalf("span export fails validation: %v", err)
	}
	if st.Roots != res.GeneratedJobs {
		t.Fatalf("export has %d roots, run generated %d jobs", st.Roots, res.GeneratedJobs)
	}
}

// TestSpansOnResultsUnchanged verifies the observability promise in the
// other direction: turning the span layer on (with export) must not
// change any simulation result — spans observe, never perturb.
func TestSpansOnResultsUnchanged(t *testing.T) {
	plain, err := cluster.Run(nastySpanConfig(7), sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cfg := nastySpanConfig(7)
	cfg.Probe, _ = spanProbe(t, &buf)
	withSpans, err := cluster.Run(cfg, sched.ORR())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withSpans) {
		t.Errorf("span layer changed the run:\n%+v\nvs\n%+v", plain, withSpans)
	}
}
