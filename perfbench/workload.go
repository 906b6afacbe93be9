package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/experiments"
	"heterosched/internal/probe"
)

// workload is one benchmark input: a heterosim flag set plus the run
// length and the reference mean response time the output checks use.
type workload struct {
	name string
	why  string
	// policy, scale and dispatchers are heterosim's -policy, -scale and
	// -dispatchers; netfault, ackto and ctrl its -netfault, -ackto and
	// -ctrl. spans attaches probe.Options{Spans: true}.
	policy      string
	scale       int
	dispatchers string
	netfault    string
	ackto       string
	ctrl        string
	spans       bool
	// duration is the simulated seconds of one run.
	duration float64
	// refT is the reference mean response time in seconds: the median T̄
	// of 160 to 330 runs (seed 7) at this duration.
	refT float64
}

const (
	rho = 0.7
	// refBand bounds a run's T̄ to [refT/refBand, refT·refBand]. Short runs
	// under H2 CV=3 arrivals and Bounded-Pareto sizes swing widely from
	// seed to seed, so the band catches a broken simulator, not a
	// rounding-level change.
	refBand = 2.0
	// spanTol is the relative tolerance for the span components summing
	// to T̄ (they are exact up to floating-point summation order).
	spanTol = 1e-9
)

// The faulty workload's layer specs; the traced run's on/off phases
// switch these same specs on or off on every workload.
const (
	faultyNetfault = "loss:0.05,dup:0.05,lat:2"
	faultyAckTO    = "30"
	faultyCtrl     = "loss:0.2,dup:0.05,lat:5,lease:200,qto:50"
)

var workloads = []workload{
	{
		name:     "paper",
		why:      "the paper's 15-computer Table 3 system under ORR: host time goes to the sim engine and PS servers, dispatch is a 15-entry scan",
		policy:   "ORR",
		duration: 4e5,
		refT:     61.31,
	},
	{
		name:     "fleet",
		why:      "Table 3 speeds tiled to 3200 computers under ORR: Algorithm 2's O(n) dispatch step dominates, on a 3200-server event list",
		policy:   "ORR",
		scale:    3200,
		duration: 100,
		refT:     21.85,
	},
	{
		name:        "faulty",
		why:         "200 computers, jiq over 4 hash-sharded dispatchers, lossy dispatch and control links, spans on: netfault, ctrlplane and probe work",
		policy:      "jiq",
		scale:       200,
		dispatchers: "4:hash",
		netfault:    faultyNetfault,
		ackto:       faultyAckTO,
		ctrl:        faultyCtrl,
		spans:       true,
		duration:    1e4,
		refT:        57.47,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// heterosim returns the equivalent heterosim command line of one run.
func (w workload) heterosim() string {
	args := []string{"heterosim -speeds " + joinFloats(experiments.BaseSpeeds()),
		fmt.Sprintf("-rho %g -policy %s -duration %g -reps 1", rho, w.policy, w.duration)}
	if w.scale > 0 {
		args = append(args, fmt.Sprintf("-scale %d", w.scale))
	}
	for _, f := range [][2]string{{"-dispatchers", w.dispatchers}, {"-ctrl", w.ctrl}, {"-netfault", w.netfault}, {"-ackto", w.ackto}} {
		if f[1] != "" {
			args = append(args, f[0]+" "+f[1])
		}
	}
	s := strings.Join(args, " ")
	if w.spans {
		s += "  (plus probe.Options{Spans: true})"
	}
	return s
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprint(x)
	}
	return strings.Join(parts, ",")
}

// layer names a layer the traced run switches on or off.
type layer int

const (
	layerNetfault layer = iota
	layerCtrl
	layerProbe
	numLayers
)

func (l layer) String() string { return [...]string{"netfault", "ctrl", "probe"}[l] }

// on reports whether the workload runs with layer l.
func (w workload) on(l layer) bool {
	switch l {
	case layerNetfault:
		return w.netfault != ""
	case layerCtrl:
		return w.ctrl != ""
	default:
		return w.spans
	}
}

// toggled returns w with layer l switched: off if w has it, otherwise
// on with the faulty workload's spec. The result has no recorded
// reference T̄, so its runs get every output check but the band.
func (w workload) toggled(l layer) workload {
	on := !w.on(l)
	switch l {
	case layerNetfault:
		w.netfault, w.ackto = "", ""
		if on {
			w.netfault, w.ackto = faultyNetfault, faultyAckTO
		}
	case layerCtrl:
		w.ctrl = ""
		if on {
			w.ctrl = faultyCtrl
		}
	default:
		w.spans = on
	}
	w.refT = 0
	return w
}

// input is a workload's constructed input: the run configuration
// without a seed, and the policy factory.
type input struct {
	w       workload
	cfg     cluster.Config
	factory cluster.PolicyFactory
}

// build constructs the run configuration through the same cli parsers
// heterosim uses, so each workload is exactly its heterosim flag set.
func (w workload) build() (*input, error) {
	speeds, err := cli.ScaleSpeeds(experiments.BaseSpeeds(), w.scale)
	if err != nil {
		return nil, err
	}
	disp := w.dispatchers
	if disp == "" {
		disp = "1"
	}
	sharding, err := cli.ParseShardingSpecs(disp, "never")
	if err != nil {
		return nil, err
	}
	nf, err := cli.NetfaultParams{Netfault: w.netfault, AckTO: w.ackto}.Build(len(speeds))
	if err != nil {
		return nil, err
	}
	ctrl, err := cli.CtrlParams{Ctrl: w.ctrl}.Build(len(speeds), sharding.Dispatchers)
	if err != nil {
		return nil, err
	}
	factory, err := cli.ParsePolicy(w.policy, cli.PolicyOptions{Computers: len(speeds), Sharding: sharding})
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Speeds:      speeds,
		Utilization: rho,
		Duration:    w.duration,
		ArrivalCV:   3,
		Netfault:    nf,
		Ctrl:        ctrl,
	}
	return &input{w: w, cfg: cfg, factory: factory}, nil
}

// runSeed derives operation i's simulation seed from the workload seed
// (splitmix64 finalizer over both).
func runSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(int64(i))*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// outcome is one simulation run as the benchmark saw it. It keeps a
// summary, not the cluster.Result, so memory does not grow with the
// number of runs.
type outcome struct {
	start  time.Time // host time cluster.Run began
	secs   float64   // host seconds inside cluster.Run
	kernel float64   // mean host seconds of the kernel runs just before and after
	jobs   int64     // Result.GeneratedJobs
	tbar   float64   // Result.MeanResponseTime
	hash   uint64    // hash of the run's simulated statistics (see digest)
	nf     *cluster.NetfaultStats
	ctrl   *ctrlplane.Stats
	spans  probe.SpanStats
	roots  int64 // span roots (jobs with a span)
	err    error // run error or failed output check
}

// run executes one simulation at seed through cluster.Run with the given
// policy, attaching a fresh span probe when the workload has spans.
func (in *input) run(seed uint64, policy cluster.Policy) outcome {
	cfg := in.cfg
	cfg.Seed = seed
	var pb *probe.Probe
	if in.w.spans {
		var err error
		if pb, err = probe.New(probe.Options{Spans: true}); err != nil {
			return outcome{err: err}
		}
		cfg.Probe = pb
	}
	before := kernel.seconds()
	t0 := time.Now()
	res, err := cluster.Run(cfg, policy)
	secs := time.Since(t0).Seconds()
	o := outcome{start: t0, secs: secs, kernel: (before + kernel.seconds()) / 2, err: err}
	if err != nil {
		return o
	}
	o.jobs, o.tbar, o.nf, o.ctrl = res.GeneratedJobs, res.MeanResponseTime, res.Netfault, res.Ctrl
	if pb != nil {
		o.spans, o.roots = pb.SpanTotals(), pb.SpanCount()
	}
	o.hash = hashRun(res, o.spans, o.roots)
	o.err = in.check(res, o.spans)
	return o
}

// scale turns host seconds measured around this run into reference-host
// seconds.
func (o outcome) scale() float64 { return calRefSeconds / o.kernel }

// refSecs is the run's time in reference-host seconds.
func (o outcome) refSecs() float64 { return o.secs * o.scale() }

// check verifies one run's output: the outcome ledger balances, T̄ is
// finite and inside the workload's reference band, and with spans on
// the components sum to T̄.
func (in *input) check(r *cluster.Result, spans probe.SpanStats) error {
	var total int64
	for _, c := range r.Outcomes {
		total += c
	}
	if total != r.GeneratedJobs || r.FinalInSystem != 0 {
		return fmt.Errorf("ledger: %d outcomes for %d arrivals, %d left in system", total, r.GeneratedJobs, r.FinalInSystem)
	}
	t := r.MeanResponseTime
	if math.IsNaN(t) || math.IsInf(t, 0) || !(t > 0) {
		return fmt.Errorf("mean response time %v not finite and positive", t)
	}
	if ref := in.w.refT; ref > 0 && (t < ref/refBand || t > ref*refBand) {
		return fmt.Errorf("mean response time %.4g s outside [%.4g, %.4g]", t, ref/refBand, ref*refBand)
	}
	if in.w.spans {
		if spans.N != r.Jobs || spans.N == 0 {
			return fmt.Errorf("spans: %d counted jobs, run counted %d", spans.N, r.Jobs)
		}
		if sum := spans.Total() / float64(spans.N); math.Abs(sum-t) > spanTol*t {
			return fmt.Errorf("spans: components sum to %.12g s, T̄ is %.12g s", sum, t)
		}
	}
	return nil
}

// hashRun hashes one run's simulated statistics; floats print in their
// shortest exact form.
func hashRun(r *cluster.Result, spans probe.SpanStats, roots int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %v %v %v %v %v %v %v %v %v\n",
		r.GeneratedJobs, r.Jobs, r.FinalInSystem, r.Outcomes,
		r.MeanResponseTime, r.MeanResponseRatio, r.Fairness, r.SimulatedTime,
		r.RatioP50, r.RatioP95, r.RatioP99, r.JobFractions)
	if r.Netfault != nil {
		fmt.Fprintf(h, "%+v\n", *r.Netfault)
	}
	if r.Ctrl != nil {
		fmt.Fprintf(h, "%+v\n", *r.Ctrl)
	}
	fmt.Fprintf(h, "%+v %d\n", spans, roots)
	return h.Sum64()
}

// digest hashes the simulated statistics of a run sequence, so a change
// that only touches host-side speed can be shown to leave them identical.
// A failed run contributes its error text.
func digest(runs []outcome) string {
	h := fnv.New64a()
	for _, o := range runs {
		fmt.Fprintf(h, "%016x %v\n", o.hash, o.err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
