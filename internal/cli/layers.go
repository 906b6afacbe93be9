package cli

import (
	"flag"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"heterosched/internal/cluster"
	"heterosched/internal/ctrlplane"
	"heterosched/internal/drift"
	"heterosched/internal/faults"
	"heterosched/internal/netfault"
)

// This file declares the layer flags once: the flags that configure the
// simulator's optional layers (sharded dispatch, compute faults,
// overload protection, drift and re-planning, network faults, the
// control plane). heterosim and sweep register them as command-line
// flags, chaos scenarios use their names as keys, and run manifests
// record them under those names.

// LayerFlags are the raw layer flag values. The zero value, after
// WithDefaults, leaves every layer off.
type LayerFlags struct {
	Dispatchers string // "K[:rr|hash]"
	Sync        string // "never" or a period in seconds
	FaultParams
	OverloadParams
	DriftParams
	NetfaultParams
	CtrlParams
}

// layerFlag is one layer flag: its name, its default in the flag's own
// text form, its usage and the LayerFlags field holding its value (a
// *string, *float64 or *int).
type layerFlag struct {
	name, def, usage string
	field            func(*LayerFlags) any
}

// layerTable lists every layer flag, in the order chaos scenarios
// serialize them.
var layerTable = []layerFlag{
	{"dispatchers", "1", "dispatcher replicas K[:rr|hash] (1 = the paper's central scheduler)", func(f *LayerFlags) any { return &f.Dispatchers }},
	{"sync", "never", "counter-sync period for sharded Algorithm 2 replicas: never or seconds", func(f *LayerFlags) any { return &f.Sync }},
	{"mtbf", "0", "mean time between failures per computer (exponential); 0 disables failures", func(f *LayerFlags) any { return &f.MTBF }},
	{"mttr", "0", "mean time to repair per computer (exponential)", func(f *LayerFlags) any { return &f.MTTR }},
	{"fate", "requeue", "job fate at failure: lost, restart, resume or requeue", func(f *LayerFlags) any { return &f.Fate }},
	{"retries", "3", "re-dispatch budget per job under -fate requeue", func(f *LayerFlags) any { return &f.Retries }},
	{"detect", "0", "failure/repair detection lag in seconds", func(f *LayerFlags) any { return &f.Detect }},
	{"realloc", "stale", "static policies on failure: stale (keep fractions) or resolve (re-run allocator)", func(f *LayerFlags) any { return &f.Realloc }},
	{"qcap", "", "per-computer queue bound: K or K:oldest|newest (0/empty disables)", func(f *LayerFlags) any { return &f.QCap }},
	{"admit", "none", "admission policy: none, reject-when-full or token-bucket:RATE[:BURST]", func(f *LayerFlags) any { return &f.Admit }},
	{"deadline", "", "per-job relative deadline: exp:MEAN, const:V or uni:LO:HI, optional :kill|:mark", func(f *LayerFlags) any { return &f.Deadline }},
	{"timeout", "0", "dispatcher timeout in seconds before a job is pulled back and retried (0 disables)", func(f *LayerFlags) any { return &f.Timeout }},
	{"retry", "0", "retry budget per job after timeouts and rejections", func(f *LayerFlags) any { return &f.Retry }},
	{"backoff", "", "retry backoff BASE:MAX[:JITTER] in seconds (default 1:60:0)", func(f *LayerFlags) any { return &f.Backoff }},
	{"breaker", "", "per-computer circuit breaker CONSEC:COOLDOWN[:RATIO:WINDOW] (empty disables)", func(f *LayerFlags) any { return &f.Breaker }},
	{"drift", "", "ground-truth drift specs, comma-separated: lstep:T:F, lramp:T0:T1:F, lcycle:P:A, sstep:T:F[:IDX], mis:RHOERR[:SPEEDERR]", func(f *LayerFlags) any { return &f.Drift }},
	{"replan", "", "adaptive re-planning CHECK:TRIP:COOLDOWN[:BAND[:MINN]] (watchdog period, rho trip threshold, cooldown; empty disables)", func(f *LayerFlags) any { return &f.Replan }},
	{"estimator", "", "online estimator win:N or ewma:ALPHA (default win:256; needs -replan)", func(f *LayerFlags) any { return &f.Estimator }},
	{"netfault", "", "network-fault specs, comma-separated: loss:P[:LINK], dup:P[:LINK], lat:MEAN[:LINK], crash:MTBF:MTTR, down:drop|buffer[:CAP]|failover, part:FROM:TO[:L1+L2+...]", func(f *LayerFlags) any { return &f.Netfault }},
	{"ackto", "", "dispatch ack timeout TO[:BUDGET[:BASE:MAX[:JITTER]]]; required when the network can lose messages", func(f *LayerFlags) any { return &f.AckTO }},
	{"dstate", "", "dispatcher state recovery after a crash: acks, ckpt:DT[:CLIENTTO] or cold[:RELEARN[:CLIENTTO]] (needs a crash item)", func(f *LayerFlags) any { return &f.DState }},
	{"ctrl", "", "control-plane fault specs, comma-separated: loss:P[:LINK], dup:P[:LINK], lat:MEAN[:LINK], lease:T, qto:T, part:FROM:TO[:L1+L2+...], dpart:FROM:TO[:K1+K2+...]", func(f *LayerFlags) any { return &f.Ctrl }},
}

// lookup returns the table entry of the layer flag name, or nil.
func lookup(name string) *layerFlag {
	for i := range layerTable {
		if layerTable[i].name == name {
			return &layerTable[i]
		}
	}
	return nil
}

// set parses s into the field p points at: numbers must be finite
// (floats) or integers, strings are taken verbatim. name labels errors.
func set(p any, name, s string) error {
	switch p := p.(type) {
	case *string:
		*p = s
	case *float64:
		v, err := parseFinite(s, name)
		if err != nil {
			return err
		}
		*p = v
	case *int:
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad %s %q: %v", name, s, err)
		}
		*p = v
	}
	return nil
}

// text formats the field p points at in its flag grammar; a zero value
// formats as "".
func text(p any) string {
	switch p := p.(type) {
	case *float64:
		if *p != 0 {
			return strconv.FormatFloat(*p, 'g', -1, 64)
		}
	case *int:
		if *p != 0 {
			return strconv.Itoa(*p)
		}
	case *string:
		return *p
	}
	return ""
}

// Register declares every layer flag on fs, bound to lf and set to its
// default.
func (lf *LayerFlags) Register(fs *flag.FlagSet) {
	for _, e := range layerTable {
		p := e.field(lf)
		if err := set(p, e.name, e.def); err != nil {
			panic(err) // a malformed table default
		}
		switch p := p.(type) {
		case *string:
			fs.StringVar(p, e.name, *p, e.usage)
		case *float64:
			fs.Float64Var(p, e.name, *p, e.usage)
		case *int:
			fs.IntVar(p, e.name, *p, e.usage)
		}
	}
}

// Set assigns the layer flag name from its text, the way a chaos
// scenario's name=value item does. ok is false when name is not a
// layer flag.
func (lf *LayerFlags) Set(name, value string) (ok bool, err error) {
	e := lookup(name)
	if e == nil {
		return false, nil
	}
	return true, set(e.field(lf), name, value)
}

// Items returns "name=value" for every layer flag holding a non-zero
// value, in table order: the layer part of a chaos scenario string.
func (lf *LayerFlags) Items() []string {
	var items []string
	for _, e := range layerTable {
		if v := text(e.field(lf)); v != "" {
			items = append(items, e.name+"="+v)
		}
	}
	return items
}

// WithDefaults returns lf with every zero-valued flag set to its
// default. A chaos scenario leaves the keys it does not name zero; this
// gives them the meaning of a flag left off the command line.
func (lf LayerFlags) WithDefaults() LayerFlags {
	for _, e := range layerTable {
		if p := e.field(&lf); text(p) == "" {
			if err := set(p, e.name, e.def); err != nil {
				panic(err) // a malformed table default
			}
		}
	}
	return lf
}

// Record stores lf's value of every layer flag set on fs's command
// line in a run manifest's config, under its flag name and with numbers
// as numbers.
func (lf *LayerFlags) Record(fs *flag.FlagSet, config map[string]any) {
	fs.Visit(func(f *flag.Flag) {
		if e := lookup(f.Name); e != nil {
			config[e.name] = reflect.ValueOf(e.field(lf)).Elem().Interface()
		}
	})
}

// Layers are the configurations a LayerFlags builds; a nil config
// leaves its layer off.
type Layers struct {
	Faults   *faults.Config
	Overload *cluster.OverloadConfig
	Drift    *drift.Config
	Adapt    *cluster.AdaptConfig
	Netfault *netfault.Config
	Ctrl     *ctrlplane.Config
	// Policy parameterizes ParsePolicy and ParsePolicies: the realloc
	// mode, the fault model, the fleet size and the sharding.
	Policy PolicyOptions
}

// Build parses and validates every layer flag for a fleet of computers
// and assembles the layer configurations. Errors name the flag.
func (lf LayerFlags) Build(computers int) (Layers, error) {
	var l Layers
	sharding, err := ParseShardingSpecs(lf.Dispatchers, lf.Sync)
	if err != nil {
		return l, err
	}
	fc, realloc, err := lf.FaultParams.Build()
	if err != nil {
		return l, err
	}
	l.Faults = fc
	if l.Overload, err = lf.OverloadParams.Build(); err != nil {
		return l, err
	}
	if l.Drift, l.Adapt, err = lf.DriftParams.Build(computers); err != nil {
		return l, err
	}
	if l.Netfault, err = lf.NetfaultParams.Build(computers); err != nil {
		return l, err
	}
	if l.Ctrl, err = lf.CtrlParams.Build(computers, sharding.Dispatchers); err != nil {
		return l, err
	}
	l.Policy = PolicyOptions{Realloc: realloc, Faults: fc, Computers: computers, Sharding: sharding}
	return l, nil
}

// Apply sets the layer configurations of cfg.
func (l Layers) Apply(cfg *cluster.Config) {
	cfg.Faults = l.Faults
	cfg.Overload = l.Overload
	cfg.Drift = l.Drift
	cfg.Adapt = l.Adapt
	cfg.Netfault = l.Netfault
	cfg.Ctrl = l.Ctrl
}
