package chaos

import (
	"fmt"
	"strconv"
	"strings"

	"heterosched/internal/cli"
	"heterosched/internal/rng"
)

// Generator samples composed chaos scenarios from a search
// specification. Scenario k is a pure function of (search seed, k):
// each draws from its own derived random substream, so a search can be
// resumed, parallelized or replayed scenario by scenario.
type Generator struct {
	cs cli.ChaosSearch
}

// NewGenerator returns a generator over the given search space.
// A nil search gets the parser defaults.
func NewGenerator(cs *cli.ChaosSearch) *Generator {
	if cs == nil {
		def, _ := cli.ParseChaosSpec("seeds:50")
		cs = def
	}
	return &Generator{cs: *cs}
}

// Scenarios returns the configured scenario count.
func (g *Generator) Scenarios() int { return g.cs.Scenarios }

// Spec samples scenario k. The sampled parameter ranges scale with the
// search intensity; the composition respects the cross-layer validity
// rules the cli parsers enforce (reject-when-full needs a queue cap,
// lossy links need an ack timeout, dstate needs a crash, ...). Load is
// kept strictly stable (peak effective rho ≤ 0.92) unless overload
// protection is part of the scenario, so an unprotected run cannot be
// flagged by the watchdog for honestly diverging queues.
func (g *Generator) Spec(k int) Spec {
	st := rng.New(g.cs.Seed).DeriveIndexed("chaos.scenario", k)
	in := g.cs.Intensity

	s := Spec{
		Seed:        g.cs.Seed ^ (uint64(k)*0x9E3779B97F4A7C15 + 1),
		Speeds:      append([]float64(nil), g.cs.Speeds...),
		Duration:    g.cs.Duration,
		Policy:      "ORR",
		Stall:       g.cs.Stall,
		MaxInSystem: g.cs.MaxInSystem,
	}

	// Pick the participating layers: each enabled dimension joins with
	// probability 0.7; at least one always participates.
	type dim struct {
		on   bool
		pick bool
	}
	dims := []dim{{on: g.cs.DimFaults}, {on: g.cs.DimOverload}, {on: g.cs.DimDrift}, {on: g.cs.DimNet}}
	any := false
	for i := range dims {
		if dims[i].on && st.Float64() < 0.7 {
			dims[i].pick = true
			any = true
		}
	}
	if !any {
		var avail []int
		for i := range dims {
			if dims[i].on {
				avail = append(avail, i)
			}
		}
		// A ctrl-only search (dims:ctrl) has no legacy dimension to
		// force; the control-plane layer below always participates then.
		if len(avail) > 0 {
			dims[avail[st.Intn(len(avail))]].pick = true
		}
	}
	faultsOn, overOn, driftOn, netOn := dims[0].pick, dims[1].pick, dims[2].pick, dims[3].pick

	// Overload first: whether the scenario is protected decides how hard
	// the load and drift may push.
	protected := false
	if overOn {
		protected = g.sampleOverload(&s, st, in)
	}

	// Base utilization: moderate for unprotected runs, pushier when the
	// protection layer is there to absorb it.
	if g.cs.Rho > 0 {
		s.Rho = g.cs.Rho
	} else {
		s.Rho = 0.30 + 0.45*in*st.Float64()
		if protected {
			s.Rho += 0.45 * in * st.Float64()
		}
	}

	if faultsOn {
		g.sampleFaults(&s, st, in)
	}
	if driftOn {
		g.sampleDrift(&s, st, in, protected)
	}
	if netOn {
		g.sampleNetfault(&s, st, in)
	}
	// Dispatch plane last, on its own derived substream so the fault-layer
	// draws above are byte-for-byte what earlier searches sampled.
	g.sampleDispatch(&s, rng.New(g.cs.Seed).DeriveIndexed("chaos.scenario.dispatch", k))
	// Control plane after the dispatch plane (it biases the policy toward
	// the state-querying family and needs to know the replica count),
	// again on its own substream so ctrl-off searches replay untouched.
	if g.cs.DimCtrl {
		legacy := g.cs.DimFaults || g.cs.DimOverload || g.cs.DimDrift || g.cs.DimNet
		g.sampleCtrl(&s, rng.New(g.cs.Seed).DeriveIndexed("chaos.scenario.ctrl", k), in, !legacy)
	}
	return s
}

// sampleCtrl draws the control-plane layer: loss/dup/latency on the
// token/query/sync message paths, token leases, the per-decision query
// timeout, and occasional computer-link or sync partitions. Because
// control faults only matter to policies that exchange control traffic,
// a participating scenario is biased toward the scalable state-querying
// family. The query timeout is always set — the validator requires one
// whenever control messages can vanish. always forces participation
// (ctrl-only searches).
func (g *Generator) sampleCtrl(s *Spec, st *rng.Stream, in float64, always bool) {
	if !always && st.Float64() >= 0.5 {
		return
	}
	// Bias the policy toward control-traffic users: jiq exercises the
	// token path, jsq/pod the query path; sharded statics with sync
	// exercise the frame path and are left as sampled.
	if st.Float64() < 0.6 {
		n := len(s.Speeds)
		pool := []string{"jiq"}
		for _, cand := range []struct {
			name string
			d    int
		}{{"jsq(2)", 2}, {"pod(2):speed", 2}, {"pod(3):alpha", 3}} {
			if cand.d <= n {
				pool = append(pool, cand.name)
			}
		}
		s.Policy = pool[st.Intn(len(pool))]
	}
	var items []string
	items = append(items, "loss:"+fnum6(0.30*in*st.Float64()))
	if st.Float64() < 0.5 {
		items = append(items, "dup:"+fnum6(0.15*in*st.Float64()))
	}
	if st.Float64() < 0.8 {
		items = append(items, "lat:"+fnum6(0.5+20*in*st.Float64()))
	}
	// Leases bound how long a lost or stale token can strand a computer;
	// sampled often, but deliberately not always — lease-less token loss
	// is a degradation the invariants must survive, not a config error.
	if st.Float64() < 0.7 {
		items = append(items, "lease:"+fnum6(s.Duration*(0.005+0.02*st.Float64())))
	}
	items = append(items, "qto:"+fnum6(10+90*st.Float64()))
	if st.Float64() < 0.3 {
		from := s.Duration * 0.6 * st.Float64()
		to := from + s.Duration*(0.02+0.08*in*st.Float64())
		items = append(items, fmt.Sprintf("part:%s:%s:%d", fnum6(from), fnum6(to), st.Intn(len(s.Speeds))))
	}
	if s.Dispatchers != "" && s.Sync != "" && st.Float64() < 0.4 {
		if k, _, err := cli.ParseDispatchersSpec(s.Dispatchers); err == nil && k > 1 {
			from := s.Duration * 0.6 * st.Float64()
			to := from + s.Duration*(0.05+0.15*st.Float64())
			items = append(items, fmt.Sprintf("dpart:%s:%s:%d", fnum6(from), fnum6(to), st.Intn(k)))
		}
	}
	s.Ctrl = strings.Join(items, ",")
}

// sampleDispatch draws the dispatch plane: sometimes a non-default
// policy (the other static strategies, the centralized dynamic ones —
// LL, LL*, JSQ2 — and the scalable state-querying family), sometimes
// K > 1 dispatcher replicas with rr or hash routing and an optional
// counter-sync period. Replicas are drawn only for a policy the policy
// parser lets shard: the centralized dynamic policies run at K = 1.
func (g *Generator) sampleDispatch(s *Spec, st *rng.Stream) {
	n := len(s.Speeds)
	if st.Float64() < 0.4 {
		pool := []string{"WRR", "WRAN", "jiq", "LL", "LL*"}
		// The sampled-width policies need d computers; keep the spec
		// buildable for narrow speed vectors.
		for _, cand := range []struct {
			name string
			d    int
		}{{"jsq(2)", 2}, {"jsq(3)", 3}, {"pod(2):speed", 2}, {"pod(2):alpha", 2}, {"JSQ2", 2}} {
			if cand.d <= n {
				pool = append(pool, cand.name)
			}
		}
		s.Policy = pool[st.Intn(len(pool))]
	}
	if st.Float64() < 0.5 && shards(s.Policy, n) {
		k := []int{2, 4, 8}[st.Intn(3)]
		by := "rr"
		if st.Float64() < 0.5 {
			by = "hash"
		}
		s.Dispatchers = fmt.Sprintf("%d:%s", k, by)
		if st.Float64() < 0.4 {
			s.Sync = fnum6(s.Duration * (0.01 + 0.1*st.Float64()))
		}
	}
}

// shards reports whether the policy parser accepts the policy over n
// computers with K > 1 dispatcher replicas.
func shards(policy string, n int) bool {
	_, err := cli.ParsePolicy(policy, cli.PolicyOptions{Computers: n, Sharding: cli.ShardingParams{Dispatchers: 2}})
	return err == nil
}

// sampleOverload draws the overload-protection layer; reports whether
// the combination actually bounds the load (admission control or
// bounded queues).
func (g *Generator) sampleOverload(s *Spec, st *rng.Stream, in float64) bool {
	protected := false
	if st.Float64() < 0.6 {
		capv := 10 + st.Intn(90)
		drop := "newest"
		if st.Float64() < 0.5 {
			drop = "oldest"
		}
		s.QCap = fmt.Sprintf("%d:%s", capv, drop)
		protected = true
	}
	switch r := st.Float64(); {
	case r < 0.35 && s.QCap != "":
		s.Admit = "reject-when-full"
	case r < 0.6:
		// Token rate relative to the fleet's service capacity in jobs/s;
		// sometimes clamping, sometimes slack.
		var sum float64
		for _, v := range s.Speeds {
			sum += v
		}
		rate := (0.5 + 0.6*st.Float64()) * sum / 76.8
		burst := 1 + st.Intn(20)
		s.Admit = fmt.Sprintf("token-bucket:%s:%d", strconv.FormatFloat(rate, 'g', 6, 64), burst)
		protected = true
	}
	if st.Float64() < 0.4 {
		mean := 300 + 2400*st.Float64()
		action := "kill"
		if st.Float64() < 0.4 {
			action = "mark"
		}
		s.Deadline = fmt.Sprintf("exp:%s:%s", strconv.FormatFloat(mean, 'g', 6, 64), action)
	}
	if st.Float64() < 0.5 {
		s.Timeout = 150 + 450*st.Float64()
		s.Retry = 1 + st.Intn(3)
	}
	if st.Float64() < 0.4 {
		consec := 3 + st.Intn(8)
		cooldown := 200 + 800*st.Float64()
		s.Breaker = fmt.Sprintf("%d:%s", consec, strconv.FormatFloat(cooldown, 'g', 6, 64))
	}
	if s.QCap == "" && s.Admit == "" && s.Deadline == "" && s.Timeout == 0 && s.Breaker == "" {
		s.QCap = fmt.Sprintf("%d:newest", 20+st.Intn(60))
		protected = true
	}
	return protected
}

// sampleFaults draws the compute-failure layer: per-computer MTBF/MTTR
// and a job fate. Intensity raises the failure count and repair times.
func (g *Generator) sampleFaults(s *Spec, st *rng.Stream, in float64) {
	perRun := 1 + 9*in*st.Float64() // mean failures per computer per run
	s.MTBF = s.Duration / perRun
	s.MTTR = s.MTBF * (0.02 + 0.25*in*st.Float64())
	s.Fate = []string{"lost", "restart", "resume", "requeue"}[st.Intn(4)]
	s.Retries = 1 + st.Intn(4)
	if st.Float64() < 0.5 {
		s.Detect = s.MTTR * 0.2 * st.Float64()
	}
}

// sampleDrift draws the parameter-drift layer. Arrival-rate factors are
// capped so the peak effective utilization stays below 0.92 on
// unprotected runs; misestimation (planner lies) is always safe to
// compose.
func (g *Generator) sampleDrift(s *Spec, st *rng.Stream, in float64, protected bool) {
	capRho := 0.92
	maxF := 1.5
	if !protected && s.Rho > 0 {
		if m := capRho / s.Rho; m < maxF {
			maxF = m
		}
	}
	var items []string
	switch r := st.Float64(); {
	case r < 0.4:
		at := s.Duration * (0.2 + 0.4*st.Float64())
		f := 0.6 + (maxF-0.6)*st.Float64()
		items = append(items, fmt.Sprintf("lstep:%s:%s", fnum6(at), fnum6(f)))
	case r < 0.6:
		from := s.Duration * (0.1 + 0.3*st.Float64())
		to := from + s.Duration*0.2
		f := 0.6 + (maxF-0.6)*st.Float64()
		items = append(items, fmt.Sprintf("lramp:%s:%s:%s", fnum6(from), fnum6(to), fnum6(f)))
	case r < 0.8:
		period := s.Duration * (0.1 + 0.2*st.Float64())
		ampCap := maxF - 1
		if ampCap > 0.4 {
			ampCap = 0.4
		}
		if ampCap > 0.02 {
			amp := ampCap * st.Float64()
			items = append(items, fmt.Sprintf("lcycle:%s:%s", fnum6(period), fnum6(amp)))
		}
	default:
		// Speed step: slowing computers raises effective rho, so the
		// slowdown floor respects the same stability cap.
		at := s.Duration * (0.2 + 0.4*st.Float64())
		lo := 0.5
		if !protected && s.Rho > 0 && s.Rho/capRho > lo {
			lo = s.Rho / capRho
		}
		f := lo + (1-lo)*st.Float64()
		if st.Float64() < 0.5 {
			items = append(items, fmt.Sprintf("sstep:%s:%s", fnum6(at), fnum6(f)))
		} else {
			idx := st.Intn(len(s.Speeds))
			// A single slowed computer can congest locally under a static
			// plan; keep the per-computer slowdown gentle when unprotected.
			if !protected && f < 0.7 {
				f = 0.7 + 0.3*st.Float64()
			}
			items = append(items, fmt.Sprintf("sstep:%s:%s:%d", fnum6(at), fnum6(f), idx))
		}
	}
	if st.Float64() < 0.3 {
		rhoErr := (st.Float64()*2 - 1) * 0.2 * in
		items = append(items, fmt.Sprintf("mis:%s", fnum6(rhoErr)))
	}
	s.Drift = strings.Join(items, ",")
}

// sampleNetfault draws the network/control-plane layer: link loss,
// duplication and latency, optional dispatcher crashes with a recovery
// policy, and optional partition windows. Any lossy or crashing
// network gets the ack/resubmission loop (the validator requires it).
func (g *Generator) sampleNetfault(s *Spec, st *rng.Stream, in float64) {
	var items []string
	loss := 0.25 * in * st.Float64()
	dup := 0.10 * in * st.Float64()
	lat := 0.5 + 40*in*st.Float64()
	items = append(items, fmt.Sprintf("loss:%s", fnum6(loss)))
	if st.Float64() < 0.6 {
		items = append(items, fmt.Sprintf("dup:%s", fnum6(dup)))
	}
	items = append(items, fmt.Sprintf("lat:%s", fnum6(lat)))

	crashed := st.Float64() < 0.5
	if crashed {
		mtbf := s.Duration / (1 + 3*in*st.Float64())
		mttr := s.Duration * (0.005 + 0.02*in*st.Float64())
		items = append(items, fmt.Sprintf("crash:%s:%s", fnum6(mtbf), fnum6(mttr)))
		switch r := st.Float64(); {
		case r < 0.3:
			items = append(items, "down:drop")
		case r < 0.8:
			if st.Float64() < 0.5 {
				items = append(items, fmt.Sprintf("down:buffer:%d", 64+st.Intn(512)))
			} else {
				items = append(items, "down:buffer")
			}
		default:
			items = append(items, "down:failover")
		}
		switch r := st.Float64(); {
		case r < 0.33:
			s.DState = "acks"
		case r < 0.66:
			s.DState = fmt.Sprintf("ckpt:%s", fnum6(s.Duration*(0.05+0.1*st.Float64())))
		}
	}
	if st.Float64() < 0.4 {
		from := s.Duration * 0.7 * st.Float64()
		to := from + s.Duration*(0.02+0.08*in*st.Float64())
		if st.Float64() < 0.5 && len(s.Speeds) > 1 {
			links := []string{strconv.Itoa(st.Intn(len(s.Speeds)))}
			if st.Float64() < 0.5 {
				links = append(links, strconv.Itoa(st.Intn(len(s.Speeds))))
			}
			items = append(items, fmt.Sprintf("part:%s:%s:%s", fnum6(from), fnum6(to), strings.Join(links, "+")))
		} else {
			items = append(items, fmt.Sprintf("part:%s:%s", fnum6(from), fnum6(to)))
		}
	}
	s.Netfault = strings.Join(items, ",")
	// The reliability loop: required with loss/dup/failover, and always
	// sound — resubmission with dedup is exactly what the invariants
	// must survive.
	to := 20 + 80*st.Float64()
	budget := 3 + st.Intn(4)
	s.AckTO = fmt.Sprintf("%s:%d", fnum6(to), budget)
}

// fnum6 formats a sampled float compactly (6 significant digits is
// plenty for scenario parameters and keeps spec strings readable).
func fnum6(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
