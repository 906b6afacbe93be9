package sched

import (
	"fmt"
	"math"

	"heterosched/internal/cluster"
	"heterosched/internal/sim"
)

// PowerOfD is the power-of-d-choices dynamic baseline (JSQ(d)): each
// arriving job samples D computers uniformly at random and joins the one
// with the least normalized load among them. It uses the same load-index
// bookkeeping and delayed update model as LeastLoad, but probes only D
// computers per job instead of all n — the classic way to trade
// information for scalability in dynamic schedulers.
//
// It is not part of the paper's study; it extends the comparison between
// the paper's fully-informed Dynamic Least-Load (equivalent to D = n with
// deterministic sampling) and the static schemes, showing how much of the
// dynamic advantage survives with two probes per job.
type PowerOfD struct {
	// D is the number of computers sampled per job (default 2).
	D int
	// MessageDelay and DetectMax parameterize the delayed load updates as
	// in LeastLoad; zero means the paper defaults (0.05 s, 1 s).
	MessageDelay float64
	DetectMax    float64

	ctx  *cluster.Context
	load []int64
	// onDecrement is the delayed decrement's handler (a typed engine
	// event), bound once in Init.
	onDecrement func(sim.Msg)
}

var _ cluster.Policy = (*PowerOfD)(nil)

// NewPowerOfTwo returns the classic two-choices variant.
func NewPowerOfTwo() *PowerOfD { return &PowerOfD{D: 2} }

// Name returns "JSQ(d)".
func (p *PowerOfD) Name() string { return fmt.Sprintf("JSQ(%d)", p.d()) }

func (p *PowerOfD) d() int {
	if p.D <= 0 {
		return 2
	}
	return p.D
}

// Init captures the context and zeroes the load indices.
func (p *PowerOfD) Init(ctx *cluster.Context) error {
	if p.MessageDelay == 0 {
		p.MessageDelay = 0.05
	}
	if p.DetectMax == 0 {
		p.DetectMax = 1.0
	}
	if p.d() > len(ctx.Speeds) {
		return fmt.Errorf("sched: JSQ(%d) needs at least %d computers, have %d",
			p.d(), p.d(), len(ctx.Speeds))
	}
	p.ctx = ctx
	p.load = make([]int64, len(ctx.Speeds))
	p.onDecrement = p.decrement
	return nil
}

// Select samples d distinct computers and picks the least normalized load
// among them, charging the job immediately.
func (p *PowerOfD) Select(*sim.Job) int {
	n := len(p.ctx.Speeds)
	d := p.d()
	best := -1
	bestVal := math.Inf(1)
	// Sample d distinct indices by partial Fisher-Yates over a small
	// scratch; for the tiny d used in practice, rejection is simpler and
	// allocation-free.
	var chosen [64]bool
	picked := 0
	for picked < d {
		i := p.ctx.RNG.Intn(n)
		if n <= 64 {
			if chosen[i] {
				continue
			}
			chosen[i] = true
		}
		picked++
		v := float64(p.load[i]+1) / p.ctx.Speeds[i]
		if v < bestVal {
			bestVal = v
			best = i
		}
	}
	p.load[best]++
	return best
}

// Departed schedules the delayed load-index decrement, as in LeastLoad.
func (p *PowerOfD) Departed(j *sim.Job) {
	target := j.Target
	delay := p.ctx.RNG.Uniform(0, p.DetectMax) + p.ctx.RNG.Exp(p.MessageDelay)
	en := p.ctx.Engine
	en.ScheduleMsg(en.Now()+delay, p.onDecrement, sim.Msg{A: target})
}

// decrement applies one delayed load-index decrement (computer m.A).
func (p *PowerOfD) decrement(m sim.Msg) { p.load[m.A]-- }
