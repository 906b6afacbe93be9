// Package queueing implements the analytical performance model of the
// paper's §2: each computer is an M/M/1 queue with processor-sharing (PS)
// service, so a job of size t at a server with utilization ρ has expected
// response time t/(1−ρ). The package provides the per-computer and
// system-level mean response time T̄ and mean response ratio R̄ for a given
// workload allocation, the paper's objective function F (Definition 1), and
// the closed-form minimum of Theorem 1. The single-queue closed forms
// (M/M/1 means and quantiles, Pollaczek–Khinchine for M/G/1 FCFS) are
// references the simulator's tests check against.
//
// Conventions match the paper: the system has n computers with relative
// speeds s_i (>0), a base-line service rate μ (jobs/second for a speed-1
// machine), a system arrival rate λ, and an allocation vector α with
// Σα_i = 1 where computer i receives a fraction α_i of arrivals.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrSaturated is returned when an allocation saturates one or more
// computers (α_i λ ≥ s_i μ) or the system itself is saturated
// (λ ≥ μ Σs_i).
var ErrSaturated = errors.New("queueing: saturated server or system")

// System describes a network of heterogeneous computers fed by a central
// scheduler (the paper's Figure 1).
type System struct {
	Speeds []float64 // relative speeds s_i, all > 0
	Mu     float64   // base-line service rate μ (speed-1 machine), > 0
	Lambda float64   // system job arrival rate λ, >= 0
}

// NewSystem validates and returns a System.
func NewSystem(speeds []float64, mu, lambda float64) (*System, error) {
	if len(speeds) == 0 {
		return nil, errors.New("queueing: no computers")
	}
	for i, s := range speeds {
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("queueing: speed[%d] = %v, must be positive and finite", i, s)
		}
	}
	if !(mu > 0) {
		return nil, fmt.Errorf("queueing: mu = %v, must be positive", mu)
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return nil, fmt.Errorf("queueing: lambda = %v, must be non-negative", lambda)
	}
	cp := make([]float64, len(speeds))
	copy(cp, speeds)
	return &System{Speeds: cp, Mu: mu, Lambda: lambda}, nil
}

// SystemFromUtilization builds a System with the given speeds and target
// overall utilization ρ = λ/(μ Σs_i), choosing μ from the mean job size
// (μ = 1/meanJobSize) and λ = ρ μ Σs_i. This matches how the paper's
// Algorithm 1 is parameterized ("we only need to know ρ and the speeds").
func SystemFromUtilization(speeds []float64, meanJobSize, rho float64) (*System, error) {
	if !(meanJobSize > 0) {
		return nil, fmt.Errorf("queueing: mean job size %v, must be positive", meanJobSize)
	}
	if rho < 0 {
		return nil, fmt.Errorf("queueing: utilization %v, must be non-negative", rho)
	}
	mu := 1 / meanJobSize
	total := 0.0
	for _, s := range speeds {
		total += s
	}
	return NewSystem(speeds, mu, rho*mu*total)
}

// N returns the number of computers.
func (sys *System) N() int { return len(sys.Speeds) }

// TotalSpeed returns Σ s_i.
func (sys *System) TotalSpeed() float64 {
	t := 0.0
	for _, s := range sys.Speeds {
		t += s
	}
	return t
}

// Capacity returns the aggregate service rate μ Σs_i.
func (sys *System) Capacity() float64 { return sys.Mu * sys.TotalSpeed() }

// Utilization returns ρ = λ / (μ Σ s_i).
func (sys *System) Utilization() float64 { return sys.Lambda / sys.Capacity() }

// Stable reports whether the system is underloaded (λ < μ Σs_i).
func (sys *System) Stable() bool { return sys.Lambda < sys.Capacity() }

// checkAlloc validates the allocation vector dimension and per-server
// stability. If requireSum is true it also checks Σα = 1 (±1e-9).
func (sys *System) checkAlloc(alpha []float64, requireSum bool) error {
	if len(alpha) != len(sys.Speeds) {
		return fmt.Errorf("queueing: allocation has %d entries for %d computers", len(alpha), len(sys.Speeds))
	}
	sum := 0.0
	for i, a := range alpha {
		if a < -1e-12 || math.IsNaN(a) {
			return fmt.Errorf("queueing: alpha[%d] = %v, must be non-negative", i, a)
		}
		if a*sys.Lambda >= sys.Speeds[i]*sys.Mu {
			return fmt.Errorf("%w: computer %d (alpha=%.6g, s*mu=%.6g, alpha*lambda=%.6g)",
				ErrSaturated, i, a, sys.Speeds[i]*sys.Mu, a*sys.Lambda)
		}
		sum += a
	}
	if requireSum && math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("queueing: allocation sums to %v, want 1", sum)
	}
	return nil
}

// ServerUtilization returns ρ_i = α_i λ / (s_i μ) for each computer.
func (sys *System) ServerUtilization(alpha []float64) ([]float64, error) {
	if err := sys.checkAlloc(alpha, false); err != nil {
		return nil, err
	}
	rho := make([]float64, len(alpha))
	for i, a := range alpha {
		rho[i] = a * sys.Lambda / (sys.Speeds[i] * sys.Mu)
	}
	return rho, nil
}

// MeanResponseTime returns the system mean response time for allocation α
// (paper equation (3)):
//
//	T̄ = Σ_i α_i / (s_i μ − α_i λ).
func (sys *System) MeanResponseTime(alpha []float64) (float64, error) {
	if err := sys.checkAlloc(alpha, true); err != nil {
		return 0, err
	}
	t := 0.0
	for i, a := range alpha {
		if a == 0 {
			continue
		}
		t += a / (sys.Speeds[i]*sys.Mu - a*sys.Lambda)
	}
	return t, nil
}

// MeanResponseRatio returns the system mean response ratio
// R̄ = μ T̄ (paper §2.3). The response ratio of a job is its response time
// divided by its size, where size is the completion time on an idle
// speed-1 machine.
func (sys *System) MeanResponseRatio(alpha []float64) (float64, error) {
	t, err := sys.MeanResponseTime(alpha)
	if err != nil {
		return 0, err
	}
	return sys.Mu * t, nil
}

// PerServerMeanResponseTime returns T̄_i = 1/(s_i μ − α_i λ) for each
// computer with α_i > 0; entries with α_i = 0 are NaN (no jobs, no mean).
func (sys *System) PerServerMeanResponseTime(alpha []float64) ([]float64, error) {
	if err := sys.checkAlloc(alpha, false); err != nil {
		return nil, err
	}
	out := make([]float64, len(alpha))
	for i, a := range alpha {
		if a == 0 {
			out[i] = math.NaN()
			continue
		}
		out[i] = 1 / (sys.Speeds[i]*sys.Mu - a*sys.Lambda)
	}
	return out, nil
}

// Objective evaluates the paper's objective function (Definition 1):
//
//	F(α) = Σ_i s_i μ / (s_i μ − α_i λ).
//
// Minimizing F is equivalent to minimizing T̄ because
// T̄ = −n/λ + F/λ.
func (sys *System) Objective(alpha []float64) (float64, error) {
	if err := sys.checkAlloc(alpha, false); err != nil {
		return 0, err
	}
	f := 0.0
	for i, a := range alpha {
		si := sys.Speeds[i] * sys.Mu
		f += si / (si - a*sys.Lambda)
	}
	return f, nil
}

// TheoremOneMinimum returns the minimum value of F over the unconstrained
// (sign-free) allocation of Theorem 1:
//
//	F* = (Σ √(s_j μ))² / (Σ s_j μ − λ).
//
// It returns ErrSaturated if the system is saturated.
func (sys *System) TheoremOneMinimum() (float64, error) {
	if !sys.Stable() {
		return 0, fmt.Errorf("%w: lambda=%g capacity=%g", ErrSaturated, sys.Lambda, sys.Capacity())
	}
	sumSqrt := 0.0
	sumRate := 0.0
	for _, s := range sys.Speeds {
		sumSqrt += math.Sqrt(s * sys.Mu)
		sumRate += s * sys.Mu
	}
	return sumSqrt * sumSqrt / (sumRate - sys.Lambda), nil
}

// ObjectiveToMeanResponseTime converts an objective value F to the
// corresponding mean response time T̄ = (F − n)/λ.
func (sys *System) ObjectiveToMeanResponseTime(f float64) float64 {
	return (f - float64(sys.N())) / sys.Lambda
}

// MM1PSResponseTime returns the expected response time of a job of size t
// at a PS server with utilization rho: t/(1−rho). It returns +Inf at
// rho >= 1.
func MM1PSResponseTime(t, rho float64) float64 {
	if rho >= 1 {
		return math.Inf(1)
	}
	return t / (1 - rho)
}

// MM1MeanResponseTime returns the mean response time of an M/M/1 queue
// with arrival rate lambda and service rate mu: 1/(μ−λ), or +Inf when
// saturated. (For M/M/1, FCFS and PS have the same mean.)
func MM1MeanResponseTime(lambda, mu float64) float64 {
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}

// MM1MeanQueueLength returns the mean number of jobs in an M/M/1 queue:
// ρ/(1−ρ), or +Inf when saturated.
func MM1MeanQueueLength(lambda, mu float64) float64 {
	if lambda >= mu {
		return math.Inf(1)
	}
	rho := lambda / mu
	return rho / (1 - rho)
}

// MM1ResponseTimeQuantile returns the q-quantile of the response time of
// an M/M/1 FCFS queue: the response time is exponential with rate μ−λ,
// so T_q = −ln(1−q)/(μ−λ). It returns +Inf when saturated or q = 1 and
// panics for q outside [0, 1).
func MM1ResponseTimeQuantile(lambda, mu, q float64) float64 {
	if q < 0 || q >= 1 {
		panic(fmt.Sprintf("queueing: quantile %v outside [0,1)", q))
	}
	if lambda >= mu {
		return math.Inf(1)
	}
	return -math.Log(1-q) / (mu - lambda)
}

// MG1FCFSMeanWait returns the Pollaczek–Khinchine mean waiting time of an
// M/G/1 FCFS queue with arrival rate lambda and service-time moments
// E[S] = meanS, E[S²] = meanS2:
//
//	E[W] = λ E[S²] / (2 (1 − ρ)),  ρ = λ E[S].
//
// It returns +Inf when saturated. Unlike PS, FCFS mean response depends on
// the second moment — the analytic backdrop to why PS is the right
// discipline for heavy-tailed workloads (and why the paper's computers use
// preemptive scheduling).
func MG1FCFSMeanWait(lambda, meanS, meanS2 float64) float64 {
	rho := lambda * meanS
	if rho >= 1 {
		return math.Inf(1)
	}
	return lambda * meanS2 / (2 * (1 - rho))
}

// MG1FCFSMeanResponseTime returns E[T] = E[S] + E[W] for an M/G/1 FCFS
// queue (Pollaczek–Khinchine), or +Inf when saturated.
func MG1FCFSMeanResponseTime(lambda, meanS, meanS2 float64) float64 {
	w := MG1FCFSMeanWait(lambda, meanS, meanS2)
	if math.IsInf(w, 1) {
		return w
	}
	return meanS + w
}
