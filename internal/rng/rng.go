// Package rng provides deterministic pseudo-random number generation for
// the simulator.
//
// The paper's methodology ("the average result of 10 independent runs with
// different random number streams", §4.1) requires reproducible,
// statistically independent streams. This package implements:
//
//   - splitmix64: a tiny, high-quality generator used for seeding,
//   - xoshiro256**: the main generator (period 2^256−1),
//   - named sub-streams derived from a root seed so that, e.g., the arrival
//     process and the job-size process of one replication never share a
//     stream, and replication r of experiment A is independent of
//     replication r of experiment B.
//
// The simulator draws through the typed helpers on *Stream (Float64, Exp,
// Intn, ...).
package rng

import (
	"fmt"
	"math"
)

// splitMix64 advances a splitmix64 state and returns the next output.
// It is used for seed expansion and stream derivation only.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix64 applies the splitmix64 output scrambler to z.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a xoshiro256** generator. The zero value is not usable; create
// streams with New, NewSeeded, or Stream.Derive.
type Stream struct {
	s [4]uint64
}

// New returns a stream seeded from the given 64-bit seed via splitmix64
// expansion (the initialization recommended by the xoshiro authors).
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reseed(seed)
	return st
}

// Reseed re-initializes the stream in place from a 64-bit seed.
func (st *Stream) Reseed(seed uint64) {
	sm := seed
	for i := range st.s {
		st.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (st *Stream) Uint64() uint64 {
	s := &st.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 bits of
// precision.
func (st *Stream) Float64() float64 {
	return float64(st.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform float64 in the open interval (0, 1). It is
// used where a sample of exactly 0 would be invalid (e.g. -log(u)).
func (st *Stream) Float64Open() float64 {
	for {
		u := st.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := st.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Uniform returns a uniform float64 in [lo, hi).
func (st *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*st.Float64()
}

// Exp returns an exponentially distributed sample with the given mean.
// It panics if mean <= 0.
func (st *Stream) Exp(mean float64) float64 {
	if mean <= 0 {
		panic(fmt.Sprintf("rng: Exp called with non-positive mean %v", mean))
	}
	return -mean * math.Log(st.Float64Open())
}

// Derive returns a new Stream whose seed is a hash of this stream's
// identity and the given name. Derivation does not consume randomness from
// the parent, so the parent's output sequence is unaffected.
//
// Derive is the mechanism for building independent named sub-streams:
//
//	root := rng.New(seed)
//	arrivals := root.Derive("arrivals")
//	sizes := root.Derive("sizes")
func (st *Stream) Derive(name string) *Stream {
	// Hash the name FNV-1a style into the parent state (without advancing
	// it), then scramble with the splitmix64 finalizer. The parent state
	// words already encode the root seed and any prior derivations.
	h := st.s[0] ^ rotl(st.s[1], 13) ^ rotl(st.s[2], 29) ^ rotl(st.s[3], 47)
	for _, b := range []byte(name) {
		h ^= uint64(b)
		h *= 0x100000001b3 // FNV-1a 64-bit prime
	}
	h = mix64(h)
	child := &Stream{}
	for i := range child.s {
		child.s[i] = splitMix64(&h)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return child
}

// DeriveIndexed returns Derive(fmt.Sprintf("%s/%d", name, index)). It is a
// convenience for per-replication or per-entity streams.
func (st *Stream) DeriveIndexed(name string, index int) *Stream {
	return st.Derive(fmt.Sprintf("%s/%d", name, index))
}
