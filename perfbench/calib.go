package main

import "time"

// The host this benchmark runs on is shared: how fast it runs the
// simulator drifts by up to 1.75× over minutes as other tenants come and
// go, which would swamp any change to the simulator itself. So every
// time the benchmark reports is scaled to a reference host speed. Just
// before and just after each simulation run it times a fixed kernel of
// its own, and scales the run by calRefSeconds over the mean of the two
// kernel times; the mean tracks the host's speed during the run better
// than either alone. The kernel is the simulator's kind of work without
// its code: replace-top operations on a 4-ary min-heap of float64 keys,
// 512 KiB, so it slows with the same contention for core and cache the
// event list feels. Its work is identical on every call, and no change to
// the simulator touches it.

const (
	calHeapLen = 1 << 16
	calOps     = 20000
	// calRefSeconds is the kernel's time on the reference host, a shared
	// 2-vCPU Xeon VM in its usual state; reported times are in its
	// seconds.
	calRefSeconds = 0.003
)

// calibrator owns the kernel's heap, so repeated calls allocate nothing.
type calibrator struct {
	heap []float64
	sink float64 // keeps the compiler from dropping the work
}

// kernel is the process's calibrator. The benchmark runs one simulation
// at a time, and so one kernel at a time.
var kernel = &calibrator{heap: make([]float64, calHeapLen)}

// seconds runs the kernel once and returns its host seconds.
func (c *calibrator) seconds() float64 {
	t0 := time.Now()
	h := c.heap
	for i := range h { // sorted keys are a valid min-heap
		h[i] = float64(i)
	}
	x := uint64(88172645463325252)
	for k := 0; k < calOps; k++ {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		key := h[0] + float64(x>>11)/(1<<53)*calHeapLen
		i := 0
		for {
			m := 4*i + 1
			if m >= len(h) {
				break
			}
			for j := m + 1; j < 4*i+5 && j < len(h); j++ {
				if h[j] < h[m] {
					m = j
				}
			}
			if h[m] >= key {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = key
	}
	c.sink += h[0]
	return time.Since(t0).Seconds()
}
