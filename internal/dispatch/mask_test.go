package dispatch

import (
	"math"
	"testing"

	"heterosched/internal/rng"
)

// randomFractions draws a random probability vector of length n.
func randomFractions(st *rng.Stream, n int) []float64 {
	fr := make([]float64, n)
	for i := range fr {
		fr[i] = st.Float64()
	}
	return normalize(fr)
}

// normalize scales w to sum to 1, then sets its last entry so that the
// sum is exact for checkFractions' 1e-9 tolerance.
func normalize(w []float64) []float64 {
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	for i := range w {
		w[i] /= sum
	}
	s := 0.0
	for _, x := range w[:len(w)-1] {
		s += x
	}
	w[len(w)-1] = 1 - s
	return w
}

// randomMask draws a mask with at least one up computer.
func randomMask(st *rng.Stream, n int) []bool {
	up := make([]bool, n)
	any := false
	for i := range up {
		up[i] = st.Float64() < 0.6
		any = any || up[i]
	}
	if !any {
		up[st.Intn(n)] = true
	}
	return up
}

// TestMaskedDispatchersNeverSelectDown is the masking property test: for
// random fractions and random masks, Random, RoundRobin and CyclicWRR
// never return a down index, and the realized fractions stay close to the
// renormalized targets (bounded Deviation).
func TestMaskedDispatchersNeverSelectDown(t *testing.T) {
	st := rng.New(4242)
	const draws = 20000
	for trial := 0; trial < 25; trial++ {
		n := 2 + st.Intn(6)
		fr := randomFractions(st, n)
		up := randomMask(st, n)

		dispatchers := []Masked{}
		if d, err := NewRandom(fr, st.Derive("ran")); err == nil {
			dispatchers = append(dispatchers, d)
		} else {
			t.Fatalf("trial %d: NewRandom: %v", trial, err)
		}
		if d, err := NewRoundRobin(fr); err == nil {
			dispatchers = append(dispatchers, d)
		} else {
			t.Fatalf("trial %d: NewRoundRobin: %v", trial, err)
		}
		if d, err := NewCyclicWRR(fr, 100); err == nil {
			dispatchers = append(dispatchers, d)
		} else {
			t.Fatalf("trial %d: NewCyclicWRR: %v", trial, err)
		}

		expected := maskWeights(fr, up)
		for _, d := range dispatchers {
			if err := d.SetUp(up); err != nil {
				t.Fatalf("trial %d: %s SetUp: %v", trial, d.Name(), err)
			}
			counts := make([]int64, n)
			for k := 0; k < draws; k++ {
				i := d.Next()
				if i < 0 || i >= n {
					t.Fatalf("trial %d: %s returned out-of-range %d", trial, d.Name(), i)
				}
				if !up[i] {
					t.Fatalf("trial %d: %s selected down computer %d (mask %v)", trial, d.Name(), i, up)
				}
				counts[i]++
			}
			dev, err := Deviation(expected, counts)
			if err != nil {
				t.Fatalf("trial %d: %s deviation: %v", trial, d.Name(), err)
			}
			// Random is statistically close (variance ~ 1/draws); the
			// deterministic dispatchers are much tighter. 0.01 is ~30×
			// the expected Random deviation at these sample sizes.
			if dev > 0.01 {
				t.Errorf("trial %d: %s deviation %v exceeds bound (expected %v, counts %v)",
					trial, d.Name(), dev, expected, counts)
			}
		}
	}
}

// TestMaskClearRestoresUnmaskedBehavior: a mask set and then cleared must
// leave RoundRobin selecting over all computers again.
func TestMaskClearRestoresUnmaskedBehavior(t *testing.T) {
	fr := []float64{0.25, 0.25, 0.5}
	rr, err := NewRoundRobin(fr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rr.SetUp([]bool{true, false, true}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if got := rr.Next(); got == 1 {
			t.Fatalf("masked RoundRobin selected down computer 1")
		}
	}
	if err := rr.SetUp(nil); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for k := 0; k < 30; k++ {
		seen[rr.Next()] = true
	}
	if !seen[1] {
		t.Errorf("computer 1 never selected after mask cleared")
	}
}

// TestSetUpRejectsBadMasks: all-down masks and length mismatches error
// without installing the mask.
func TestSetUpRejectsBadMasks(t *testing.T) {
	fr := []float64{0.5, 0.5}
	st := rng.New(7)
	ran, _ := NewRandom(fr, st)
	rr, _ := NewRoundRobin(fr)
	cyc, _ := NewCyclicWRR(fr, 10)
	for _, d := range []Masked{ran, rr, cyc} {
		if err := d.SetUp([]bool{false, false}); err == nil {
			t.Errorf("%s: all-down mask accepted", d.Name())
		}
		if err := d.SetUp([]bool{true}); err == nil {
			t.Errorf("%s: short mask accepted", d.Name())
		}
		// The dispatcher must still work after the rejected masks.
		if i := d.Next(); i < 0 || i > 1 {
			t.Errorf("%s: Next out of range after rejected mask", d.Name())
		}
	}
}

// TestMaskedZeroFractionFallback: when every surviving computer has zero
// base fraction, the mask falls back to an equal split over the up-set.
func TestMaskedZeroFractionFallback(t *testing.T) {
	fr := []float64{0, 0, 1} // stale optimized allocation: all load on computer 2
	up := []bool{true, true, false}
	st := rng.New(11)

	ran, err := NewRandom(fr, st)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewRoundRobin(fr)
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := NewCyclicWRR(fr, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Masked{ran, rr, cyc} {
		if err := d.SetUp(up); err != nil {
			t.Fatalf("%s: SetUp: %v", d.Name(), err)
		}
		counts := make([]int64, 3)
		for k := 0; k < 1000; k++ {
			i := d.Next()
			if i == 2 {
				t.Fatalf("%s: selected down computer", d.Name())
			}
			counts[i]++
		}
		for i := 0; i < 2; i++ {
			frac := float64(counts[i]) / 1000
			if math.Abs(frac-0.5) > 0.1 {
				t.Errorf("%s: computer %d got fraction %v, want ~0.5", d.Name(), i, frac)
			}
		}
	}
}
