package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramMergeEquivalence is the merge property test: splitting a
// sample stream across k histograms and merging them must be exactly
// equivalent to filling a single histogram — same counts per bin, same
// under/overflow, same quantiles — for any split and several bin
// geometries.
func TestHistogramMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, bins := range []int{16, 100, 400} {
		for _, k := range []int{2, 3, 7} {
			single := NewLogHistogram(1e-3, 1e3, bins)
			parts := make([]*Histogram, k)
			for i := range parts {
				parts[i] = NewLogHistogram(1e-3, 1e3, bins)
			}
			for i := 0; i < 5000; i++ {
				// Log-uniform over a wider range than the histogram, so
				// under- and overflow paths are exercised too.
				x := math.Exp(rng.Float64()*16 - 8)
				single.Add(x)
				parts[rng.Intn(k)].Add(x)
			}
			merged := parts[0]
			for _, p := range parts[1:] {
				if err := merged.Merge(p); err != nil {
					t.Fatalf("bins=%d k=%d: merge: %v", bins, k, err)
				}
			}
			if merged.N() != single.N() || merged.Underflow() != single.Underflow() || merged.Overflow() != single.Overflow() {
				t.Fatalf("bins=%d k=%d: merged n/under/over = %d/%d/%d, single %d/%d/%d",
					bins, k, merged.N(), merged.Underflow(), merged.Overflow(),
					single.N(), single.Underflow(), single.Overflow())
			}
			for i := 0; i < single.NumBins(); i++ {
				if merged.Bin(i) != single.Bin(i) {
					t.Fatalf("bins=%d k=%d: bin %d = %d, want %d", bins, k, i, merged.Bin(i), single.Bin(i))
				}
			}
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if got, want := merged.Quantile(q), single.Quantile(q); got != want {
					t.Errorf("bins=%d k=%d: merged q%.2f = %v, single %v", bins, k, q, got, want)
				}
			}
		}
	}
}

// TestHistogramMergeGeometryMismatch verifies every geometry mismatch is
// rejected rather than silently producing a corrupt histogram.
func TestHistogramMergeGeometryMismatch(t *testing.T) {
	base := NewLogHistogram(1e-3, 1e3, 100)
	for _, o := range []*Histogram{
		NewLogHistogram(1e-2, 1e3, 100), // lo differs
		NewLogHistogram(1e-3, 1e4, 100), // hi differs
		NewLogHistogram(1e-3, 1e3, 200), // bin count differs
	} {
		if err := base.Merge(o); err == nil {
			t.Errorf("merge accepted mismatched geometry %+v", o)
		}
	}
}

// TestHistogramQuantileErrorBound checks the documented log-bucket error
// bound against exact sample quantiles: for data inside [lo, hi) the
// histogram quantile is within a factor r = (hi/lo)^(1/bins) of the
// exact quantile, across bin counts.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	samples := make([]float64, 20000)
	for i := range samples {
		// Heavy-tailed inside the histogram range.
		samples[i] = math.Exp(rng.NormFloat64()*1.5 + 1)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	exact := func(q float64) float64 {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	for _, bins := range []int{50, 200, 400, 800} {
		h := NewLogHistogram(1e-3, 1e7, bins)
		for _, x := range samples {
			h.Add(x)
		}
		r := math.Pow(1e7/1e-3, 1/float64(bins))
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			got, want := h.Quantile(q), exact(q)
			if got > want*r || got < want/r {
				t.Errorf("bins=%d q%.3f: histogram %v vs exact %v outside factor %v", bins, q, got, want, r)
			}
		}
	}
}
