package stats

import (
	"math"
	"testing"
)

// TestQuantilesKnownDistribution feeds an exact inverse-CDF grid of the
// unit exponential into a log histogram and checks p50/p95/p99 against
// the analytic quantiles −ln(1−q), within the histogram's bin
// resolution.
func TestQuantilesKnownDistribution(t *testing.T) {
	h := NewLogHistogram(1e-3, 1e3, 300)
	const n = 200000
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		h.Add(-math.Log(1 - u))
	}
	qs := []float64{0.50, 0.95, 0.99}
	got := h.Quantiles(qs...)
	for k, q := range qs {
		want := -math.Log(1 - q)
		if rel := math.Abs(got[k]-want) / want; rel > 0.03 {
			t.Errorf("p%d = %v, want %v (rel err %.3f)", int(100*q), got[k], want, rel)
		}
	}
	if !(got[0] < got[1] && got[1] < got[2]) {
		t.Errorf("quantiles not increasing: %v", got)
	}
}

// TestQuantilesMatchesQuantile: the batched estimator must agree exactly
// with the single-q method, including at the under/overflow boundaries.
func TestQuantilesMatchesQuantile(t *testing.T) {
	h := NewLogHistogram(0.1, 10, 20)
	for _, x := range []float64{-5, 0.3, 1.1, 2.2, 2.3, 4.4, 7.7, 9.9, 12, 15} {
		h.Add(x)
	}
	qs := []float64{0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1}
	got := h.Quantiles(qs...)
	for k, q := range qs {
		if want := h.Quantile(q); got[k] != want {
			t.Errorf("Quantiles(%v)[%d] = %v, Quantile(%v) = %v", qs, k, got[k], q, want)
		}
	}
	if empty := (&Histogram{}).Quantiles(0.5, 0.9); empty[0] != 0 || empty[1] != 0 {
		t.Errorf("empty histogram quantiles = %v, want zeros", empty)
	}
}
