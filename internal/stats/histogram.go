package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over [Lo, Hi), its bins equal-width
// in log-space, with overflow and underflow counters. Use NewLogHistogram
// to create one.
type Histogram struct {
	lo, hi float64
	bins   []int64
	under  int64
	over   int64
	n      int64
	// index bins the in-range values; it is shared by every histogram of
	// its geometry.
	index *logIndex
}

// NewLogHistogram returns a histogram whose bins are equal-width in
// log-space over [lo, hi), suitable for heavy-tailed data such as the
// Bounded Pareto job sizes. It panics unless 0 < lo < hi < +Inf.
func NewLogHistogram(lo, hi float64, bins int) *Histogram {
	if !(bins > 0 && lo > 0 && hi > lo && hi <= math.MaxFloat64) {
		panic(fmt.Sprintf("stats: invalid log histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{
		lo: lo, hi: hi,
		bins:  make([]int64, bins),
		index: sharedLogIndex(lo, hi, bins),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.n++
	switch {
	case x < h.lo:
		h.under++
	case x >= h.hi:
		h.over++
	default:
		h.bins[h.index.bin(x)]++
	}
}

// N returns the total number of observations including under/overflow.
func (h *Histogram) N() int64 { return h.n }

// BinBounds returns the [lo, hi) bounds of bin i.
func (h *Histogram) BinBounds(i int) (lo, hi float64) {
	ix := h.index
	return math.Exp(ix.logLo + float64(i)*ix.logWidth), math.Exp(ix.logLo + float64(i+1)*ix.logWidth)
}

// Merge adds every observation recorded by o into h. Both histograms
// must have identical geometry (same lo, hi and bin count) so the bins line up
// exactly; Merge returns an error otherwise and leaves h unchanged.
// Merging per-replication histograms is the streaming replacement for
// pooling raw samples across runs: the merged histogram answers the
// same Quantile queries without either side ever retaining individual
// observations.
func (h *Histogram) Merge(o *Histogram) error {
	if o.lo != h.lo || o.hi != h.hi || len(o.bins) != len(h.bins) {
		return fmt.Errorf("stats: histogram geometry mismatch: [%v,%v) bins=%d vs [%v,%v) bins=%d",
			h.lo, h.hi, len(h.bins), o.lo, o.hi, len(o.bins))
	}
	for i, c := range o.bins {
		h.bins[i] += c
	}
	h.under += o.under
	h.over += o.over
	h.n += o.n
	return nil
}

// Quantile estimates the q-quantile assuming observations are uniform
// within a bin. Out-of-range mass is attributed to the boundary values.
//
// Error bound: an in-range observation is only known to within its bin,
// so a quantile estimate can be off by at most one bin width. For a
// log-bucketed histogram with ratio r = (hi/lo)^(1/bins) between
// consecutive bin edges, that is a relative error of at most r−1
// (e.g. [1e-3,1e7) with 400 bins gives r = 10^0.025 ≈ 1.059, so ≤ ~6%
// relative error on any in-range quantile). Underflow and overflow mass
// is pinned to lo and hi respectively, so quantiles that fall in the
// out-of-range tails saturate at the histogram bounds.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := float64(h.under)
	if target <= cum {
		return h.lo
	}
	for i, c := range h.bins {
		next := cum + float64(c)
		if target <= next && c > 0 {
			lo, hi := h.BinBounds(i)
			frac := (target - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return h.hi
}

// Quantiles estimates several quantiles in one pass over the bins. The
// qs must be sorted ascending; the result has one entry per q. It is the
// batched form of Quantile for tail reporting (e.g. p50/p95/p99 of
// response times in overload runs).
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h.n == 0 {
		return out
	}
	k := 0
	cum := float64(h.under)
	for k < len(qs) && qs[k]*float64(h.n) <= cum {
		out[k] = h.lo
		k++
	}
	for i, c := range h.bins {
		if k >= len(qs) {
			break
		}
		next := cum + float64(c)
		for k < len(qs) {
			target := qs[k] * float64(h.n)
			if !(target <= next && c > 0) {
				break
			}
			lo, hi := h.BinBounds(i)
			frac := (target - cum) / float64(c)
			out[k] = lo + frac*(hi-lo)
			k++
		}
		cum = next
	}
	for ; k < len(qs); k++ {
		out[k] = h.hi
	}
	return out
}

// String renders a compact ASCII sketch of the histogram.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := int64(1)
	for _, c := range h.bins {
		if c > maxCount {
			maxCount = c
		}
	}
	fmt.Fprintf(&b, "histogram n=%d under=%d over=%d\n", h.n, h.under, h.over)
	for i, c := range h.bins {
		lo, hi := h.BinBounds(i)
		bar := strings.Repeat("#", int(40*c/maxCount))
		fmt.Fprintf(&b, "[%12.4g,%12.4g) %10d %s\n", lo, hi, c, bar)
	}
	return b.String()
}
