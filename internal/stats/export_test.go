package stats

// Accessors that only tests read; no binary links them.

func (tw *TimeWeighted) Duration() float64 { return tw.duration }
func (h *Histogram) Underflow() int64      { return h.under }
func (h *Histogram) Overflow() int64       { return h.over }
func (h *Histogram) Bin(i int) int64       { return h.bins[i] }
func (h *Histogram) NumBins() int          { return len(h.bins) }
