package stats

import (
	"math"
	"sync"
)

// logIndex is the bin index of one log-histogram geometry (lo, hi, bins).
// For every x in [lo, hi) bin returns exactly the bin that judge, the
// expression int((math.Log(x) − logLo)/logWidth) clamped to the last bin,
// returns, without calling math.Log: a cell table indexed by x's exponent
// and top mantissa bits gives the bin of the cell's first float, and a
// step over each bin edge between that float and x finishes it. An index
// is immutable once built and shared by every histogram of its geometry
// (see DESIGN.md §9).
type logIndex struct {
	logLo, logWidth float64
	// edge[k] is the least float64 in bin k; edge[0] = lo, and
	// edge[bins] = hi stops the step in bin.
	edge []float64
	// cell[c] is the bin of the least in-range float64 whose bits shifted
	// right by shift equal base + c.
	cell  []int32
	base  uint64
	shift uint
}

// bin returns the bin of x, for lo ≤ x < hi. A NaN indexes past the
// cell table and panics, as the expression's negative index does.
func (ix *logIndex) bin(x float64) int {
	k := int(ix.cell[math.Float64bits(x)>>ix.shift-ix.base])
	for x >= ix.edge[k+1] {
		k++
	}
	return k
}

// judge is the bin the tables reproduce: the log-space expression,
// clamped at the upper edge where rounding can reach bins.
func (ix *logIndex) judge(x float64) int {
	return min(int((math.Log(x)-ix.logLo)/ix.logWidth), len(ix.edge)-2)
}

// leastIn returns the least float64 in [from, hi) that judge puts in bin
// k or above, or hi if there is none. The judge is monotone, so steps of
// 1, 2, 4, … ulps away from guess bracket the answer and bisection
// finds it: about ten judgements for a guess a few dozen ulps off, and
// at most ~130 however far off it is.
func (ix *logIndex) leastIn(k int, from, guess float64) float64 {
	top := math.Float64bits(ix.edge[len(ix.edge)-1])
	in := func(u uint64) bool { return u >= top || ix.judge(math.Float64frombits(u)) >= k }
	// The answer's bits lie in (a, b]; from − 1 counts as below it
	// unjudged.
	a, b := math.Float64bits(from)-1, top
	g := min(max(math.Float64bits(guess), a+1), b)
	if in(g) {
		b = g
		for d := uint64(1); b-a > 1; d *= 2 {
			u := b - min(d, b-a-1)
			if !in(u) {
				a = u
				break
			}
			b = u
		}
	} else {
		a = g
		for d := uint64(1); b-a > 1; d *= 2 {
			u := a + min(d, b-a-1)
			if in(u) {
				b = u
				break
			}
			a = u
		}
	}
	for b-a > 1 {
		if m := a + (b-a)/2; in(m) {
			b = m
		} else {
			a = m
		}
	}
	return math.Float64frombits(b)
}

// logGeometry keys the shared indexes.
type logGeometry struct {
	lo, hi float64
	bins   int
}

// logIndexes holds one index per geometry for the life of the process,
// so histograms of one geometry, in any run or goroutine, share one
// built once. The indexes are pure functions of their geometries, so
// nothing a caller does changes what a lookup returns.
var logIndexes = struct {
	sync.Mutex
	m map[logGeometry]*logIndex
}{m: make(map[logGeometry]*logIndex)}

// sharedLogIndex returns the index of the geometry, building it on first
// use.
func sharedLogIndex(lo, hi float64, bins int) *logIndex {
	g := logGeometry{lo, hi, bins}
	logIndexes.Lock()
	defer logIndexes.Unlock()
	ix := logIndexes.m[g]
	if ix == nil {
		ix = newLogIndex(lo, hi, bins)
		logIndexes.m[g] = ix
	}
	return ix
}

// newLogIndex builds the index of a geometry with 0 < lo < hi < +Inf.
func newLogIndex(lo, hi float64, bins int) *logIndex {
	logLo := math.Log(lo)
	ix := &logIndex{
		logLo:    logLo,
		logWidth: (math.Log(hi) - logLo) / float64(bins),
		edge:     make([]float64, bins+1),
	}
	ix.edge[0], ix.edge[bins] = lo, hi
	// Each edge's search starts from exp of its log-space position.
	for k := 1; k < bins; k++ {
		ix.edge[k] = ix.leastIn(k, ix.edge[k-1], math.Exp(logLo+float64(k)*ix.logWidth))
	}
	// A cell is 2^-m of an octave's mantissa steps, 0.72 to 1.44 × 2^-m
	// octave, with 2^m four to eight times the bins per octave: a cell
	// then holds at most one edge. m stays in [0, 20], bounding the table.
	perOctave := float64(bins) / (math.Log2(hi) - math.Log2(lo))
	m := min(max(int(math.Ceil(math.Log2(perOctave)))+2, 0), 20)
	ix.shift = uint(52 - m)
	ix.base = math.Float64bits(lo) >> ix.shift
	last := math.Float64bits(math.Nextafter(hi, 0))
	ix.cell = make([]int32, last>>ix.shift-ix.base+1)
	k := 0
	for c := range ix.cell {
		start := max(lo, math.Float64frombits((ix.base+uint64(c))<<ix.shift))
		for start >= ix.edge[k+1] {
			k++
		}
		ix.cell[c] = int32(k)
	}
	return ix
}
