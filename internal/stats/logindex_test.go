package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// refLogBin is the bin a log histogram gave before the index: the
// log-space expression, clamped at the upper edge. The index must
// reproduce it for every in-range float.
func refLogBin(lo, hi float64, bins int, x float64) int {
	logLo := math.Log(lo)
	logWidth := (math.Log(hi) - logLo) / float64(bins)
	idx := int((math.Log(x) - logLo) / logWidth)
	if idx >= bins {
		idx = bins - 1
	}
	return idx
}

// treeLogGeometries are the log histograms the simulator builds: the
// response-ratio histogram, the overload response-time histogram and
// the span histograms.
var treeLogGeometries = []logGeometry{
	{1e-3, 1e6, 360},
	{1e-3, 1e7, 400},
	{1e-6, 1e6, 480},
}

// edgeWindow is how many floats on each side of every bin edge the
// exactness test checks one by one. The expression can disagree with
// the exact bin only within 2·max|ln x| + 2·ln(hi/lo) ulps of a true
// edge, under 100 for every geometry here (DESIGN.md §9).
const edgeWindow = 4096

// ulpsApart counts the float64s from a up to b, for 0 < a ≤ b.
func ulpsApart(a, b float64) uint64 { return math.Float64bits(b) - math.Float64bits(a) }

// checkLogGeometry checks the shared index of g against refLogBin at
// every float within edgeWindow of each edge, at lo and the last float
// below hi, and at draws log-uniform over [lo, hi).
func checkLogGeometry(t *testing.T, g logGeometry, draws int, r *rand.Rand) {
	t.Helper()
	h := NewLogHistogram(g.lo, g.hi, g.bins)
	ix := h.index
	check := func(x float64) bool {
		if got, want := ix.bin(x), refLogBin(g.lo, g.hi, g.bins, x); got != want {
			t.Errorf("%v: x=%v (bits %#x): bin %d, expression %d", g, x, math.Float64bits(x), got, want)
			return false
		}
		return true
	}
	last := math.Nextafter(g.hi, 0)
	if !check(g.lo) || !check(last) {
		return
	}
	for k, e := range ix.edge {
		// The window around the table's edge covers the one around the
		// exact edge: exp of its position is within a few dozen ulps.
		// Below the least normal float math.Log can be far off (amd64's
		// reads a subnormal as a normal), so the edges are not near their
		// positions; windows and draws still hold the index to the judge.
		est := math.Exp(ix.logLo + float64(k)*ix.logWidth)
		if k > 0 && k < g.bins && e < g.hi && g.lo >= 0x1p-1022 {
			if d := ulpsApart(min(e, est), max(e, est)); d > edgeWindow/8 {
				t.Errorf("%v: edge %d is %d ulps from exp of its position", g, k, d)
			}
		}
		x := e
		for i := 0; i < edgeWindow && x > g.lo; i++ {
			x = math.Nextafter(x, 0)
		}
		for i := 0; i <= 2*edgeWindow && x < g.hi; i++ {
			if !check(x) {
				return
			}
			x = math.Nextafter(x, g.hi)
		}
	}
	span := math.Log(g.hi / g.lo)
	for i := 0; i < draws; i++ {
		x := g.lo * math.Exp(r.Float64()*span)
		if x >= g.lo && x < g.hi && !check(x) {
			return
		}
	}
}

// TestLogIndexMatchesExpression proves the index exact on the tree's
// geometries, on the same geometries with the bin count doubled (which
// must not share a table with them), and on random ones, including
// subnormal and extreme bins-per-octave geometries.
func TestLogIndexMatchesExpression(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, g := range treeLogGeometries {
		checkLogGeometry(t, g, 1_000_000, r)
		checkLogGeometry(t, logGeometry{g.lo, g.hi, 2 * g.bins}, 100_000, r)
	}
	geoms := []logGeometry{
		{1e-310, 1e-300, 50}, // subnormal lo
		{1, 1.5, 2000},       // narrow bins: the finest cells
		{1e-200, 1e200, 3},   // wide bins: the coarsest cells
		{1, math.Nextafter(1, 2), 1},
		{0.5, 4, 6},
	}
	random := 32
	if testing.Short() {
		random = 8
	}
	for range random {
		lo := math.Pow(10, -12+15*r.Float64())
		hi := lo * math.Pow(10, 0.01+12*r.Float64())
		geoms = append(geoms, logGeometry{lo, hi, 1 + r.Intn(1000)})
	}
	draws := 1_000_000
	if testing.Short() {
		draws = 100_000
	}
	for _, g := range geoms {
		checkLogGeometry(t, g, draws, r)
	}
}

// TestLogHistogramAddOutOfRange keeps what Add did outside the index:
// under- and overflow at the bounds, and a panic on NaN.
func TestLogHistogramAddOutOfRange(t *testing.T) {
	h := NewLogHistogram(1e-3, 1e6, 360)
	for _, x := range []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, math.Nextafter(1e-3, 0)} {
		h.Add(x)
	}
	for _, x := range []float64{1e6, math.Inf(1)} {
		h.Add(x)
	}
	h.Add(1e-3)
	h.Add(math.Nextafter(1e6, 0))
	if h.Underflow() != 5 || h.Overflow() != 2 || h.Bin(0) != 1 || h.Bin(359) != 1 {
		t.Errorf("under %d over %d first %d last %d, want 5, 2, 1, 1",
			h.Underflow(), h.Overflow(), h.Bin(0), h.Bin(359))
	}
	for _, nan := range []float64{math.NaN(), math.Copysign(math.NaN(), -1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", nan)
				}
			}()
			h.Add(nan)
		}()
	}
	for _, f := range []func(){
		func() { NewLogHistogram(1, math.Inf(1), 5) },
		func() { NewLogHistogram(math.NaN(), 1, 5) },
		func() { NewLogHistogram(1e-3, math.NaN(), 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// sharedGeometryRuns gives each run of TestLogIndexSharedAcrossGoroutines
// a geometry no earlier run built, so every run races a first build.
var sharedGeometryRuns atomic.Int64

// TestLogIndexSharedAcrossGoroutines builds and fills histograms of one
// new geometry from several goroutines at once, as parallel replications
// do; run it under -race. Every histogram gets the same index and the
// same counts as one filled alone.
func TestLogIndexSharedAcrossGoroutines(t *testing.T) {
	g := logGeometry{1e-3, 1e6, 1000 + int(sharedGeometryRuns.Add(1))}
	const workers, adds = 4, 20_000
	xs := make([]float64, adds)
	r := rand.New(rand.NewSource(7))
	for i := range xs {
		xs[i] = 1e-4 * math.Exp(r.Float64()*math.Log(1e11))
	}
	hs := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for w := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := NewLogHistogram(g.lo, g.hi, g.bins)
			for _, x := range xs {
				h.Add(x)
			}
			hs[w] = h
		}()
	}
	wg.Wait()
	want := make([]int64, g.bins)
	for _, x := range xs {
		if x >= g.lo && x < g.hi {
			want[refLogBin(g.lo, g.hi, g.bins, x)]++
		}
	}
	for w, h := range hs {
		if h.index != hs[0].index {
			t.Errorf("worker %d built its own index", w)
		}
		for k, c := range want {
			if h.Bin(k) != c {
				t.Fatalf("worker %d bin %d: %d, want %d", w, k, h.Bin(k), c)
			}
		}
	}
}

// logUniform returns n draws log-uniform over [lo, hi).
func logUniform(n int, lo, hi float64) []float64 {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo * math.Exp(r.Float64()*math.Log(hi/lo))
	}
	return xs
}

// BenchmarkHistogramAdd times one in-range Add on the response-ratio
// histogram's geometry.
func BenchmarkHistogramAdd(b *testing.B) {
	xs := logUniform(1<<12, 1e-3, 1e6)
	h := NewLogHistogram(1e-3, 1e6, 360)
	for i := 0; i < b.N; i++ {
		h.Add(xs[i&(len(xs)-1)])
	}
}

// BenchmarkLogIndex times building the response-ratio histogram's index
// for the first time, and a later histogram's lookup of the shared one.
func BenchmarkLogIndex(b *testing.B) {
	g := treeLogGeometries[0]
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkIndex = newLogIndex(g.lo, g.hi, g.bins)
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkIndex = sharedLogIndex(g.lo, g.hi, g.bins)
		}
	})
}

// sinkIndex keeps the benchmarked calls' results live.
var sinkIndex *logIndex

// String names a geometry in test failures.
func (g logGeometry) String() string { return fmt.Sprintf("[%g,%g)×%d", g.lo, g.hi, g.bins) }
