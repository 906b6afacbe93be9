package rng

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds matched %d/1000 outputs", same)
	}
}

func TestReseedRestarts(t *testing.T) {
	a := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = a.Uint64()
	}
	a.Reseed(7)
	for i := range first {
		if got := a.Uint64(); got != first[i] {
			t.Fatalf("after Reseed output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	s := New(11)
	for i := 0; i < 100000; i++ {
		if s.Float64Open() <= 0 {
			t.Fatal("Float64Open returned non-positive value")
		}
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(9)
	for _, n := range []int{1, 2, 3, 7, 10, 1000} {
		for i := 0; i < 10000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(13)
	const n, draws = 10, 1000000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn(%d): bucket %d has %d draws, want ~%.0f", n, i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMeanAndVariance(t *testing.T) {
	s := New(17)
	const n = 500000
	const mean = 3.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := s.Exp(mean)
		if x <= 0 {
			t.Fatalf("Exp returned non-positive %v", x)
		}
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean)/mean > 0.02 {
		t.Errorf("Exp mean = %v, want ~%v", m, mean)
	}
	if math.Abs(v-mean*mean)/(mean*mean) > 0.05 {
		t.Errorf("Exp variance = %v, want ~%v", v, mean*mean)
	}
}

func TestExpPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	New(1).Exp(-1)
}

func TestUniformRange(t *testing.T) {
	s := New(23)
	for i := 0; i < 100000; i++ {
		x := s.Uniform(2, 5)
		if x < 2 || x >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", x)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	root := New(100)
	a := root.Derive("arrivals")
	b := root.Derive("sizes")
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams matched %d/1000 outputs", same)
	}
}

func TestDeriveDeterministic(t *testing.T) {
	a := New(100).Derive("x")
	b := New(100).Derive("x")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-name derivations from same seed diverged")
		}
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(55)
	b := New(55)
	a.Derive("child")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive consumed randomness from parent")
		}
	}
}

func TestDeriveIndexedDistinct(t *testing.T) {
	root := New(9)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		v := root.DeriveIndexed("rep", i).Uint64()
		if seen[v] {
			t.Fatalf("DeriveIndexed collision at index %d", i)
		}
		seen[v] = true
	}
}

// Property: Intn(n) always lands in [0, n) for arbitrary seeds and n.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds give identical sequences regardless of seed value.
func TestQuickDeterministicAcrossSeeds(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Exp samples are positive for any positive mean.
func TestQuickExpPositive(t *testing.T) {
	f := func(seed uint64, m float64) bool {
		mean := math.Abs(m)
		if mean == 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
			mean = 1
		}
		s := New(seed)
		for i := 0; i < 20; i++ {
			if s.Exp(mean) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Float64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Exp(1.0)
	}
	_ = sink
}
