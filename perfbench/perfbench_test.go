package main

import (
	"sort"
	"testing"

	"heterosched/internal/cli"
	"heterosched/internal/cluster"
	"heterosched/internal/sched"
)

func policyFor(t *testing.T, name, dispatchers string, computers int) cluster.Policy {
	t.Helper()
	sharding, err := cli.ParseShardingSpecs(dispatchers, "never")
	if err != nil {
		t.Fatal(err)
	}
	f, err := cli.ParsePolicy(name, cli.PolicyOptions{Computers: computers, Sharding: sharding})
	if err != nil {
		t.Fatal(err)
	}
	return f()
}

func TestWrapPresentsSameInterfaces(t *testing.T) {
	for _, tc := range []struct{ name, dispatchers string }{
		{"ORR", "1"},
		{"jiq", "4:hash"},
	} {
		p := policyFor(t, tc.name, tc.dispatchers, 200)
		w, err := wrap(p, &meter{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := ifacesOf(w), ifacesOf(p); got != want {
			t.Errorf("%s: wrapper presents %v, policy implements %v", tc.name, got, want)
		}
		if w.Name() != p.Name() {
			t.Errorf("%s: wrapper named %q, policy %q", tc.name, w.Name(), p.Name())
		}
	}
	// A policy whose set no shape matches is refused, not misrepresented.
	if _, err := wrap(sched.NewLeastLoad(), &meter{}); err == nil {
		t.Error("wrap accepted LL, whose interface set has no wrapper shape")
	}
}

// TestTracedDigestMatchesUntraced runs each workload shortened and
// checks that timing the policy leaves the simulated statistics
// unchanged, run by run.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		w.duration /= 20
		w.refT = 0 // the reference holds at the full duration only
		in, err := w.build()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var plain, timed []outcome
		for i := 0; i < 2; i++ {
			plain = append(plain, in.run(runSeed(5, i), in.factory()))
			m := &meter{}
			pol, err := wrap(in.factory(), m)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			timed = append(timed, in.run(runSeed(5, i), pol))
			if m.selects == 0 || m.en == nil || m.en.Fired() == 0 {
				t.Errorf("%s: meter saw %d selects and no engine events", w.name, m.selects)
			}
		}
		for _, o := range append(plain, timed...) {
			if o.err != nil {
				t.Fatalf("%s: %v", w.name, o.err)
			}
		}
		if a, b := digest(plain), digest(timed); a != b {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, b, a)
		}
	}
}

func TestTailKeepsTenBeyond(t *testing.T) {
	for n := 0; n <= 300; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % (n + 1)) // distinct, unsorted
		}
		sort.Float64s(xs)
		v, pct, ok := tail(xs, 10)
		if n <= 10 {
			if ok {
				t.Errorf("n=%d: tail defined with fewer than eleven samples", n)
			}
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail, want exactly 10", n, beyond)
		}
		if want := 100 * float64(n-10) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}

func TestToggledSwitchesOneLayer(t *testing.T) {
	for _, w := range workloads {
		for l := layer(0); l < numLayers; l++ {
			tw := w.toggled(l)
			for o := layer(0); o < numLayers; o++ {
				if (tw.on(o) != w.on(o)) != (o == l) {
					t.Errorf("%s toggled %v: layer %v on=%v, was %v", w.name, l, o, tw.on(o), w.on(o))
				}
			}
			if _, err := tw.build(); err != nil {
				t.Errorf("%s toggled %v: %v", w.name, l, err)
			}
		}
	}
}

// TestKernelRepeatsItsWork checks that every kernel run does the same
// work: it starts from the same heap and leaves the same heap behind.
func TestKernelRepeatsItsWork(t *testing.T) {
	c := &calibrator{heap: make([]float64, calHeapLen)}
	if s := c.seconds(); !(s > 0) {
		t.Fatalf("kernel took %v s", s)
	}
	first := append([]float64(nil), c.heap...)
	c.seconds()
	for i := range first {
		if c.heap[i] != first[i] {
			t.Fatalf("heap[%d] is %v after the second run, %v after the first", i, c.heap[i], first[i])
		}
	}
	for i := 1; i < len(first); i++ {
		if p := (i - 1) / 4; first[p] > first[i] {
			t.Fatalf("heap order broken: heap[%d]=%v > heap[%d]=%v", p, first[p], i, first[i])
		}
	}
}
