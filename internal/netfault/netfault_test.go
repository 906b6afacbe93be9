package netfault

import (
	"strings"
	"testing"

	"heterosched/internal/dist"
	"heterosched/internal/rng"
)

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config reports enabled")
	}
	if (&Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for name, c := range map[string]*Config{
		"latency":    {Links: Links{Link: Link{Latency: dist.Deterministic{Value: 1}}}},
		"loss":       {Links: Links{Link: Link{Loss: 0.1}}},
		"dup":        {Links: Links{Link: Link{Dup: 0.1}}},
		"per-link":   {Links: Links{PerLink: map[int]Link{0: {Loss: 0.1}}}},
		"partition":  {Links: Links{Partitions: []Partition{{From: 1, To: 2}}}},
		"dispatcher": {Dispatcher: &Dispatcher{}},
		"ack":        {Ack: Ack{Timeout: 10}},
	} {
		if !c.Enabled() {
			t.Errorf("%s config reports disabled", name)
		}
	}
}

func TestLinkFor(t *testing.T) {
	c := &Config{
		Links: Links{
			Link:    Link{Loss: 0.01},
			PerLink: map[int]Link{2: {Loss: 0.5}},
		},
	}
	if got := c.LinkFor(0).Loss; got != 0.01 {
		t.Errorf("LinkFor(0).Loss = %g, want default 0.01", got)
	}
	if got := c.LinkFor(2).Loss; got != 0.5 {
		t.Errorf("LinkFor(2).Loss = %g, want override 0.5", got)
	}
}

func TestLossy(t *testing.T) {
	if (&Config{Links: Links{Link: Link{Latency: dist.Deterministic{Value: 1}, Dup: 0.5}}}).Lossy(4) {
		t.Error("latency+dup-only config reports lossy")
	}
	if !(&Config{Links: Links{Link: Link{Loss: 0.01}}}).Lossy(4) {
		t.Error("default-link loss not reported lossy")
	}
	if !(&Config{Links: Links{PerLink: map[int]Link{3: {Loss: 0.01}}}}).Lossy(4) {
		t.Error("per-link loss not reported lossy")
	}
	if (&Config{Links: Links{PerLink: map[int]Link{7: {Loss: 0.01}}}}).Lossy(4) {
		t.Error("out-of-range per-link loss reported lossy")
	}
	if !(&Config{Links: Links{Partitions: []Partition{{From: 1, To: 2}}}}).Lossy(4) {
		t.Error("partitions not reported lossy")
	}
}

func TestValidateDefaults(t *testing.T) {
	c := &Config{
		Dispatcher: &Dispatcher{
			Uptime:   dist.Exponential{MeanVal: 1000},
			Downtime: dist.Exponential{MeanVal: 50},
		},
		Ack: Ack{Timeout: 20},
	}
	if err := c.Validate(4); err != nil {
		t.Fatal(err)
	}
	d := c.Dispatcher
	if d.BufferCap != DefaultBufferCap || d.CheckpointDT != DefaultCheckpointDT ||
		d.RelearnT != DefaultRelearnT || d.ClientTO != DefaultClientTO {
		t.Errorf("dispatcher defaults not applied: %+v", d)
	}
	a := c.Ack
	if a.Budget != DefaultAckBudget || a.BackoffBase != DefaultBackoffBase || a.BackoffMax != DefaultBackoffMax {
		t.Errorf("ack defaults not applied: %+v", a)
	}
}

func TestValidateNilAndDisabled(t *testing.T) {
	var nilCfg *Config
	if err := nilCfg.Validate(4); err != nil {
		t.Errorf("nil config: %v", err)
	}
	if err := (&Config{}).Validate(4); err != nil {
		t.Errorf("zero config: %v", err)
	}
	// A disabled config skips the computer-count check entirely.
	if err := (&Config{}).Validate(0); err != nil {
		t.Errorf("zero config with zero computers: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	ack := Ack{Timeout: 20}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"loss>=1", Config{Links: Links{Link: Link{Loss: 1}}, Ack: ack}, "loss probability"},
		{"loss<0", Config{Links: Links{Link: Link{Loss: -0.1}}, Ack: ack}, "loss probability"},
		{"dup>1", Config{Links: Links{Link: Link{Dup: 1.5}}}, "duplication probability"},
		{"negative latency", Config{Links: Links{Link: Link{Latency: dist.Deterministic{Value: -1}}}}, "latency mean"},
		{"per-link index", Config{Links: Links{PerLink: map[int]Link{9: {}}}}, "outside [0,4)"},
		{"per-link loss", Config{Links: Links{PerLink: map[int]Link{1: {Loss: 2}}}, Ack: ack}, "link 1 loss"},
		{"partition window", Config{Links: Links{Partitions: []Partition{{From: 5, To: 5}}}, Ack: ack}, "forward interval"},
		{"partition link", Config{Links: Links{Partitions: []Partition{{From: 1, To: 2, Links: []int{4}}}}, Ack: ack}, "cuts link 4"},
		{"dispatcher dists", Config{Dispatcher: &Dispatcher{Uptime: dist.Exponential{MeanVal: 1}}}, "uptime and downtime"},
		{"negative ack timeout", Config{Links: Links{Link: Link{Dup: 0.1}}, Ack: Ack{Timeout: -1}}, "ack timeout"},
		{"lossy without acks", Config{Links: Links{Link: Link{Loss: 0.1}}}, "require ack tracking"},
		{"partition without acks", Config{Links: Links{Partitions: []Partition{{From: 1, To: 2}}}}, "require ack tracking"},
		{
			"failover without acks",
			Config{Dispatcher: &Dispatcher{
				Uptime:   dist.Exponential{MeanVal: 1000},
				Downtime: dist.Exponential{MeanVal: 50},
				Down:     DownFailover,
			}},
			"failover down-policy requires ack",
		},
		{
			"bad backoff",
			Config{Ack: Ack{Timeout: 20, BackoffBase: 10, BackoffMax: 5}},
			"backoff base",
		},
		{
			"bad jitter",
			Config{Ack: Ack{Timeout: 20, Jitter: 2}},
			"jitter",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(4)
			if err == nil {
				t.Fatalf("validate accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseDownPolicy(t *testing.T) {
	for s, want := range map[string]DownPolicy{
		"drop": DownDrop, "buffer": DownBuffer, "failover": DownFailover,
	} {
		got, err := ParseDownPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseDownPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("DownPolicy(%v).String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseDownPolicy("park"); err == nil {
		t.Error("ParseDownPolicy accepted an unknown name")
	}
	if s := DownPolicy(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown DownPolicy string %q", s)
	}
}

// TestLinkDrawRule pins the draw rule Copies and Transit share with the
// control plane. A second stream from the same seed replays by hand the
// draws the rule may make: a duplication roll only when Dup > 0, then
// per copy a loss roll only when Loss > 0 and a latency sample only for
// a copy that survived and only when Latency is set. After every call
// both streams must sit at the same state, so a zero probability or a
// nil latency draws nothing and a lost copy draws no latency. The
// latency straddles zero, so negative samples must clamp to 0.
func TestLinkDrawRule(t *testing.T) {
	lat := dist.Uniform{Lo: -2, Hi: 2}
	var clamped, lost, dups int
	for _, dup := range []float64{0, 0.5} {
		for _, loss := range []float64{0, 0.5} {
			for _, latency := range []dist.Distribution{nil, lat} {
				l := Link{Latency: latency, Loss: loss, Dup: dup}
				st, ref := rng.New(3), rng.New(3)
				for k := 0; k < 200; k++ {
					want := 1
					if dup > 0 && ref.Float64() < dup {
						want = 2
					}
					if got := l.Copies(st); got != want || *st != *ref {
						t.Fatalf("%+v: Copies = %d, want %d (streams aligned: %v)", l, got, want, *st == *ref)
					}
					dups += want - 1
					for c := 0; c < want; c++ {
						wantOK, wantDelay := true, 0.0
						if loss > 0 && ref.Float64() < loss {
							wantOK = false
							lost++
						} else if latency != nil {
							if d := latency.Sample(ref); d > 0 {
								wantDelay = d
							} else {
								clamped++
							}
						}
						delay, ok := l.Transit(st)
						if ok != wantOK || delay != wantDelay || *st != *ref {
							t.Fatalf("%+v: Transit = (%g, %v), want (%g, %v) (streams aligned: %v)",
								l, delay, ok, wantDelay, wantOK, *st == *ref)
						}
					}
				}
			}
		}
	}
	if clamped == 0 || lost == 0 || dups == 0 {
		t.Fatalf("table did not exercise every branch: clamped=%d lost=%d dups=%d", clamped, lost, dups)
	}
}
