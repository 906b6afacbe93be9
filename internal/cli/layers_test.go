package cli

import (
	"encoding/json"
	"flag"
	"reflect"
	"strings"
	"testing"

	"heterosched/internal/cluster"
	"heterosched/internal/sched"
)

// leafFields maps a pointer to every non-struct field of the struct v
// points at, descending into embedded structs, to the field's name.
func leafFields(v reflect.Value, out map[any]string) {
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if sf.Anonymous && f.Kind() == reflect.Struct {
			leafFields(f, out)
			continue
		}
		out[f.Addr().Interface()] = sf.Name
	}
}

// TestLayerTableCoversEveryField: every settable field of LayerFlags,
// including the fields of the embedded Params, has exactly one table
// entry, and the entry names are unique. A Params field added without
// a flag fails here.
func TestLayerTableCoversEveryField(t *testing.T) {
	var lf LayerFlags
	entries := map[any][]string{}
	names := map[string]bool{}
	for _, e := range layerTable {
		if names[e.name] {
			t.Errorf("flag -%s listed twice", e.name)
		}
		names[e.name] = true
		p := e.field(&lf)
		entries[p] = append(entries[p], e.name)
	}
	leaves := map[any]string{}
	leafFields(reflect.ValueOf(&lf).Elem(), leaves)
	for p, field := range leaves {
		if got := entries[p]; len(got) != 1 {
			t.Errorf("field %s has flags %v, want exactly one", field, got)
		}
	}
	if len(layerTable) != len(leaves) {
		t.Errorf("%d table entries for %d fields", len(layerTable), len(leaves))
	}
}

// TestLayerFlagDefaults pins the registered defaults.
func TestLayerFlagDefaults(t *testing.T) {
	want := map[string]string{
		"dispatchers": "1", "sync": "never", "fate": "requeue",
		"retries": "3", "realloc": "stale", "admit": "none",
	}
	var lf LayerFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lf.Register(fs)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		def, ok := want[f.Name]
		if !ok && f.DefValue != "" && f.DefValue != "0" {
			t.Errorf("-%s default %q, want zero or empty", f.Name, f.DefValue)
		}
		if ok && f.DefValue != def {
			t.Errorf("-%s default %q, want %q", f.Name, f.DefValue, def)
		}
	})
	if n != len(layerTable) {
		t.Errorf("registered %d flags, want %d", n, len(layerTable))
	}
	if lf != (LayerFlags{}).WithDefaults() {
		t.Errorf("registered values %+v differ from WithDefaults %+v", lf, LayerFlags{}.WithDefaults())
	}
	if lf.Retries != 3 || lf.Fate != "requeue" || lf.Dispatchers != "1" {
		t.Errorf("registered values %+v do not hold the defaults", lf)
	}
}

// TestLayerFlagsRoundTrip: setting any one flag and serializing gives
// exactly that item back, and parsing the item reproduces the value.
func TestLayerFlagsRoundTrip(t *testing.T) {
	sample := map[string]string{
		"dispatchers": "4:hash", "sync": "250", "mtbf": "3000", "mttr": "200.5",
		"fate": "resume", "retries": "2", "detect": "20", "realloc": "resolve",
		"qcap": "20:oldest", "admit": "token-bucket:0.1:5", "deadline": "exp:900:mark",
		"timeout": "400", "retry": "2", "backoff": "2:30:0.5", "breaker": "5:300",
		"drift": "lstep:8000:1.2,mis:0.1", "replan": "500:0.9:1000", "estimator": "ewma:0.05",
		"netfault": "loss:0.05,lat:2", "ackto": "30:4", "dstate": "ckpt:2500",
		"ctrl": "lat:3,qto:40",
	}
	if len(sample) != len(layerTable) {
		t.Fatalf("%d samples for %d flags", len(sample), len(layerTable))
	}
	for _, e := range layerTable {
		var lf LayerFlags
		if ok, err := lf.Set(e.name, sample[e.name]); !ok || err != nil {
			t.Fatalf("Set(%s, %q) = %v, %v", e.name, sample[e.name], ok, err)
		}
		items := lf.Items()
		if want := e.name + "=" + sample[e.name]; len(items) != 1 || items[0] != want {
			t.Errorf("-%s: items %q, want [%s]", e.name, items, want)
			continue
		}
		var back LayerFlags
		name, value, _ := strings.Cut(items[0], "=")
		if _, err := back.Set(name, value); err != nil || back != lf {
			t.Errorf("-%s: round trip gave %+v (%v), want %+v", e.name, back, err, lf)
		}
	}
	var lf LayerFlags
	if ok, _ := lf.Set("bogus", "1"); ok {
		t.Error("Set accepted an unknown flag")
	}
	for _, bad := range []struct{ name, value string }{{"mtbf", "NaN"}, {"retries", "two"}, {"timeout", "1e999"}} {
		if _, err := lf.Set(bad.name, bad.value); err == nil || !strings.Contains(err.Error(), bad.name) {
			t.Errorf("Set(%s, %q) error %v, want one naming the flag", bad.name, bad.value, err)
		}
	}
}

// TestLayerFlagsRecord: the manifest records exactly the layer flags set
// on the command line, numbers as JSON numbers.
func TestLayerFlagsRecord(t *testing.T) {
	var lf LayerFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "not a layer flag")
	lf.Register(fs)
	if err := fs.Parse([]string{"-mtbf", "3000", "-qcap", "30", "-timeout", "300", "-retry", "2", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	config := map[string]any{}
	lf.Record(fs, config)
	want := map[string]any{"mtbf": 3000.0, "qcap": "30", "timeout": 300.0, "retry": 2}
	if !reflect.DeepEqual(config, want) {
		t.Errorf("recorded %#v, want %#v", config, want)
	}
	b, err := json.Marshal(config)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(b); got != `{"mtbf":3000,"qcap":"30","retry":2,"timeout":300}` {
		t.Errorf("manifest JSON %s", got)
	}
	if *seed != 9 {
		t.Errorf("seed %d: the layer flags disturbed another flag", *seed)
	}
}

// TestLayerFlagsBuild: the defaults build every layer off; a set flag
// builds its layer, applies to a cluster.Config and reaches the policy
// options; errors name the flag.
func TestLayerFlagsBuild(t *testing.T) {
	layers, err := LayerFlags{}.WithDefaults().Build(4)
	if err != nil {
		t.Fatal(err)
	}
	var cfg cluster.Config
	layers.Apply(&cfg)
	if cfg.Faults != nil || cfg.Overload != nil || cfg.Drift != nil || cfg.Adapt != nil || cfg.Netfault != nil || cfg.Ctrl != nil {
		t.Errorf("default flags built a layer: %+v", layers)
	}
	if p := layers.Policy; p.Computers != 4 || p.Sharding.Dispatchers != 1 || p.Realloc != sched.ReallocStale {
		t.Errorf("default policy options %+v", p)
	}

	lf := LayerFlags{}.WithDefaults()
	lf.Dispatchers, lf.MTBF, lf.MTTR, lf.Realloc, lf.QCap = "2:hash", 3000, 200, "resolve", "30"
	if layers, err = lf.Build(4); err != nil {
		t.Fatal(err)
	}
	layers.Apply(&cfg)
	if cfg.Faults == nil || cfg.Faults != layers.Policy.Faults || cfg.Overload == nil || cfg.Overload.QueueCap != 30 {
		t.Errorf("built config %+v", cfg)
	}
	if p := layers.Policy; p.Sharding.Dispatchers != 2 || p.Realloc != sched.ReallocResolve {
		t.Errorf("policy options %+v", p)
	}

	for _, tc := range []struct {
		set  func(*LayerFlags)
		flag string
	}{
		{func(f *LayerFlags) { f.Sync = "0" }, "-sync"},
		{func(f *LayerFlags) { f.MTBF, f.MTTR, f.Retries = 100, 10, 0 }, "-retries"},
		{func(f *LayerFlags) { f.Admit = "maybe" }, "-admit"},
		{func(f *LayerFlags) { f.Estimator = "win:8" }, "-estimator"},
		{func(f *LayerFlags) { f.DState = "acks" }, "-dstate"},
		{func(f *LayerFlags) { f.Ctrl = "lease:0" }, "-ctrl"},
	} {
		lf := LayerFlags{}.WithDefaults()
		tc.set(&lf)
		if _, err := lf.Build(4); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %v, want one naming the flag", tc.flag, err)
		}
	}
}
