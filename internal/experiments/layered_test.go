package experiments

import (
	"testing"

	"heterosched/internal/chaos"
)

// TestLayeredCellsRunClean runs every layered cell of the extension
// studies as a chaos scenario with the full invariant registry
// attached. The cells are built at a scale whose base horizon, 2e4 s,
// is the chaos sampler's default; no invariant may break in any of
// them.
func TestLayeredCellsRunClean(t *testing.T) {
	o := Options{Scale: 0.005, Seed: 1}
	studies := []struct {
		name  string
		cells func(Options) ([]cell, error)
	}{
		{"ext-faults", faultCells},
		{"ext-overload B", overloadCells},
		{"ext-drift", driftCells},
		{"ext-netfaults A", netfaultCells},
		{"ext-netfaults B", recoveryCells},
		{"ext-control", controlCells},
		{"ext-sharding", shardingCells},
	}
	ran := 0
	for _, st := range studies {
		cells, err := st.cells(o)
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		for _, c := range cells {
			rep, err := chaos.Execute(c.Spec, chaos.Options{})
			if err != nil {
				t.Errorf("%s %s: %v", st.name, c.label, err)
				continue
			}
			for _, v := range rep.Violations {
				t.Errorf("%s %s: %s: %s", st.name, c.label, v.Invariant, v.Detail)
			}
			ran++
		}
	}
	t.Logf("%d layered cells ran clean", ran)
}
