package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// pinOptions is the one small setting every registry entry is pinned
// at. validate's fixed 10% calibration bound holds here for two
// replications; at -scale 0.03 -reps 2 -seed 1 it does not, and
// validate fails there.
var pinOptions = Options{Scale: 0.01, Reps: 2, Seed: 1}

// registryPins are the first 16 hex digits of the SHA-256 of each
// entry's tables at pinOptions, rendered as cmd/experiments prints
// them (each table followed by a blank line).
var registryPins = map[string]string{
	"ext-baselines": "c4a856ca3302918b",
	"ext-capped":    "c6940c486e939a21",
	"ext-chaos":     "1925d1c00ce49d12",
	"ext-control":   "edcb65a247a99038",
	"ext-cv":        "078ee31a99fbd2a8",
	"ext-dispatch":  "752bad40931ddd25",
	"ext-diurnal":   "2f8befb336c39448",
	"ext-drift":     "1f1f380544d615f4",
	"ext-faults":    "1b32bfb8a67ca686",
	"ext-netfaults": "1c21a3e53b49f6e3",
	"ext-overload":  "9c14117ab5ffca11",
	"ext-quantum":   "8b26e290bf3681f4",
	"ext-sharding":  "6fa4382114bd34cf",
	"ext-sita":      "5948fe4dba7cc2cb",
	"ext-tracepath": "dfe23d9a1c316cf6",
	"fig2":          "baeae9226c4315bf",
	"fig3":          "9569835db92e16f5",
	"fig4":          "84ccbe873dbecd64",
	"fig5":          "31dd1b0a1bbdf569",
	"fig6":          "2b944bdd048f8a79",
	"table1":        "daf099c54f2a1f0f",
	"table2":        "145ee7c8057b4dbe",
	"validate":      "a2e01dd8562f81de",
}

// renderTables renders out's tables as cmd/experiments writes them to
// standard output.
func renderTables(t *testing.T, out *Output) string {
	var b strings.Builder
	for _, tab := range out.Tables {
		if _, err := tab.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestRegistryPins runs every registry entry at pinOptions and
// compares a digest of its rendered tables with the recorded pin, so a
// change that moves any number any experiment prints fails here and
// prints the table it now renders.
func TestRegistryPins(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			out, err := RunByName(name, pinOptions)
			if err != nil {
				t.Fatal(err)
			}
			text := renderTables(t, out)
			sum := sha256.Sum256([]byte(text))
			got := hex.EncodeToString(sum[:8])
			if want := registryPins[name]; got != want {
				t.Errorf("%s at -scale %g -reps %d -seed %d: digest %s, pinned %q; tables:\n%s",
					name, pinOptions.Scale, pinOptions.Reps, pinOptions.Seed, got, want, text)
			}
		})
	}
}
