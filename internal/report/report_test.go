package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("beta", "22")
	tab.AddNote("a note with %d args", 2)
	s := tab.String()
	for _, want := range []string{"demo", "name", "value", "alpha", "beta", "----", "note: a note with 2 args"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// title + header + separator + 2 rows + note
	if len(lines) != 6 {
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("longvalue", "x")
	tab.AddRow("s", "y")
	lines := strings.Split(strings.TrimRight(tab.String(), "\n"), "\n")
	// Column b should start at the same offset in both data rows.
	row1, row2 := lines[2], lines[3]
	if strings.Index(row1, "x") != strings.Index(row2, "y") {
		t.Errorf("columns misaligned:\n%s", tab.String())
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	tab := NewTable("t", "a", "b")
	tab.AddRow("only")
	tab.AddRow("x", "y")
	s := tab.String()
	if !strings.Contains(s, "only") || !strings.Contains(s, "y") {
		t.Errorf("rows lost:\n%s", s)
	}
}

func TestWriteCSV(t *testing.T) {
	tab := NewTable("ignored title", "a", "b")
	tab.AddRow("1", "x,y") // comma must be quoted
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b") || !strings.Contains(got, `"x,y"`) {
		t.Errorf("csv = %q", got)
	}
	if strings.Contains(got, "ignored title") {
		t.Error("csv should not include the title")
	}
}

func TestFormatters(t *testing.T) {
	if F(3.14159) != "3.142" {
		t.Errorf("F = %q", F(3.14159))
	}
	if F2(3.14159) != "3.14" {
		t.Errorf("F2 = %q", F2(3.14159))
	}
	if F4(3.14159) != "3.1416" {
		t.Errorf("F4 = %q", F4(3.14159))
	}
	if Pct(0.3084) != "30.84" {
		t.Errorf("Pct = %q", Pct(0.3084))
	}
	if got := MeanCI(2.5, 0.25); got != "2.5 ±0.25" {
		t.Errorf("MeanCI = %q", got)
	}
}

func TestEmptyTable(t *testing.T) {
	tab := NewTable("empty", "h")
	s := tab.String()
	if !strings.Contains(s, "empty") || !strings.Contains(s, "h") {
		t.Errorf("empty table render: %q", s)
	}
}
