// Package report renders experiment results as aligned text tables and CSV
// for the experiment harness and CLI tools. It has no knowledge of the
// experiments themselves: callers provide headers and rows.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-aligned table builder.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row of pre-formatted cells. Rows shorter than the
// header are padded with empty cells; longer rows extend the table.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddNote appends a footnote line printed under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// widths returns the per-column display widths.
func (t *Table) widths() []int {
	n := len(t.headers)
	for _, r := range t.rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// WriteTo renders the table to w. It implements a text layout with a title
// line, a header separator, and right-padded cells.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	widths := t.widths()
	writeRow := func(cells []string) {
		for i := 0; i < len(widths); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	if len(t.headers) > 0 {
		writeRow(t.headers)
		sep := make([]string, len(widths))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, note := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if _, err := t.WriteTo(&b); err != nil {
		return fmt.Sprintf("report: %v", err)
	}
	return b.String()
}

// WriteCSV writes the table's headers and rows as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(t.headers) > 0 {
		if err := cw.Write(t.headers); err != nil {
			return err
		}
	}
	for _, r := range t.rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// F formats a float for table cells with sensible defaults (4 significant
// digits).
func F(x float64) string { return strconv.FormatFloat(x, 'g', 4, 64) }

// F2 formats a float with 2 decimal places.
func F2(x float64) string { return strconv.FormatFloat(x, 'f', 2, 64) }

// F4 formats a float with 4 decimal places.
func F4(x float64) string { return strconv.FormatFloat(x, 'f', 4, 64) }

// Pct formats a fraction as a percentage with 2 decimals, e.g. 0.3084 →
// "30.84".
func Pct(x float64) string { return strconv.FormatFloat(100*x, 'f', 2, 64) }

// MeanCI formats "mean ±ci".
func MeanCI(mean, ci float64) string {
	return fmt.Sprintf("%s ±%s", F(mean), F(ci))
}
