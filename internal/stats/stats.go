// Package stats provides small helpers for presenting experiment results:
// aligned text tables (in the spirit of the paper's tables) and CSV output.
package stats

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a titled grid of string cells with a header row: the rendered
// form of one experiment, matching the corresponding table or figure of the
// paper.
type Table struct {
	Title   string     `json:"title"`   // Title is the table's heading.
	Columns []string   `json:"columns"` // Columns is the header row.
	Rows    [][]string `json:"rows"`    // Rows is the cell grid, one slice per row.
	// Note is free-form text rendered under the table (provenance, caveats).
	Note string `json:"note,omitempty"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row.  Rows shorter than the header are padded with empty
// cells; longer rows are accepted as-is.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	for len(row) < len(t.Columns) {
		row = append(row, "")
	}
	t.Rows = append(t.Rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// Cell returns the cell at (row, col), or "" if out of range.
func (t *Table) Cell(row, col int) string {
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		return ""
	}
	return t.Rows[row][col]
}

// widths computes the rendered width of each column.
func (t *Table) widths() []int {
	n := len(t.Columns)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, c := range t.Columns {
		if len(c) > w[i] {
			w[i] = len(c)
		}
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	w := t.widths()
	writeRow := func(cells []string) {
		for i := 0; i < len(w); i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				// Left-align the first (label) column.
				b.WriteString(cell)
				b.WriteString(strings.Repeat(" ", w[i]-len(cell)))
			} else {
				b.WriteString(strings.Repeat(" ", w[i]-len(cell)))
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.Columns) > 0 {
		writeRow(t.Columns)
		total := 0
		for _, x := range w {
			total += x
		}
		b.WriteString(strings.Repeat("-", total+2*(len(w)-1)))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Note != "" {
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header first).  Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(strconv.Quote(c))
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// FormatCount renders a count the way the paper's tables do: plain digits up
// to 9999, then thousands (K) or millions (M) with two decimals.
func FormatCount(n uint64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 100_000:
		return fmt.Sprintf("%.2fK", float64(n)/1e3)
	default:
		return strconv.FormatUint(n, 10)
	}
}

// FormatFloat renders a float with the given number of decimals.
func FormatFloat(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// FormatPercent renders a percentage with two decimals.
func FormatPercent(v float64) string { return fmt.Sprintf("%.2f", v) }

// FormatSpeedup renders a speedup percentage with one decimal and a sign.
func FormatSpeedup(v float64) string { return fmt.Sprintf("%+.1f%%", v) }
