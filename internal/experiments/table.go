// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) plus the analytical results (Figure 1, Figure 7,
// Theorem 4, and the §3.4 integer program): one configurable runner per
// experiment, each emitting the same data series the paper plots.
//
// A note on terminology: §5 uses "moves" for the number of *turns*
// (timesteps, the makespan) a heuristic needs and "bandwidth" for the
// number of token transfers. Tables below follow the paper's usage.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: the series a paper figure plots.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries qualitative observations to compare against the
	// paper's claims.
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// ASCII renders the table with aligned columns.
func (t *Table) ASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table exactly as a CSVSink streams it: RFC-4180 CSV,
// the columns and then one line per row, notes dropped.
func (t *Table) CSV() string {
	var b strings.Builder
	sink := &CSVSink{W: &b}
	// A strings.Builder never fails a write, so neither can the sink.
	_ = sink.Head(t.Title, t.Columns)
	for _, row := range t.Rows {
		_ = sink.Row(row)
	}
	_ = sink.Flush()
	return b.String()
}
