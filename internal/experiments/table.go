// Package experiments defines every table and figure of the PAIR study's
// evaluation as a runnable, renderable artifact, and the one ordered index
// (index.go) that pairsim and the pair facade run them through. DESIGN.md
// describes each identifier (T1, F1, ...) and EXPERIMENTS.md holds the
// measured-vs-claimed record.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a fixed-width text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteString("\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// sci formats a probability in scientific notation, with exact zero shown
// as "0" (meaning "no failures observed at this trial count").
func sci(x float64) string {
	if x == 0 {
		return "0"
	}
	return fmt.Sprintf("%.2e", x)
}

// pct formats a ratio as a percentage.
func pct(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
