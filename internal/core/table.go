// Package core implements the paper's analyses: one function per figure
// or table in the evaluation, each consuming the datasets a World
// provides and returning a typed result that renders to the rows the
// paper reports. The experiment registry (Experiments, registry.go)
// lists them once for every consumer: the HTTP API, the golden suite,
// the markdown report, vzreport and vzfigs; bench_test.go regenerates
// each experiment under the benchmark harness.
package core

import (
	"fmt"
	"strings"
)

// Table is a rendered analysis result: a caption, a header row, and data
// rows, printable in aligned text or CSV.
type Table struct {
	Caption string
	Header  []string
	Rows    [][]string
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Text renders the table with aligned columns.
func (t *Table) Text() string {
	var b strings.Builder
	if t.Caption != "" {
		b.WriteString(t.Caption)
		b.WriteString("\n")
	}
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values. Cells containing
// commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// f2 formats a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// f1 formats a float with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// pct formats a 0-1 fraction as a percentage with two decimals.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
