// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 6) from this reproduction's
// models, simulators and CPU baseline, side by side with the paper's
// reported numbers. cmd/heax-bench prints the tables, and the root
// Table7_CPU/Table8_CPU benchmarks time Table7Ops and Table8Ops under
// `go test -bench`.
package bench

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Render formats the table as aligned ASCII.
func (t Table) Render() string {
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
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

func f0(x float64) string { return fmt.Sprintf("%.0f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
