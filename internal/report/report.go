// Package report renders the experiment harness's tables and figure
// series as aligned ASCII, in the same row/column layout as the paper's
// tables and figures so measured results can be compared side by side
// with the published ones.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given title and header.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	fmt.Fprintln(w, line(t.Header))
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total-2))
	for _, row := range t.Rows {
		fmt.Fprintln(w, line(row))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one line of a figure: a named sequence of (x, y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a set of series sharing an x-axis, standing in for one paper
// figure panel.
type Figure struct {
	Title  string
	XLabel string
	Series []*Series
}

// NewFigure returns an empty figure.
func NewFigure(title, xlabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel}
}

// Add appends a point to the named series (created on first use).
func (f *Figure) Add(series string, x, y float64) {
	for _, s := range f.Series {
		if s.Name == series {
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
			return
		}
	}
	f.Series = append(f.Series, &Series{Name: series, X: []float64{x}, Y: []float64{y}})
}

// Render writes the figure as a table: one row per x value, one column
// per series.
func (f *Figure) Render(w io.Writer) {
	// Collect the union of x values in first-seen order.
	var xs []float64
	seen := make(map[float64]bool)
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	t := NewTable(f.Title, header...)
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%.4g", s.Y[i])
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4g", x)
	return s
}
