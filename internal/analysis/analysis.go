// Package analysis provides the statistics and plain-text rendering used by
// the experiment harnesses: empirical CDFs, quantiles, histograms, and
// aligned tables/series formatted like the paper's figures and tables.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF (the input slice is not modified).
func NewCDF(samples []float64) *CDF {
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	return &CDF{sorted: cp}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th empirical quantile, q in [0,1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := q * float64(len(c.sorted)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(c.sorted) {
		return c.sorted[lo]
	}
	return c.sorted[lo]*(1-frac) + c.sorted[lo+1]*frac
}

// Min and Max return the extremes (NaN when empty).
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Mean returns the sample mean (NaN when empty).
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range c.sorted {
		s += v
	}
	return s / float64(len(c.sorted))
}

// Summary bundles the order statistics the paper's Table 1 reports.
type Summary struct {
	Median, Mean, Max, Min float64
}

// Summarize computes Table 1-style order statistics.
func Summarize(samples []float64) Summary {
	c := NewCDF(samples)
	return Summary{
		Median: c.Quantile(0.5),
		Mean:   c.Mean(),
		Max:    c.Max(),
		Min:    c.Min(),
	}
}

// ---------------------------------------------------------------------------
// Text rendering

// Table renders rows under aligned column headers.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	case math.Abs(v) >= 0.001:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
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
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Series renders an (x, y) series as two aligned columns — one line of a
// figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// String renders the series.
func (s Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for i := range s.X {
		y := math.NaN()
		if i < len(s.Y) {
			y = s.Y[i]
		}
		fmt.Fprintf(&b, "%-12s %s\n", formatFloat(s.X[i]), formatFloat(y))
	}
	return b.String()
}

// Bars renders grouped bar-chart data (policy × mechanism figures): one row
// per group, one column per bar.
type Bars struct {
	Title  string
	Groups []string // row labels (e.g. policies)
	Labels []string // bar labels within each group (e.g. mechanisms)
	Values [][]float64
}

// String renders the grouped bars as an aligned table.
func (bars Bars) String() string {
	t := NewTable(bars.Title, append([]string{""}, bars.Labels...)...)
	for i, g := range bars.Groups {
		cells := make([]any, 0, len(bars.Labels)+1)
		cells = append(cells, g)
		for j := range bars.Labels {
			v := math.NaN()
			if i < len(bars.Values) && j < len(bars.Values[i]) {
				v = bars.Values[i][j]
			}
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	return t.String()
}
