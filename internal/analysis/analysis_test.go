package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if len(c.sorted) != 4 {
		t.Error("sample count wrong")
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	NewCDF(in)
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if c.Quantile(0) != 10 || c.Quantile(1) != 50 {
		t.Error("extremes wrong")
	}
	if got := c.Quantile(0.5); got != 30 {
		t.Errorf("median = %v", got)
	}
	if got := c.Quantile(0.25); got != 20 {
		t.Errorf("q25 = %v (linear interpolation on exact index)", got)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if NewCDF(nil).At(1) != 0 {
		t.Error("empty At should be 0")
	}
	if !math.IsNaN(NewCDF(nil).Mean()) {
		t.Error("empty mean should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.Median != 3 || s.Min != 1 || s.Max != 100 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Mean-22) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
}

// Property: CDF is monotone and bounded in [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		for i := range raw {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0
			}
		}
		c := NewCDF(raw)
		if a > b {
			a, b = b, a
		}
		pa, pb := c.At(a), c.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Latency", "Op", "Median(sec)", "Mean(sec)")
	tb.AddRow("Start spot instance", 227.0, 224.0)
	tb.AddRow("Attach ENI", 3.0, 3.75)
	out := tb.String()
	if !strings.Contains(out, "== Latency ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "Start spot instance") || !strings.Contains(out, "227") {
		t.Errorf("row missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
	if len(tb.rows) != 2 || tb.rows[0][0] != "Start spot instance" {
		t.Errorf("rows = %v", tb.rows)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.0)
	tb.AddRow(1234.5)
	tb.AddRow(2.25)
	tb.AddRow(0.0064)
	tb.AddRow(1.74e-4)
	want := []string{"0", "1234", "2.25", "0.0064", "1.740e-04"}
	for i, w := range want {
		if tb.rows[i][0] != w {
			t.Errorf("row %d = %q, want %q", i, tb.rows[i][0], w)
		}
	}
}

func TestSeriesRendering(t *testing.T) {
	s := Series{Name: "availability", X: []float64{0.5, 1.0}, Y: []float64{0.9}}
	out := s.String()
	if !strings.Contains(out, "# availability") {
		t.Error("name missing")
	}
	if !strings.Contains(out, "0.9000") {
		t.Errorf("y missing:\n%s", out)
	}
	if !strings.Contains(out, "NaN") {
		t.Error("missing y should render NaN")
	}
}

func TestBarsRendering(t *testing.T) {
	b := Bars{
		Title:  "Average cost",
		Groups: []string{"1P-M", "2P-ML"},
		Labels: []string{"Live", "Lazy"},
		Values: [][]float64{{0.010, 0.015}, {0.011}},
	}
	out := b.String()
	if !strings.Contains(out, "1P-M") || !strings.Contains(out, "Lazy") {
		t.Errorf("labels missing:\n%s", out)
	}
	if !strings.Contains(out, "0.0150") {
		t.Errorf("value missing:\n%s", out)
	}
	if !strings.Contains(out, "NaN") {
		t.Error("ragged values should render NaN")
	}
}
