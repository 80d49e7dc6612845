package spotmarket

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

func mustTrace(t *testing.T, pts []Point, end simkit.Time) *Trace {
	t.Helper()
	tr, err := NewTrace(pts, end)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func stepTrace(t *testing.T) *Trace {
	// $0.01 for [0,1h), $0.10 for [1h,2h), $0.02 for [2h,4h)
	return mustTrace(t, []Point{
		{0, 0.01},
		{simkit.Hour, 0.10},
		{2 * simkit.Hour, 0.02},
	}, 4*simkit.Hour)
}

func TestNewTraceValidation(t *testing.T) {
	cases := []struct {
		name string
		pts  []Point
		end  simkit.Time
	}{
		{"empty", nil, simkit.Hour},
		{"not at zero", []Point{{simkit.Second, 1}}, simkit.Hour},
		{"non-positive price", []Point{{0, 0}}, simkit.Hour},
		{"non-increasing", []Point{{0, 1}, {0, 2}}, simkit.Hour},
		{"end before last", []Point{{0, 1}, {2 * simkit.Hour, 2}}, simkit.Hour},
	}
	for _, c := range cases {
		if _, err := NewTrace(c.pts, c.end); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPriceAt(t *testing.T) {
	tr := stepTrace(t)
	cases := []struct {
		at   simkit.Time
		want cloud.USD
	}{
		{0, 0.01},
		{30 * simkit.Minute, 0.01},
		{simkit.Hour, 0.10},
		{90 * simkit.Minute, 0.10},
		{2 * simkit.Hour, 0.02},
		{3 * simkit.Hour, 0.02},
		{-simkit.Hour, 0.01},      // clamp low
		{100 * simkit.Hour, 0.02}, // clamp high
	}
	for _, c := range cases {
		if got := tr.PriceAt(c.at); got != c.want {
			t.Errorf("PriceAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestNextChangeAfter(t *testing.T) {
	tr := stepTrace(t)
	if next, ok := tr.NextChangeAfter(0); !ok || next != simkit.Hour {
		t.Errorf("NextChangeAfter(0) = %v,%v", next, ok)
	}
	if next, ok := tr.NextChangeAfter(simkit.Hour); !ok || next != 2*simkit.Hour {
		t.Errorf("NextChangeAfter(1h) = %v,%v", next, ok)
	}
	if _, ok := tr.NextChangeAfter(2 * simkit.Hour); ok {
		t.Error("NextChangeAfter(2h) should report no further changes")
	}
}

func TestIntegrate(t *testing.T) {
	tr := stepTrace(t)
	// Full [0,4h): 0.01*1 + 0.10*1 + 0.02*2 = 0.15
	if got := tr.Integrate(0, 4*simkit.Hour); math.Abs(float64(got)-0.15) > 1e-12 {
		t.Errorf("Integrate full = %v, want 0.15", got)
	}
	// Partial crossing segments [0.5h, 2.5h): 0.01*0.5 + 0.10*1 + 0.02*0.5 = 0.115
	got := tr.Integrate(30*simkit.Minute, 150*simkit.Minute)
	if math.Abs(float64(got)-0.115) > 1e-12 {
		t.Errorf("Integrate partial = %v, want 0.115", got)
	}
	if tr.Integrate(simkit.Hour, simkit.Hour) != 0 {
		t.Error("empty interval should integrate to 0")
	}
	if tr.Integrate(2*simkit.Hour, simkit.Hour) != 0 {
		t.Error("reversed interval should integrate to 0")
	}
}

func TestMeanPrice(t *testing.T) {
	tr := stepTrace(t)
	want := 0.15 / 4
	if got := tr.MeanPrice(0, 4*simkit.Hour); math.Abs(float64(got)-want) > 1e-12 {
		t.Errorf("MeanPrice = %v, want %v", got, want)
	}
	if tr.MeanPrice(simkit.Hour, simkit.Hour) != 0 {
		t.Error("degenerate MeanPrice should be 0")
	}
}

func TestFractionBelow(t *testing.T) {
	tr := stepTrace(t)
	// Bid 0.05: below during [0,1h) and [2h,4h) => 3h of 4h.
	if got := tr.FractionBelow(0.05, 0, 4*simkit.Hour); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("FractionBelow(0.05) = %v, want 0.75", got)
	}
	if got := tr.FractionBelow(1.0, 0, 4*simkit.Hour); got != 1 {
		t.Errorf("FractionBelow(high bid) = %v, want 1", got)
	}
	if got := tr.FractionBelow(0.001, 0, 4*simkit.Hour); got != 0 {
		t.Errorf("FractionBelow(tiny bid) = %v, want 0", got)
	}
}

func TestExcursionsAbove(t *testing.T) {
	tr := stepTrace(t)
	exc := tr.ExcursionsAbove(0.05)
	if len(exc) != 1 {
		t.Fatalf("got %d excursions, want 1", len(exc))
	}
	e := exc[0]
	if e.Start != simkit.Hour || e.End != 2*simkit.Hour || e.Peak != 0.10 {
		t.Errorf("excursion = %+v", e)
	}
	// Excursion running to the trace end.
	tr2 := mustTrace(t, []Point{{0, 0.01}, {simkit.Hour, 0.5}}, 2*simkit.Hour)
	exc2 := tr2.ExcursionsAbove(0.05)
	if len(exc2) != 1 || exc2[0].End != 2*simkit.Hour {
		t.Errorf("open excursion = %+v", exc2)
	}
	// Adjacent above-bid segments merge into one excursion.
	tr3 := mustTrace(t, []Point{{0, 0.01}, {simkit.Hour, 0.5}, {90 * simkit.Minute, 0.7}, {2 * simkit.Hour, 0.01}}, 3*simkit.Hour)
	exc3 := tr3.ExcursionsAbove(0.05)
	if len(exc3) != 1 || exc3[0].Peak != 0.7 {
		t.Errorf("merged excursion = %+v", exc3)
	}
}

func TestSampleGrid(t *testing.T) {
	tr := stepTrace(t)
	grid := tr.SampleGrid(simkit.Hour)
	want := []float64{0.01, 0.10, 0.02, 0.02}
	if len(grid) != len(want) {
		t.Fatalf("grid len = %d, want %d", len(grid), len(want))
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Errorf("grid[%d] = %v, want %v", i, grid[i], want[i])
		}
	}
	if tr.SampleGrid(0) != nil {
		t.Error("non-positive interval should return nil")
	}
}

// Property: for any bid, FractionBelow + fraction of excursion time == 1.
func TestFractionExcursionComplement(t *testing.T) {
	f := func(seed int64) bool {
		cfg := DefaultConfig(0.07, VolatilityHigh)
		r := newRand(seed)
		tr, err := Generate(cfg, 30*simkit.Day, r)
		if err != nil {
			return false
		}
		bid := cloud.USD(0.07)
		below := tr.FractionBelow(bid, 0, tr.End())
		var above float64
		for _, e := range tr.ExcursionsAbove(bid) {
			above += e.End.Sub(e.Start).Hours()
		}
		above /= tr.End().Hours()
		return math.Abs(below+above-1) < 1e-9
	}
	if err := quick.Check(f, quickCfg(20)); err != nil {
		t.Error(err)
	}
}

func TestIntegrateAdditiveProperty(t *testing.T) {
	f := func(seed int64, aRaw, bRaw, cRaw uint16) bool {
		cfg := DefaultConfig(0.07, VolatilityMedium)
		tr, err := Generate(cfg, 20*simkit.Day, newRand(seed))
		if err != nil {
			return false
		}
		ts := []simkit.Time{
			simkit.Time(aRaw) * simkit.Minute,
			simkit.Time(bRaw) * simkit.Minute,
			simkit.Time(cRaw) * simkit.Minute,
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		a, b, c := ts[0], ts[1], ts[2]
		whole := float64(tr.Integrate(a, c))
		parts := float64(tr.Integrate(a, b)) + float64(tr.Integrate(b, c))
		return math.Abs(whole-parts) < 1e-9
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Error(err)
	}
}
