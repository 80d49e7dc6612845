package spotmarket

import (
	"math"
	"testing"

	"repro/internal/simkit"
)

func TestAvailabilityCurveMonotone(t *testing.T) {
	tr := genTrace(t, VolatilityMedium, 3)
	ratios := []float64{0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0}
	curve := AvailabilityCurve(tr, 0.07, ratios)
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatalf("availability curve not monotone at %v: %v", ratios[i], curve)
		}
	}
	if curve[len(curve)-1] < 0.98 {
		t.Errorf("availability at 2x on-demand = %v, want near 1", curve[len(curve)-1])
	}
}

func TestHourlyJumps(t *testing.T) {
	tr := mustTrace(t, []Point{
		{0, 0.10},
		{simkit.Hour, 0.20},       // +100%
		{2 * simkit.Hour, 0.05},   // -75%
		{3*simkit.Hour + 1, 0.05}, // same sampled price at 3h (0.05), no jump at 4h
	}, 5*simkit.Hour)
	inc, dec := HourlyJumps(tr)
	if len(inc) != 1 || math.Abs(inc[0]-100) > 1e-9 {
		t.Errorf("increases = %v, want [100]", inc)
	}
	if len(dec) != 1 || math.Abs(dec[0]-75) > 1e-9 {
		t.Errorf("decreases = %v, want [75]", dec)
	}
}

// Figure 6b: hourly jumps include very large percentage changes.
func TestJumpsAreLarge(t *testing.T) {
	tr := genTrace(t, VolatilityHigh, 9)
	inc, dec := HourlyJumps(tr)
	if len(inc) == 0 || len(dec) == 0 {
		t.Fatal("expected both increases and decreases over 6 months")
	}
	var maxInc float64
	for _, v := range inc {
		if v > maxInc {
			maxInc = v
		}
	}
	if maxInc < 500 {
		t.Errorf("max hourly increase = %.0f%%, paper shows jumps of 10^2..10^6 %%", maxInc)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10}
	if r := Pearson(a, b); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", r)
	}
	c := []float64{10, 8, 6, 4, 2}
	if r := Pearson(a, c); math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", r)
	}
	if Pearson(a, []float64{1, 1, 1, 1, 1}) != 0 {
		t.Error("constant series should give 0")
	}
	if Pearson(a, []float64{1}) != 0 {
		t.Error("mismatched lengths should give 0")
	}
	if Pearson(nil, nil) != 0 {
		t.Error("empty series should give 0")
	}
}

func TestOffDiagonalStats(t *testing.T) {
	m := [][]float64{
		{1, 0.2, -0.4},
		{0.2, 1, 0.1},
		{-0.4, 0.1, 1},
	}
	mean, max := OffDiagonalStats(m)
	if math.Abs(max-0.4) > 1e-12 {
		t.Errorf("max = %v, want 0.4", max)
	}
	wantMean := (0.2 + 0.4 + 0.2 + 0.1 + 0.4 + 0.1) / 6
	if math.Abs(mean-wantMean) > 1e-12 {
		t.Errorf("mean = %v, want %v", mean, wantMean)
	}
	if m0, x0 := OffDiagonalStats([][]float64{{1}}); m0 != 0 || x0 != 0 {
		t.Error("1x1 matrix should give zeros")
	}
}
