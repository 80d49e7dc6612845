package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

const testHorizon = 60 * simkit.Day

func TestFig1Shape(t *testing.T) {
	s, err := Fig1(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.X) != len(s.Y) || len(s.X) < 100 {
		t.Fatalf("series sizes: %d x, %d y", len(s.X), len(s.Y))
	}
	// Figure 1's essence: the price mostly sits far below on-demand
	// ($0.06) but spikes well above it (dollars, not cents).
	var below, above int
	var peak float64
	for _, y := range s.Y {
		if y < 0.06 {
			below++
		}
		if y > 0.06 {
			above++
		}
		if y > peak {
			peak = y
		}
	}
	if below < len(s.Y)/2 {
		t.Errorf("price above on-demand most of the time (%d/%d below)", below, len(s.Y))
	}
	if peak < 0.12 {
		t.Errorf("peak = $%.3f, want a spike well above the $0.06 on-demand price", peak)
	}
	if !strings.Contains(s.String(), "Fig 1") {
		t.Error("series name missing")
	}
}

func TestFig6aShape(t *testing.T) {
	rows, err := Fig6a(testHorizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 m3 types", len(rows))
	}
	for _, row := range rows {
		// Monotone availability curve with a knee at or below the
		// on-demand price (ratio 1.0).
		for i := 1; i < len(row.Avail); i++ {
			if row.Avail[i] < row.Avail[i-1] {
				t.Fatalf("%s: availability curve not monotone", row.Type)
			}
		}
		atOD := availAt(row, 1.0)
		at2OD := availAt(row, 2.0)
		if atOD < 0.9 {
			t.Errorf("%s: availability at on-demand bid = %.3f, want > 0.9", row.Type, atOD)
		}
		if at2OD-atOD > 0.05 {
			t.Errorf("%s: doubling the bid bought %.3f availability; knee should be below OD", row.Type, at2OD-atOD)
		}
		// Deep discounts forfeit availability: the curve is not flat.
		if availAt(row, 0.05) > 0.7 {
			t.Errorf("%s: availability at 5%% bid = %.3f, want much lower", row.Type, availAt(row, 0.05))
		}
	}
}

func availAt(row Fig6aRow, ratio float64) float64 {
	for i, r := range row.Ratios {
		if r >= ratio-1e-9 {
			return row.Avail[i]
		}
	}
	return row.Avail[len(row.Avail)-1]
}

func TestFig6bLargeJumps(t *testing.T) {
	inc, dec, err := Fig6b(testHorizon, 11)
	if err != nil {
		t.Fatal(err)
	}
	if inc.At(math.Inf(1)) == 0 || dec.At(math.Inf(1)) == 0 { // an empty CDF is 0 everywhere
		t.Fatal("no jumps recorded")
	}
	// Figure 6b: jumps span orders of magnitude; a noticeable fraction of
	// increases exceed 100%.
	if p := 1 - inc.At(100); p < 0.05 {
		t.Errorf("fraction of increases > 100%% = %.3f, want >= 0.05", p)
	}
	if inc.Max() < 500 {
		t.Errorf("max increase = %.0f%%, want spikes in the 10^3+ range", inc.Max())
	}
	tbl := JumpCDFTable(inc, dec)
	if !strings.Contains(tbl.String(), "Fig 6b") {
		t.Error("table title missing")
	}
}

func TestFig6cdUncorrelated(t *testing.T) {
	for name, gen := range map[string]func() ([][]float64, error){
		"zones": func() ([][]float64, error) { return Fig6c(6, testHorizon, 13) },
		"types": func() ([][]float64, error) { return Fig6d(6, testHorizon, 13) },
	} {
		m, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 6 {
			t.Fatalf("%s: matrix size %d", name, len(m))
		}
		mean, _ := spotmarket.OffDiagonalStats(m)
		if mean > 0.15 {
			t.Errorf("%s: mean |off-diagonal| = %.3f, want ~0 (independent markets)", name, mean)
		}
		for i := range m {
			if m[i][i] != 1 {
				t.Errorf("%s: diagonal[%d] = %v", name, i, m[i][i])
			}
		}
		out := RenderCorrelation("corr", m)
		if !strings.Contains(out, "off-diagonal") {
			t.Error("render missing summary")
		}
	}
}

func TestEvalTracesCoverFourMarkets(t *testing.T) {
	set, err := EvalTraces(testHorizon, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("markets = %d, want 4", len(set))
	}
	// The medium market must be the calmest (its 1P-M policy wins).
	spikes := map[string]int{}
	for _, key := range set.Keys() {
		var od float64
		switch key.Type {
		case "m3.medium":
			od = 0.07
		case "m3.large":
			od = 0.14
		case "m3.xlarge":
			od = 0.28
		case "m3.2xlarge":
			od = 0.56
		}
		spikes[key.Type] = len(set[key].ExcursionsAbove(usd(od)))
	}
	if spikes["m3.medium"] >= spikes["m3.2xlarge"] {
		t.Errorf("medium (%d spikes) should be calmer than 2xlarge (%d)", spikes["m3.medium"], spikes["m3.2xlarge"])
	}
}
