package experiments

import (
	"strings"
	"testing"

	"repro/internal/migration"
	"repro/internal/simkit"
)

// Short policy runs keep the test suite fast; the cmd tools run the full
// six months.
const (
	shortHorizon = 45 * simkit.Day
	testVMs      = 16
)

func TestRunPolicyHeadlineShape(t *testing.T) {
	h, err := RunHeadline(testVMs, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~5x savings, ~5 nines availability. With a small fleet the
	// backup server amortizes worse, so accept 2.5x-8x here.
	if h.Savings < 2.5 || h.Savings > 8 {
		t.Errorf("savings = %.2fx, want paper-shaped ~5x", h.Savings)
	}
	if h.Availability < 0.999 {
		t.Errorf("availability = %.6f, want >= 99.9%%", h.Availability)
	}
	if h.VMsLost != 0 {
		t.Errorf("VMs lost = %d; SpotCheck must never lose state", h.VMsLost)
	}
	if h.Migrations == 0 {
		t.Error("no migrations in 45 days of spot hosting is implausible")
	}
}

func TestPolicyMatrixOrderings(t *testing.T) {
	matrix, err := PolicyMatrix(testVMs, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != 5 || len(matrix[0]) != 4 {
		t.Fatalf("matrix shape %dx%d, want 5x4", len(matrix), len(matrix[0]))
	}
	byName := map[string]map[migration.Mechanism]PolicyRunResult{}
	for _, row := range matrix {
		for _, res := range row {
			if byName[res.Policy] == nil {
				byName[res.Policy] = map[migration.Mechanism]PolicyRunResult{}
			}
			byName[res.Policy][res.Mechanism] = res
		}
	}

	// Figure 10: live migration (no backup server) is cheapest; all
	// SpotCheck variants stay far below the $0.07 on-demand price.
	for name, mechs := range byName {
		live := mechs[migration.XenLive]
		lazy := mechs[migration.SpotCheckLazy]
		if live.CostPerHour() > lazy.CostPerHour() {
			t.Errorf("%s: live (%.4f) should be cheapest (lazy %.4f)", name, live.CostPerHour(), lazy.CostPerHour())
		}
		for mech, res := range mechs {
			if res.CostPerHour() >= 0.055 {
				t.Errorf("%s/%v: cost %.4f/hr, want well below on-demand 0.07", name, mech, res.CostPerHour())
			}
		}
	}

	// Figure 11: for every policy, unavailability orders
	// live <= SpotCheck lazy < SpotCheck full < Yank full; and everything
	// stays below 0.3%.
	for name, mechs := range byName {
		live := mechs[migration.XenLive].UnavailabilityPct()
		lazy := mechs[migration.SpotCheckLazy].UnavailabilityPct()
		full := mechs[migration.SpotCheckFull].UnavailabilityPct()
		yank := mechs[migration.UnoptimizedFull].UnavailabilityPct()
		if !(lazy <= full && full <= yank) {
			t.Errorf("%s: unavailability ordering broken: lazy %.4f full %.4f yank %.4f", name, lazy, full, yank)
		}
		if live > lazy+1e-9 {
			t.Errorf("%s: live (%.4f%%) should not exceed lazy (%.4f%%)", name, live, lazy)
		}
		if yank > 0.5 {
			t.Errorf("%s: Yank unavailability %.3f%%, want < 0.5%%", name, yank)
		}
	}

	// Figure 11/12: 1P-M (calm medium pool) beats 4P-ED (which spans the
	// stormy pools) on availability; 4P-ED degrades more (Figure 12) under
	// the lazy mechanism.
	oneP := byName["1P-M"][migration.SpotCheckLazy]
	fourP := byName["4P-ED"][migration.SpotCheckLazy]
	if oneP.UnavailabilityPct() > fourP.UnavailabilityPct() {
		t.Errorf("1P-M unavail %.4f%% should beat 4P-ED %.4f%%", oneP.UnavailabilityPct(), fourP.UnavailabilityPct())
	}
	if oneP.DegradationPct() > fourP.DegradationPct() {
		t.Errorf("1P-M degradation %.4f%% should beat 4P-ED %.4f%%", oneP.DegradationPct(), fourP.DegradationPct())
	}
	// Figure 12: lazy restoration has the longest degraded windows.
	for name, mechs := range byName {
		lazy := mechs[migration.SpotCheckLazy].DegradationPct()
		yank := mechs[migration.UnoptimizedFull].DegradationPct()
		if lazy < yank {
			t.Errorf("%s: lazy degradation %.4f%% should exceed Yank's %.4f%%", name, lazy, yank)
		}
	}

	// Rendering.
	for _, s := range []string{
		Fig10Bars(matrix).String(),
		Fig11Bars(matrix).String(),
		Fig12Bars(matrix).String(),
	} {
		if !strings.Contains(s, "1P-M") || !strings.Contains(s, "Xen Live migration") {
			t.Errorf("bars missing labels:\n%s", s)
		}
	}
}

func TestTable3StormShape(t *testing.T) {
	rows, err := Table3(testVMs, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 pool counts", len(rows))
	}
	get := func(name string) Table3Result {
		for _, r := range rows {
			if r.Policy == name {
				return r
			}
		}
		t.Fatalf("row %s missing", name)
		return Table3Result{}
	}
	one, two, four := get("1-Pool"), get("2-Pool"), get("4-Pool")
	// Single pool: revocations hit everything at once — mass at N.
	if one.Probs[3] <= 0 {
		t.Errorf("1-pool P(N) = %v, want > 0 (pool-wide storms)", one.Probs[3])
	}
	if one.Probs[0] != 0 || one.Probs[1] != 0 {
		t.Errorf("1-pool small storms = %v, want none (all-or-nothing)", one.Probs[:2])
	}
	// Four pools: no full-fleet storms; mass at small sizes.
	if four.Probs[3] != 0 {
		t.Errorf("4-pool P(N) = %v, want 0 (uncorrelated pools)", four.Probs[3])
	}
	if four.Probs[0] <= 0 {
		t.Errorf("4-pool P(N/4) = %v, want > 0", four.Probs[0])
	}
	// Two pools: half-fleet storms exist, full-fleet storms don't (the
	// two markets never spike at the same instant).
	if two.Probs[1] <= 0 {
		t.Errorf("2-pool P(N/2) = %v, want > 0", two.Probs[1])
	}
	if two.Probs[3] != 0 {
		t.Errorf("2-pool P(N) = %v, want 0", two.Probs[3])
	}
	out := Table3Render(rows, testVMs).String()
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "4-Pool") {
		t.Errorf("render missing labels:\n%s", out)
	}
}

func TestRunPolicyDeterminism(t *testing.T) {
	run := func() PolicyRunResult {
		res, err := RunPolicy(PolicyRunConfig{
			Policy:    NamedPolicyFactories()[1],
			Mechanism: migration.SpotCheckLazy,
			VMs:       8,
			Horizon:   20 * simkit.Day,
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Report.TotalCost != b.Report.TotalCost ||
		a.Report.Availability != b.Report.Availability ||
		a.Report.Stats.Migrations != b.Report.Stats.Migrations {
		t.Errorf("same seed diverged: %+v vs %+v", a.Report, b.Report)
	}
}
