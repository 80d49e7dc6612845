package experiments

import (
	"strings"
	"testing"
)

func TestAblationFlushShape(t *testing.T) {
	rows, err := AblationFlush(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Yank's pause scales with the residue; SpotCheck's stays tiny.
		if r.RampedDownSec > 0.5 {
			t.Errorf("residue %v: ramped pause %.2f s, want sub-second", r.ResidueMB, r.RampedDownSec)
		}
		if r.YankDowntimeSec < r.ResidueMB/41 {
			t.Errorf("residue %v: Yank pause %.2f s too small", r.ResidueMB, r.YankDowntimeSec)
		}
		// The ramped drain degrades for roughly the time Yank pauses.
		if r.RampedDegrSec < r.YankDowntimeSec {
			t.Errorf("residue %v: drain %.2f s shorter than Yank's pause %.2f s", r.ResidueMB, r.RampedDegrSec, r.YankDowntimeSec)
		}
	}
	if !strings.Contains(AblationFlushTable(rows).String(), "Yank pause") {
		t.Error("table rendering broken")
	}
}

func TestAblationSlicingSaves(t *testing.T) {
	res, err := NewSession(0).ablationSlicing(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.SlicedCostPerHour >= res.DirectCostPerHour {
		t.Errorf("slicing ($%.4f) should beat direct ($%.4f) when large is cheaper per slot",
			res.SlicedCostPerHour, res.DirectCostPerHour)
	}
	if res.SavingsPct < 5 {
		t.Errorf("savings = %.1f%%, want noticeable", res.SavingsPct)
	}
}

func TestAblationBiddingTradeoff(t *testing.T) {
	rows, err := NewSession(0).ablationBidding(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	od, twoX := rows[0], rows[2]
	// Higher bids + proactive migration mean fewer forced revocations.
	if twoX.Revocations >= od.Revocations {
		t.Errorf("2x bid revocations (%d) should undercut od bid (%d)", twoX.Revocations, od.Revocations)
	}
	if twoX.Proactive == 0 {
		t.Error("2x bid should trigger proactive migrations")
	}
	if od.Proactive != 0 {
		t.Error("od bid must not migrate proactively")
	}
	if twoX.UnavailabilityPct > od.UnavailabilityPct {
		t.Errorf("2x bid unavailability (%.4f%%) should not exceed od bid (%.4f%%)",
			twoX.UnavailabilityPct, od.UnavailabilityPct)
	}
	if !strings.Contains(AblationBiddingTable(rows).String(), "bid=2x-od") {
		t.Error("table rendering broken")
	}
}

func TestAblationDestinationTradeoff(t *testing.T) {
	rows, err := NewSession(0).ablationDestination(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]DestinationAblationRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	lazy, spare, staging := byName["lazy-on-demand"], byName["hot-spare"], byName["staging"]
	// Hot spares buy availability with standing cost.
	if spare.UnavailabilityPct >= lazy.UnavailabilityPct {
		t.Errorf("hot spares (%.4f%%) should beat lazy acquisition (%.4f%%)",
			spare.UnavailabilityPct, lazy.UnavailabilityPct)
	}
	if spare.SpareCost <= 0 {
		t.Error("hot spares must cost something")
	}
	if lazy.SpareCost != 0 || staging.SpareCost != 0 {
		t.Error("only the hot-spare policy rents spares")
	}
	// Staging doubles (some) migrations without standing cost.
	if staging.Migrations <= lazy.Migrations {
		t.Errorf("staging migrations (%d) should exceed lazy (%d)", staging.Migrations, lazy.Migrations)
	}
	if !strings.Contains(AblationDestinationTable(rows).String(), "hot-spare") {
		t.Error("table rendering broken")
	}
}

func TestAblationStatelessSavesBackup(t *testing.T) {
	res, err := NewSession(0).ablationStateless(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatelessCostPerHour >= res.StatefulCostPerHour {
		t.Errorf("stateless ($%.4f) should undercut stateful ($%.4f)",
			res.StatelessCostPerHour, res.StatefulCostPerHour)
	}
	if res.BackupServersSaved < 1 {
		t.Errorf("backup servers saved = %d, want >= 1", res.BackupServersSaved)
	}
}

func TestAblationPredictiveNeverLosesState(t *testing.T) {
	res, err := NewSession(0).ablationPredictive(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The predictor may or may not catch synthetic cliff-edge spikes, but
	// with a backup-based mechanism it must never make things much worse.
	if res.OnUnavailPct > res.OffUnavailPct*2+0.01 {
		t.Errorf("predictor doubled unavailability: %.4f%% -> %.4f%%", res.OffUnavailPct, res.OnUnavailPct)
	}
	if res.OnPredictive == 0 {
		t.Error("predictor never fired over 45 stormy days")
	}
}

func TestAblationZoneSpreadShrinksStorms(t *testing.T) {
	res, err := NewSession(0).ablationZoneSpread(9, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.OneZoneMaxStorm != 9 {
		t.Errorf("single-zone max storm = %d, want the whole fleet (9)", res.OneZoneMaxStorm)
	}
	if res.ThreeZoneMaxStorm >= res.OneZoneMaxStorm {
		t.Errorf("zone spreading should shrink storms: %d -> %d", res.OneZoneMaxStorm, res.ThreeZoneMaxStorm)
	}
	if res.ThreeZoneMaxStorm > 3 {
		t.Errorf("3-zone max storm = %d, want <= fleet/3", res.ThreeZoneMaxStorm)
	}
}

func TestRenderAblations(t *testing.T) {
	out, err := RenderAblations(6, shortHorizon/3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ramped vs fixed", "slicing", "bidding policy", "destination policy", "stateless", "predictive", "zone spread"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// The headline conclusion must be robust to the price-process model: every
// model yields multi-x savings at >=99.9% availability.
func TestAblationTraceModelRobust(t *testing.T) {
	rows, err := NewSession(0).ablationTraceModel(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Savings < 1.5 {
			t.Errorf("%s: savings %.1fx collapsed", r.Model, r.Savings)
		}
		if r.Availability < 0.999 {
			t.Errorf("%s: availability %.5f collapsed", r.Model, r.Availability)
		}
	}
	if !strings.Contains(AblationTraceModelTable(rows).String(), "markov") {
		t.Error("table rendering broken")
	}
}
