package experiments

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/obs"
)

// runAblation runs the named ablation's arms alone, at vms VMs over the
// short horizon, and returns each arm's result by arm ID and the
// ablation's rendered section.
func runAblation(t *testing.T, name string, vms int) (map[string]PolicyRunResult, string) {
	t.Helper()
	s := NewSession(0)
	abls, err := s.ablations(vms, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range abls {
		if a.name != name {
			continue
		}
		res, err := s.Sweep(a.arms)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]PolicyRunResult{}
		for i, r := range res {
			if _, dup := byID[a.arms[i].ID]; dup {
				t.Fatalf("%s: two arms named %q", name, a.arms[i].ID)
			}
			byID[a.arms[i].ID] = r
		}
		return byID, a.render(a.arms, res)
	}
	t.Fatalf("no ablation named %q", name)
	return nil, ""
}

func TestAblationFlushShape(t *testing.T) {
	for _, res := range flushResidues {
		yank, ramped, err := flushArms(res)
		if err != nil {
			t.Fatal(err)
		}
		yankSec, rampedSec, drainSec := yank.Downtime.Seconds(), ramped.Downtime.Seconds(), ramped.DegradedTime.Seconds()
		// Yank's pause scales with the residue; SpotCheck's stays tiny.
		if rampedSec > 0.5 {
			t.Errorf("residue %v: ramped pause %.2f s, want sub-second", res, rampedSec)
		}
		if yankSec < res/41 {
			t.Errorf("residue %v: Yank pause %.2f s too small", res, yankSec)
		}
		// The ramped drain degrades for roughly the time Yank pauses.
		if drainSec < yankSec {
			t.Errorf("residue %v: drain %.2f s shorter than Yank's pause %.2f s", res, drainSec, yankSec)
		}
	}
	table, err := flushTable()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "Yank pause") {
		t.Error("table rendering broken")
	}
}

func TestAblationSlicingSaves(t *testing.T) {
	arms, _ := runAblation(t, "slicing", 8)
	direct, sliced := arms["direct"].CostPerHour(), arms["greedy-sliced"].CostPerHour()
	if sliced >= direct {
		t.Errorf("slicing ($%.4f) should beat direct ($%.4f) when large is cheaper per slot", sliced, direct)
	}
	if saved := 100 * (1 - sliced/direct); saved < 5 {
		t.Errorf("savings = %.1f%%, want noticeable", saved)
	}
}

func TestAblationBiddingTradeoff(t *testing.T) {
	arms, out := runAblation(t, "bidding", 8)
	if len(arms) != 3 {
		t.Fatalf("arms = %d", len(arms))
	}
	od, twoX := arms["bid=od"], arms["bid=2x-od"]
	// Higher bids + proactive migration mean fewer forced revocations.
	revocations := func(r PolicyRunResult) float64 { return r.Metric("spotcheck_revocation_warnings_total") }
	proactive := func(r PolicyRunResult) float64 {
		return r.MetricValue("spotcheck_migrations_started_total", obs.L("reason", "proactive"))
	}
	if revocations(twoX) >= revocations(od) {
		t.Errorf("2x bid revocations (%v) should undercut od bid (%v)", revocations(twoX), revocations(od))
	}
	if proactive(twoX) == 0 {
		t.Error("2x bid should trigger proactive migrations")
	}
	if proactive(od) != 0 {
		t.Error("od bid must not migrate proactively")
	}
	if twoX.UnavailabilityPct() > od.UnavailabilityPct() {
		t.Errorf("2x bid unavailability (%.4f%%) should not exceed od bid (%.4f%%)",
			twoX.UnavailabilityPct(), od.UnavailabilityPct())
	}
	if !strings.Contains(out, "bid=2x-od") {
		t.Error("table rendering broken")
	}
}

func TestAblationDestinationTradeoff(t *testing.T) {
	arms, out := runAblation(t, "destination", 8)
	lazy, spare, staging := arms["lazy-on-demand"], arms["hot-spare"], arms["staging"]
	// Hot spares buy availability with standing cost.
	if spare.UnavailabilityPct() >= lazy.UnavailabilityPct() {
		t.Errorf("hot spares (%.4f%%) should beat lazy acquisition (%.4f%%)",
			spare.UnavailabilityPct(), lazy.UnavailabilityPct())
	}
	if spare.Report.SpareCost <= 0 {
		t.Error("hot spares must cost something")
	}
	if lazy.Report.SpareCost != 0 || staging.Report.SpareCost != 0 {
		t.Error("only the hot-spare policy rents spares")
	}
	// Staging doubles (some) migrations without standing cost.
	if staging.Migrations() <= lazy.Migrations() {
		t.Errorf("staging migrations (%d) should exceed lazy (%d)", staging.Migrations(), lazy.Migrations())
	}
	if !strings.Contains(out, "hot-spare") {
		t.Error("table rendering broken")
	}
}

func TestAblationStatelessSavesBackup(t *testing.T) {
	arms, _ := runAblation(t, "stateless", 8)
	stateful, stateless := arms["stateful"], arms["stateless"]
	if stateless.CostPerHour() >= stateful.CostPerHour() {
		t.Errorf("stateless ($%.4f) should undercut stateful ($%.4f)",
			stateless.CostPerHour(), stateful.CostPerHour())
	}
	if saved := stateful.Metric("spotcheck_backup_servers") - stateless.Metric("spotcheck_backup_servers"); saved < 1 {
		t.Errorf("backup servers saved = %v, want >= 1", saved)
	}
}

func TestAblationPredictiveNeverLosesState(t *testing.T) {
	arms, _ := runAblation(t, "predictive", 8)
	off, on := arms["predictive-off"], arms["predictive-on"]
	// The predictor may or may not catch synthetic cliff-edge spikes, but
	// with a backup-based mechanism it must never make things much worse.
	if on.UnavailabilityPct() > off.UnavailabilityPct()*2+0.01 {
		t.Errorf("predictor doubled unavailability: %.4f%% -> %.4f%%", off.UnavailabilityPct(), on.UnavailabilityPct())
	}
	if on.Metric("spotcheck_predictive_migrations_total") == 0 {
		t.Error("predictor never fired over 45 stormy days")
	}
}

func TestAblationZoneSpreadShrinksStorms(t *testing.T) {
	arms, _ := runAblation(t, "zone spread", 9)
	one, three := arms["1-zone"].Report.MaxStorm, arms["3-zone"].Report.MaxStorm
	if one != 9 {
		t.Errorf("single-zone max storm = %d, want the whole fleet (9)", one)
	}
	if three >= one {
		t.Errorf("zone spreading should shrink storms: %d -> %d", one, three)
	}
	if three > 3 {
		t.Errorf("3-zone max storm = %d, want <= fleet/3", three)
	}
}

func TestAblationBillingEffects(t *testing.T) {
	arms, _ := runAblation(t, "billing", 8)
	continuous, hourly := arms["billing-continuous"].CostPerHour(), arms["billing-hourly"].CostPerHour()
	if continuous <= 0 || hourly <= 0 {
		t.Fatalf("degenerate costs: $%.4f continuous, $%.4f hourly", continuous, hourly)
	}
	// Hourly billing should land within a sane band of continuous: started
	// hours round up (more), reclaimed partial hours are free (less).
	if delta := 100 * (hourly/continuous - 1); delta < -30 || delta > 30 {
		t.Errorf("billing delta = %+.1f%%, implausibly large", delta)
	}
}

func TestRenderAblations(t *testing.T) {
	out, err := RenderAblations(6, shortHorizon/3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ramped vs fixed", "slicing", "bidding policy", "destination policy", "stateless", "predictive", "zone spread", "billing", "price-process"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// The headline conclusion must be robust to the price-process model: every
// model yields multi-x savings at >=99.9% availability.
func TestAblationTraceModelRobust(t *testing.T) {
	arms, out := runAblation(t, "trace model", 8)
	if len(arms) != 3 {
		t.Fatalf("arms = %d", len(arms))
	}
	od := float64(cloud.OnDemandPrice(cloud.M3Medium))
	for model, r := range arms {
		if savings := od / r.CostPerHour(); savings < 1.5 {
			t.Errorf("%s: savings %.1fx collapsed", model, savings)
		}
		if r.Report.Availability < 0.999 {
			t.Errorf("%s: availability %.5f collapsed", model, r.Report.Availability)
		}
	}
	if !strings.Contains(out, "markov") {
		t.Error("table rendering broken")
	}
}
