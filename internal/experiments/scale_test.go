package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
)

// TestRunScaleSmoke runs one small rung end to end on one shard and on
// two, and checks every capacity metric is populated and sane: RunScale
// owns the measurement (clock, heap samples, keeping the shards alive), so
// both shapes must report wall time and live heap.
func TestRunScaleSmoke(t *testing.T) {
	for _, shards := range []int{0, 2} {
		res, err := RunScale(ScaleConfig{
			VMs:     200,
			Horizon: 4 * simkit.Day,
			Seed:    1,
			Shards:  shards,
			Clock:   func() int64 { return time.Now().UnixNano() },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.VMs != 200 {
			t.Errorf("shards=%d: VMs = %d, want 200", shards, res.VMs)
		}
		if want := max(shards, 1); res.Shards != want {
			t.Errorf("shards=%d: result reports %d shards, want %d", shards, res.Shards, want)
		}
		if want := 200 * (4 * simkit.Day).Hours(); res.VMHours != want {
			t.Errorf("shards=%d: VMHours = %v, want %v", shards, res.VMHours, want)
		}
		if res.WallNs <= 0 || res.NsPerVMHour <= 0 {
			t.Errorf("shards=%d: wall-clock metrics not populated: WallNs=%d NsPerVMHour=%v", shards, res.WallNs, res.NsPerVMHour)
		}
		if res.LiveHeapBytes == 0 || res.BytesPerVM <= 0 {
			t.Errorf("shards=%d: heap metrics not populated: LiveHeapBytes=%d BytesPerVM=%v", shards, res.LiveHeapBytes, res.BytesPerVM)
		}
		if res.Availability <= 0 || res.Availability > 1 {
			t.Errorf("shards=%d: availability out of range: %v", shards, res.Availability)
		}
		if res.CostPerVMHour <= 0 {
			t.Errorf("shards=%d: cost per VM-hour = %v, want > 0", shards, res.CostPerVMHour)
		}
	}
}

// TestRunScaleRequiresClock pins the deterministic-package contract: the
// wall clock must be injected, never read.
func TestRunScaleRequiresClock(t *testing.T) {
	if _, err := RunScale(ScaleConfig{VMs: 10, Horizon: simkit.Day}); err == nil {
		t.Error("RunScale accepted a nil Clock")
	}
}

// TestScaleLadderSharesTraces climbs a two-rung mini ladder and checks the
// rendered capacity table carries one row per rung.
func TestScaleLadderSharesTraces(t *testing.T) {
	rows, err := ScaleLadder([]int{50, 100}, 2*simkit.Day, 7,
		func() int64 { return time.Now().UnixNano() }, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].VMs != 50 || rows[1].VMs != 100 {
		t.Fatalf("ladder rungs = %+v", rows)
	}
	table := ScaleTable(rows)
	if got := len(table.Rows()); got != 2 {
		t.Errorf("capacity table has %d rows, want 2", got)
	}
}

// TestFleetModeReportEquivalence is the old-vs-new state-equivalence pin
// alongside TestPolicyMatrixGoldenDigest: the same paper-scale scenario run
// with every fleet knob on (slab recycling, instance compaction, prefix
// billing, rental scrubbing) must produce the same aggregate accounting as
// the retain-everything default. Time-derived fields are integer-duration
// sums, so they must match exactly; dollar totals re-associate float sums
// (prefix integrals, scrub folds), so they get a 1e-9 relative tolerance.
func TestFleetModeReportEquivalence(t *testing.T) {
	cfg := PolicyRunConfig{
		// The stormiest policy spreads the fleet across all four markets,
		// so revocation churn exercises slot recycling on both sides.
		Policy:    NamedPolicyFactories()[2], // 4P-ED
		Mechanism: migration.SpotCheckLazy,
		VMs:       24,
		Horizon:   45 * simkit.Day,
		Seed:      42,
	}
	base, err := RunPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FleetMode = true
	fleet, err := RunPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	br, fr := base.Report, fleet.Report
	exact := []struct {
		name       string
		base, flee any
	}{
		{"VMHours", br.VMHours, fr.VMHours},
		{"Availability", br.Availability, fr.Availability},
		{"DegradedFraction", br.DegradedFraction, fr.DegradedFraction},
		{"TotalDown", br.TotalDown, fr.TotalDown},
		{"TotalDegraded", br.TotalDegraded, fr.TotalDegraded},
		{"MaxDownSpell", br.MaxDownSpell, fr.MaxDownSpell},
		{"TCPBreaks", br.TCPBreaks, fr.TCPBreaks},
		{"Stats", br.Stats, fr.Stats},
		{"StormSizes", br.StormSizes, fr.StormSizes},
		{"MaxStorm", br.MaxStorm, fr.MaxStorm},
		{"BackupServers", br.BackupServers, fr.BackupServers},
		{"BackupVMsMax", br.BackupVMsMax, fr.BackupVMsMax},
	}
	for _, f := range exact {
		if !reflect.DeepEqual(f.base, f.flee) {
			t.Errorf("Report.%s: default %v, fleet mode %v", f.name, f.base, f.flee)
		}
	}
	approx := []struct {
		name       string
		base, flee float64
	}{
		{"HostCost", float64(br.HostCost), float64(fr.HostCost)},
		{"BackupCost", float64(br.BackupCost), float64(fr.BackupCost)},
		{"SpareCost", float64(br.SpareCost), float64(fr.SpareCost)},
		{"TotalCost", float64(br.TotalCost), float64(fr.TotalCost)},
		{"CostPerVMHour", float64(br.CostPerVMHour), float64(fr.CostPerVMHour)},
	}
	for _, f := range approx {
		if !closeRel(f.base, f.flee, 1e-9) {
			t.Errorf("Report.%s: default %.15g, fleet mode %.15g (beyond 1e-9 relative)", f.name, f.base, f.flee)
		}
	}
}

// TestFleetAccountingSurvivesInt64Overflow pins the durAcc fix: a fleet's
// total service time outgrows int64 nanoseconds at ~292 VM-years, so 1000
// VMs over six months (~500 VM-years) used to wrap VMHours negative and
// zero out CostPerVMHour; 10k and 100k rungs wrapped several times and
// reported garbage positive costs. The widened accumulators must report
// the true totals.
func TestFleetAccountingSurvivesInt64Overflow(t *testing.T) {
	res, err := RunPolicy(PolicyRunConfig{
		Policy:    PolicyFactory{Name: "1P-M", New: core.Policy1PM},
		Mechanism: migration.SpotCheckLazy,
		VMs:       1000,
		Horizon:   SixMonths,
		Seed:      0,
		FleetMode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	wantHours := 1000 * SixMonths.Hours()
	// Provisioning latency shaves a few hours off the ideal total.
	if rep.VMHours < 0.99*wantHours || rep.VMHours > wantHours {
		t.Errorf("VMHours = %v, want ~%v", rep.VMHours, wantHours)
	}
	if cost := float64(rep.CostPerVMHour); cost <= 0 || cost >= 0.07 {
		t.Errorf("CostPerVMHour = %v, want in (0, 0.07) — spot savings vs on-demand", cost)
	}
	if rep.Availability <= 0.99 || rep.Availability > 1 {
		t.Errorf("Availability = %v, want (0.99, 1]", rep.Availability)
	}
}

// closeRel reports whether a and b agree to relative tolerance tol.
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*scale
}
