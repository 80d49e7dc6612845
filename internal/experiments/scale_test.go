package experiments

import (
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
	if got := len(tableRows(t, table)); got != 2 {
		t.Errorf("capacity table has %d rows, want 2", got)
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
