package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cloud"
)

func usd(v float64) cloud.USD { return cloud.USD(v) }

// tableRows reads a rendered table back into its body cells: the dash runs
// of the separator line give each column's offset and width.
func tableRows(t *testing.T, tbl *analysis.Table) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(tbl.String(), "\n"), "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "-") {
			continue
		}
		var cols [][2]int
		for at := 0; at < len(line); {
			w := len(line[at:]) - len(strings.TrimLeft(line[at:], "-"))
			cols = append(cols, [2]int{at, at + w})
			at += w + 2
		}
		var rows [][]string
		for _, body := range lines[i+1:] {
			row := make([]string, len(cols))
			for c, col := range cols {
				row[c] = strings.TrimSpace(body[col[0]:min(col[1], len(body))])
			}
			rows = append(rows, row)
		}
		return rows
	}
	t.Fatalf("no separator line in table:\n%s", tbl)
	return nil
}

func cell(t *testing.T, rows [][]string, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, rows[row][col], err)
	}
	return v
}

// Table 1's envelope: the simulated operations land inside the published
// min/max bounds and near the published medians.
func TestTable1MatchesPaperEnvelope(t *testing.T) {
	tbl, err := Table1(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, tbl)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 operations", len(rows))
	}
	// name, median target, (min, max) from Table 1.
	want := []struct {
		name     string
		median   float64
		lo, hi   float64
		tolerant float64 // relative tolerance on the median
	}{
		{"Start spot instance", 227, 100, 409, 0.25},
		{"Start on-demand instance", 61, 47, 86, 0.15},
		{"Terminate instance", 135, 133, 147, 0.05},
		{"Unmount and detach EBS", 10.3, 9.6, 11.3, 0.05},
		{"Attach and mount EBS", 5, 4.4, 9.3, 0.25},
		{"Attach Network interface", 3, 1, 14, 0.8},
		{"Detach Network interface", 2, 1, 12, 0.8},
	}
	for i, w := range want {
		if rows[i][0] != w.name {
			t.Fatalf("row %d = %q, want %q", i, rows[i][0], w.name)
		}
		med := cell(t, rows, i, 1)
		if med < w.median*(1-w.tolerant) || med > w.median*(1+w.tolerant) {
			t.Errorf("%s: median %.1f, want ~%.1f", w.name, med, w.median)
		}
		max := cell(t, rows, i, 3)
		min := cell(t, rows, i, 4)
		if min < w.lo-1e-9 || max > w.hi+1e-9 {
			t.Errorf("%s: [%.1f, %.1f] outside published envelope [%.1f, %.1f]", w.name, min, max, w.lo, w.hi)
		}
	}
}

// Figure 7: flat until ~35 VMs per backup, then SPECjbb throughput drops
// and TPC-W response time rises by roughly 30%.
func TestFig7Knee(t *testing.T) {
	rows := Fig7()
	byN := map[int]Fig7Row{}
	for _, r := range rows {
		byN[r.VMsPerBackup] = r
	}
	// Checkpointing alone costs TPC-W ~15%.
	r0, r1 := byN[0], byN[1]
	gain := r1.TPCWMs/r0.TPCWMs - 1
	if gain < 0.10 || gain > 0.20 {
		t.Errorf("checkpointing overhead = %.0f%%, want ~15%%", gain*100)
	}
	if r1.SpecJBBBops != r0.SpecJBBBops {
		t.Error("SPECjbb should see no degradation from checkpointing alone")
	}
	// Flat to 30 VMs.
	if byN[30].TPCWMs != byN[1].TPCWMs {
		t.Errorf("TPC-W degraded below the knee: %v vs %v", byN[30].TPCWMs, byN[1].TPCWMs)
	}
	// Degraded at 50.
	tpcwDrop := byN[50].TPCWMs/byN[35].TPCWMs - 1
	jbbDrop := 1 - byN[50].SpecJBBBops/byN[35].SpecJBBBops
	if tpcwDrop < 0.15 || tpcwDrop > 0.6 {
		t.Errorf("TPC-W response growth at 50 VMs = %.0f%%, want ~30%%", tpcwDrop*100)
	}
	if jbbDrop < 0.15 || jbbDrop > 0.6 {
		t.Errorf("SPECjbb drop at 50 VMs = %.0f%%, want ~30%%", jbbDrop*100)
	}
	if !strings.Contains(Fig7Table(rows).String(), "Fig 7") {
		t.Error("table title missing")
	}
}

// Figure 8's shape assertions (see DESIGN.md §4).
func TestFig8Shape(t *testing.T) {
	rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]Fig8Row{}
	for _, r := range rows {
		byN[r.Concurrent] = r
	}
	one, ten := byN[1], byN[10]
	// Single restore: ~100 s unoptimized, ~50 s optimized.
	if one.UnoptFullDowntimeSec < 80 || one.UnoptFullDowntimeSec > 120 {
		t.Errorf("unopt full @1 = %.0f s, want ~100", one.UnoptFullDowntimeSec)
	}
	if one.SCFullDowntimeSec > one.UnoptFullDowntimeSec*0.6 {
		t.Errorf("SpotCheck full @1 = %.0f s, want ~half of unoptimized", one.SCFullDowntimeSec)
	}
	// At 10 concurrent: unoptimized lazy is by far the worst (random
	// reads), and SpotCheck's fadvise optimization removes most of it.
	if ten.UnoptLazyDegradedSec < ten.UnoptFullDowntimeSec*1.5 {
		t.Errorf("unopt lazy @10 = %.0f s should far exceed full restore %.0f s", ten.UnoptLazyDegradedSec, ten.UnoptFullDowntimeSec)
	}
	if ten.SCLazyDegradedSec > ten.UnoptLazyDegradedSec/2 {
		t.Errorf("SpotCheck lazy @10 = %.0f s, want less than half of unoptimized %.0f s", ten.SCLazyDegradedSec, ten.UnoptLazyDegradedSec)
	}
	// Windows grow with concurrency.
	if ten.UnoptFullDowntimeSec <= one.UnoptFullDowntimeSec {
		t.Error("full-restore downtime must grow with concurrency")
	}
	if !strings.Contains(Fig8Table(rows).String(), "Fig 8") {
		t.Error("table title missing")
	}
}

// Figure 9: 29 ms normally, ~60 ms while restoring, flat in concurrency.
func TestFig9Shape(t *testing.T) {
	rows := Fig9()
	if rows[0].ConcurrentRestores != 0 || rows[0].TPCWMs != 29 {
		t.Errorf("baseline row = %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.TPCWMs != 60 {
			t.Errorf("restoring response @%d = %v, want 60 (per-VM throttling keeps it flat)", r.ConcurrentRestores, r.TPCWMs)
		}
	}
	if !strings.Contains(Fig9Table(rows).String(), "Fig 9") {
		t.Error("table title missing")
	}
}
