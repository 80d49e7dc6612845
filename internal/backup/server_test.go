package backup

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestRegisterUnregister(t *testing.T) {
	s := NewServer("b1", Config{MaxVMs: 2})
	if err := s.Register("vm-1", 2.8); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vm-1", 2.8); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := s.Register("", 2.8); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.Register("vm-2", -1); err == nil {
		t.Error("negative dirty rate accepted")
	}
	if err := s.Register("vm-2", 2.8); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vm-3", 2.8); err == nil {
		t.Error("registration beyond MaxVMs accepted")
	}
	if s.VMs() != 2 || s.Free() != 0 {
		t.Errorf("VMs=%d Free=%d", s.VMs(), s.Free())
	}
	if !s.Has("vm-1") || s.Has("vm-9") {
		t.Error("Has wrong")
	}
	ids := s.VMIDs()
	if len(ids) != 2 || ids[0] != "vm-1" || ids[1] != "vm-2" {
		t.Errorf("VMIDs = %v", ids)
	}
	s.Unregister("vm-1")
	s.Unregister("vm-1") // no-op
	if s.VMs() != 1 || s.Free() != 1 {
		t.Errorf("after unregister: VMs=%d Free=%d", s.VMs(), s.Free())
	}
}

// Figure 7's knee: a backup server passes the workload's saturation knee
// between 35 and 45 VMs at the evaluation's ~2.8 MB/s dirty rate.
func TestSaturationKneeNearPaperValue(t *testing.T) {
	s := NewServer("b1", Config{MaxVMs: 100})
	knee := workload.TPCW().SaturationKnee
	n := 0
	for s.IngestUtilization() <= knee && n < 100 {
		n++
		if err := s.Register(vmName(n), 2.8); err != nil {
			t.Fatal(err)
		}
	}
	if n < 35 || n > 45 {
		t.Errorf("saturation at %d VMs, paper's knee is ~35-40", n)
	}
}

func vmName(i int) string { return "vm-" + string(rune('a'+i/26)) + string(rune('a'+i%26)) }

func TestIngestUtilization(t *testing.T) {
	s := NewServer("b1", Config{})
	if s.IngestUtilization() != 0 {
		t.Error("empty server utilization != 0")
	}
	s.Register("vm-1", 33)
	s.Register("vm-2", 33)
	if u := s.IngestUtilization(); math.Abs(u-0.6) > 1e-12 {
		t.Errorf("utilization = %v, want 0.6 of %v MB/s", u, ingestMBs)
	}
	s.Register("vm-3", 44)
	if u := s.IngestUtilization(); math.Abs(u-1) > 1e-12 {
		t.Errorf("utilization = %v, want 1 at %v MB/s", u, ingestMBs)
	}
}

// Figure 8 calibration: single full restore of a 3.84 GB image takes ~100 s
// unoptimized, ~50 s with SpotCheck's tuning.
func TestRestoreBandwidthCalibration(t *testing.T) {
	unopt := NewServer("u", Config{})
	opt := NewServer("o", Config{OptimizedIO: true})

	t1 := 3840 / unopt.RestoreReadMBsPerVM(1, false)
	if math.Abs(t1-100) > 1 {
		t.Errorf("unoptimized single full restore = %.0f s, want ~100", t1)
	}
	t1opt := 3840 / opt.RestoreReadMBsPerVM(1, false)
	if math.Abs(t1opt-50) > 1 {
		t.Errorf("optimized single full restore = %.0f s, want ~50", t1opt)
	}
}

// Figure 8's shape: with 10 concurrent restorations, unoptimized lazy
// restore takes much longer than both stop-and-copy and optimized lazy.
func TestConcurrentRestoreShape(t *testing.T) {
	unopt := NewServer("u", Config{})
	opt := NewServer("o", Config{OptimizedIO: true})
	imageMB := 3840.0

	window := func(s *Server, n int, lazy bool) float64 {
		return imageMB / s.RestoreReadMBsPerVM(n, lazy)
	}
	fullUnopt10 := window(unopt, 10, false)
	lazyUnopt10 := window(unopt, 10, true)
	lazyOpt10 := window(opt, 10, true)

	if lazyUnopt10 <= fullUnopt10*1.5 {
		t.Errorf("unoptimized lazy (%.0f s) should be much slower than stop-and-copy (%.0f s) at 10 concurrent", lazyUnopt10, fullUnopt10)
	}
	if lazyOpt10 >= lazyUnopt10/2 {
		t.Errorf("optimized lazy (%.0f s) should be far faster than unoptimized (%.0f s)", lazyOpt10, lazyUnopt10)
	}
	// At a single restore, lazy and full are similar (paper: "for 1 and 5
	// the time is similar for both").
	fullUnopt1 := window(unopt, 1, false)
	lazyUnopt1 := window(unopt, 1, true)
	if math.Abs(fullUnopt1-lazyUnopt1) > fullUnopt1*0.05 {
		t.Errorf("single restore: full %.0f s vs lazy %.0f s should be similar", fullUnopt1, lazyUnopt1)
	}
}

func TestBeginEndRestore(t *testing.T) {
	s := NewServer("b1", Config{})
	bw1 := s.BeginRestore(false)
	if s.Restoring() != 1 {
		t.Error("restoring count wrong")
	}
	bw2 := s.BeginRestore(false)
	if s.Restoring() != 2 {
		t.Error("restoring count wrong")
	}
	// Per-VM share shrinks with concurrency (batching < linear).
	if bw2 >= bw1 {
		t.Errorf("per-VM bandwidth should shrink: %v -> %v", bw1, bw2)
	}
	s.EndRestore()
	s.EndRestore()
	s.EndRestore() // extra end is a no-op
	if s.Restoring() != 0 {
		t.Error("restoring count should floor at 0")
	}
}

func TestAggregateReadDegenerate(t *testing.T) {
	s := NewServer("b1", Config{})
	if s.AggregateReadMBs(0, false) != s.AggregateReadMBs(1, false) {
		t.Error("n<=0 should clamp to 1")
	}
	if s.RestoreReadMBsPerVM(0, true) != s.RestoreReadMBsPerVM(1, true) {
		t.Error("n<=0 should clamp to 1")
	}
}

// Property: per-VM restore bandwidth is non-increasing in concurrency and
// aggregate bandwidth is non-decreasing, for all patterns.
func TestRestoreBandwidthMonotoneProperty(t *testing.T) {
	f := func(nRaw uint8, lazy, optimized bool) bool {
		n := int(nRaw%20) + 1
		s := NewServer("b", Config{OptimizedIO: optimized})
		return s.RestoreReadMBsPerVM(n+1, lazy) <= s.RestoreReadMBsPerVM(n, lazy)+1e-9 &&
			s.AggregateReadMBs(n+1, lazy) >= s.AggregateReadMBs(n, lazy)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultsFilled(t *testing.T) {
	s := NewServer("b1", Config{})
	if s.Free() != DefaultConfig().MaxVMs {
		t.Errorf("empty server has %d free slots, want the default %d", s.Free(), DefaultConfig().MaxVMs)
	}
	if s.ID() != "b1" {
		t.Error("ID wrong")
	}
}

// TestIngestUtilizationDeterministic replays one register/unregister
// sequence over 40 streams with mixed dirty rates 200 times: the ingest sum
// runs over the dense stream array front to back, so every replay must give
// the same bit pattern. (A walk over a Go map visits the rates in a
// different order each time, and the last ulp of the sum with it.)
func TestIngestUtilizationDeterministic(t *testing.T) {
	rates := []float64{2.8, 0.1, 7.3, 1e-3, 31.7}
	replay := func() uint64 {
		s := NewServer("b1", Config{})
		for i := 0; i < 40; i++ {
			if err := s.Register(vmName(i), rates[i%len(rates)]*(1+float64(i)/64)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i += 3 {
			s.Unregister(vmName(i))
		}
		for i := 0; i < 40; i += 3 {
			if err := s.Register(vmName(i), rates[(i+1)%len(rates)]/3); err != nil {
				t.Fatal(err)
			}
		}
		if s.VMs() != 40 {
			t.Fatalf("VMs = %d, want 40", s.VMs())
		}
		return math.Float64bits(s.IngestUtilization())
	}
	want := replay()
	for i := 1; i < 200; i++ {
		if got := replay(); got != want {
			t.Fatalf("replay %d: utilization bits %#x, first replay %#x", i, got, want)
		}
	}
}
