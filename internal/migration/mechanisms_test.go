package migration

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simkit"
)

func TestMechanismFlags(t *testing.T) {
	cases := []struct {
		m                       Mechanism
		backup, lazy, optimized bool
	}{
		{XenLive, false, false, false},
		{UnoptimizedFull, true, false, false},
		{SpotCheckFull, true, false, true},
		{UnoptimizedLazy, true, true, false},
		{SpotCheckLazy, true, true, true},
	}
	for _, c := range cases {
		if c.m.UsesBackup() != c.backup || c.m.Lazy() != c.lazy || c.m.Optimized() != c.optimized {
			t.Errorf("%v flags = %v/%v/%v, want %v/%v/%v", c.m,
				c.m.UsesBackup(), c.m.Lazy(), c.m.Optimized(), c.backup, c.lazy, c.optimized)
		}
	}
	if len(Mechanisms()) != 5 {
		t.Error("evaluation compares exactly five mechanisms")
	}
	if !strings.Contains(Mechanism(9).String(), "9") {
		t.Error("unknown mechanism string")
	}
	for _, m := range Mechanisms() {
		if strings.Contains(m.String(), "mechanism(") {
			t.Errorf("%d has no name", int(m))
		}
	}
}

func TestSimulateLiveConvergent(t *testing.T) {
	// 3.84 GB VM, 5 MB/s dirtying, 60 MB/s link: converges quickly.
	res, err := SimulateLive(LiveSpec{MemoryMB: 3840, DirtyMBs: 5, BandwidthMBs: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("migration should converge with dirty << bandwidth")
	}
	// First round is 64 s; total should be little more.
	if res.Total < simkit.Seconds(64) || res.Total > simkit.Seconds(90) {
		t.Errorf("total = %v, want ~64-90 s", res.Total)
	}
	// Downtime is the stop-and-copy of <= 50 MB at 60 MB/s: under 1 s.
	if res.Downtime > simkit.Second {
		t.Errorf("downtime = %v, want sub-second", res.Downtime)
	}
	if res.TransferredMB < 3840 {
		t.Error("must transfer at least the memory size")
	}
}

func TestSimulateLiveNonConvergent(t *testing.T) {
	// Dirtying as fast as the link: never converges; capped rounds.
	res, err := SimulateLive(LiveSpec{MemoryMB: 4000, DirtyMBs: 80, BandwidthMBs: 60, MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("should not converge with dirty >= bandwidth")
	}
	if res.Rounds != 10 {
		t.Errorf("rounds = %d, want capped at 10", res.Rounds)
	}
	// Forced stop-and-copy moves the whole dirty set: long downtime.
	if res.Downtime < simkit.Seconds(30) {
		t.Errorf("downtime = %v, want long forced stop-and-copy", res.Downtime)
	}
}

func TestSimulateLiveZeroDirty(t *testing.T) {
	res, err := SimulateLive(LiveSpec{MemoryMB: 1000, DirtyMBs: 0, BandwidthMBs: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Rounds != 1 {
		t.Errorf("idle VM should converge in one round, got %+v", res)
	}
	if res.Downtime != 0 {
		t.Errorf("idle VM downtime = %v, want 0", res.Downtime)
	}
}

func TestSimulateLiveErrors(t *testing.T) {
	if _, err := SimulateLive(LiveSpec{MemoryMB: 0, BandwidthMBs: 10}); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := SimulateLive(LiveSpec{MemoryMB: 10, BandwidthMBs: 0}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := SimulateLive(LiveSpec{MemoryMB: 10, BandwidthMBs: 10, DirtyMBs: -1}); err == nil {
		t.Error("negative dirty rate accepted")
	}
}

// Paper: "larger VMs with tens of gigabytes of RAM may take several
// minutes, while smaller VMs with a few gigabytes may take tens of seconds."
func TestLiveLatencyProportionalToMemory(t *testing.T) {
	small, _ := SimulateLive(LiveSpec{MemoryMB: 2 * 1024, DirtyMBs: 5, BandwidthMBs: 60})
	big, _ := SimulateLive(LiveSpec{MemoryMB: 32 * 1024, DirtyMBs: 5, BandwidthMBs: 60})
	if small.Total < 20*simkit.Second || small.Total > 2*simkit.Minute {
		t.Errorf("small VM total = %v, want tens of seconds", small.Total)
	}
	if big.Total < 4*simkit.Minute {
		t.Errorf("big VM total = %v, want several minutes", big.Total)
	}
}

func TestCheckpointSpec(t *testing.T) {
	s := CheckpointSpec{BandwidthMBs: 40, Bound: 30 * simkit.Second}
	if got := s.ResidueMB(); got != 1200 {
		t.Errorf("residue = %v, want 1200 MB (30s × 40MB/s)", got)
	}
}

// Invariant: the bounded-time guarantee. For any residue at or below the
// checkpointer's threshold, the unramped flush completes within the bound.
func TestBoundedTimeGuaranteeProperty(t *testing.T) {
	f := func(residueFrac, bwRaw uint16) bool {
		bw := 1 + float64(bwRaw%200) // 1..200 MB/s
		bound := 30 * simkit.Second  // paper's bound
		cp := CheckpointSpec{BandwidthMBs: bw, Bound: bound}
		residue := cp.ResidueMB() * float64(residueFrac%1001) / 1000
		res, err := SimulateFlush(FlushSpec{
			ResidueMB: residue, DirtyMBs: 2.8, BandwidthMBs: bw,
			Warning: 120 * simkit.Second,
		})
		if err != nil {
			return false
		}
		return res.Downtime <= bound && res.Completed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlushYankVsRamped(t *testing.T) {
	// Same residue: Yank pauses for the whole flush; SpotCheck's ramping
	// converts nearly all of it into degraded (but running) time.
	spec := FlushSpec{
		ResidueMB: 1200, DirtyMBs: 2.8, BandwidthMBs: 40,
		Warning: 120 * simkit.Second,
	}
	yank, err := SimulateFlush(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Ramped = true
	ramped, err := SimulateFlush(spec)
	if err != nil {
		t.Fatal(err)
	}
	if yank.Downtime != 30*simkit.Second {
		t.Errorf("Yank downtime = %v, want 30 s (residue/bw)", yank.Downtime)
	}
	if yank.DegradedTime != 0 {
		t.Error("Yank has no pre-pause degraded phase")
	}
	if ramped.Downtime >= yank.Downtime/10 {
		t.Errorf("ramped downtime = %v, want ≪ Yank's %v", ramped.Downtime, yank.Downtime)
	}
	if ramped.DegradedTime == 0 {
		t.Error("ramping must show a degraded drain phase")
	}
	if !ramped.Completed || !yank.Completed {
		t.Error("both must complete within the 120 s warning")
	}
	// Ramped total is a bit longer than Yank's pause (drain rate is
	// bandwidth minus dirtying) but it is almost entirely non-downtime.
	if ramped.Total < yank.Total {
		t.Errorf("ramped total %v should not beat the raw flush %v", ramped.Total, yank.Total)
	}
}

func TestFlushRampedInfeasibleDrainFallsBack(t *testing.T) {
	// Dirtying outpaces the link: ramping cannot drain, flush pauses.
	res, err := SimulateFlush(FlushSpec{
		ResidueMB: 100, DirtyMBs: 50, BandwidthMBs: 40,
		Warning: 120 * simkit.Second, Ramped: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradedTime != 0 || res.Downtime != simkit.Seconds(2.5) {
		t.Errorf("fallback flush = %+v, want pure 2.5 s pause", res)
	}
}

func TestFlushZeroResidue(t *testing.T) {
	for _, ramped := range []bool{false, true} {
		res, err := SimulateFlush(FlushSpec{
			ResidueMB: 0, DirtyMBs: 2.8, BandwidthMBs: 40,
			Warning: 120 * simkit.Second, Ramped: ramped,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Downtime != 0 || res.DegradedTime != 0 || !res.Completed {
			t.Errorf("ramped=%v: zero residue flush = %+v", ramped, res)
		}
	}
}

func TestFlushIncomplete(t *testing.T) {
	res, err := SimulateFlush(FlushSpec{
		ResidueMB: 10000, DirtyMBs: 0, BandwidthMBs: 40,
		Warning: 120 * simkit.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("250 s flush cannot complete in a 120 s warning")
	}
}

func TestFlushErrors(t *testing.T) {
	for _, bad := range []FlushSpec{
		{ResidueMB: 1, BandwidthMBs: 0, Warning: simkit.Second},
		{ResidueMB: -1, BandwidthMBs: 1, Warning: simkit.Second},
		{ResidueMB: 1, DirtyMBs: -1, BandwidthMBs: 1, Warning: simkit.Second},
		{ResidueMB: 1, BandwidthMBs: 1, Warning: 0},
	} {
		if _, err := SimulateFlush(bad); err == nil {
			t.Errorf("invalid flush spec accepted: %+v", bad)
		}
	}
}

func TestRestoreFullVsLazy(t *testing.T) {
	full, err := SimulateRestore(RestoreSpec{MemoryMB: 3840, SkeletonMB: 5, ReadMBs: 38.4})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := SimulateRestore(RestoreSpec{MemoryMB: 3840, SkeletonMB: 5, ReadMBs: 38.4, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	// Full restore: 100 s of downtime, no degraded phase.
	if math.Abs(full.Downtime.Seconds()-100) > 0.1 {
		t.Errorf("full downtime = %v, want ~100 s", full.Downtime)
	}
	if full.DegradedTime != 0 {
		t.Error("full restore has no degraded phase")
	}
	// Lazy restore: paper reports restoration downtime < 0.1 s... the
	// skeleton is ~5 MB so 0.13 s at this bandwidth; allow < 0.2 s.
	if lazy.Downtime > simkit.Seconds(0.2) {
		t.Errorf("lazy downtime = %v, want ~0.1 s", lazy.Downtime)
	}
	if lazy.DegradedTime < simkit.Seconds(90) {
		t.Errorf("lazy degraded = %v, want ~100 s of demand paging", lazy.DegradedTime)
	}
	// Conservation: lazy moves the same bytes.
	sum := lazy.Downtime + lazy.DegradedTime
	if d := sum - full.Downtime; d > simkit.Second/1000 || d < -simkit.Second/1000 {
		t.Errorf("lazy total %v != full total %v at equal bandwidth", sum, full.Downtime)
	}
}

func TestRestoreErrors(t *testing.T) {
	for _, bad := range []RestoreSpec{
		{MemoryMB: 0, SkeletonMB: 5, ReadMBs: 10},
		{MemoryMB: 100, SkeletonMB: 5, ReadMBs: 0},
		{MemoryMB: 100, SkeletonMB: 0, ReadMBs: 10},
		{MemoryMB: 100, SkeletonMB: 200, ReadMBs: 10},
	} {
		if _, err := SimulateRestore(bad); err == nil {
			t.Errorf("invalid restore spec accepted: %+v", bad)
		}
	}
}
