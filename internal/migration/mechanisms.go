package migration

import (
	"fmt"

	"repro/internal/simkit"
)

// Mechanism enumerates the five migration variants the evaluation compares
// (Figures 10-12).
type Mechanism int

const (
	// XenLive is plain pre-copy live migration with no backup server. It
	// is the cheapest and has near-zero downtime, but risks losing the VM
	// when a migration cannot finish within the revocation warning.
	XenLive Mechanism = iota
	// UnoptimizedFull is Yank: fixed-interval checkpointing, pause-and-
	// flush on warning, and a full (stop-and-copy) restore.
	UnoptimizedFull
	// SpotCheckFull adds SpotCheck's optimizations (ramped checkpoint
	// frequency after the warning, tuned backup-server I/O) but still
	// restores fully before resuming.
	SpotCheckFull
	// UnoptimizedLazy uses lazy restoration without the backup server's
	// fadvise/readahead tuning: random demand reads hit raw disk.
	UnoptimizedLazy
	// SpotCheckLazy is the full system: ramped checkpointing, tuned I/O,
	// lazy restoration.
	SpotCheckLazy
)

// Mechanisms lists all variants in evaluation order.
//
//lint:testonly the 20-seed controller audit and the estimate tests enumerate the mechanisms through it
func Mechanisms() []Mechanism {
	return []Mechanism{XenLive, UnoptimizedFull, SpotCheckFull, UnoptimizedLazy, SpotCheckLazy}
}

func (m Mechanism) String() string {
	switch m {
	case XenLive:
		return "Xen Live migration"
	case UnoptimizedFull:
		return "Unoptimized Full restore"
	case SpotCheckFull:
		return "SpotCheck with Full restore"
	case UnoptimizedLazy:
		return "Unoptimized Lazy restore"
	case SpotCheckLazy:
		return "SpotCheck with Lazy restore"
	default:
		return fmt.Sprintf("mechanism(%d)", int(m))
	}
}

// UsesBackup reports whether the mechanism maintains a backup server
// (everything except plain live migration).
func (m Mechanism) UsesBackup() bool { return m != XenLive }

// Lazy reports whether restoration is lazy.
func (m Mechanism) Lazy() bool { return m == UnoptimizedLazy || m == SpotCheckLazy }

// Optimized reports whether SpotCheck's checkpoint-ramping and backup I/O
// optimizations are active.
func (m Mechanism) Optimized() bool { return m == SpotCheckFull || m == SpotCheckLazy }

// ---------------------------------------------------------------------------
// Pre-copy live migration (§3.2)

// LiveSpec parameterises a pre-copy live migration.
type LiveSpec struct {
	MemoryMB     float64 // VM memory footprint
	DirtyMBs     float64 // page dirtying rate during migration
	BandwidthMBs float64 // migration transfer bandwidth
	// MaxRounds caps pre-copy iterations before forcing stop-and-copy
	// (non-converging migrations). Defaults to 30.
	MaxRounds int
}

// LiveResult reports a simulated pre-copy migration.
type LiveResult struct {
	Total         simkit.Time // end-to-end latency
	Downtime      simkit.Time // final stop-and-copy pause
	TransferredMB float64     // total bytes moved (copies + recopies)
	Rounds        int
	Converged     bool // dirty set shrank below stopCopyMB before MaxRounds
}

// stopCopyMB is the residual dirty set at which a pre-copy pauses the VM
// for its final stop-and-copy round (§3.2).
const stopCopyMB = 50

// SimulateLive runs the pre-copy iteration analytically: round i re-copies
// the pages dirtied during round i-1. With dirty rate d and bandwidth b the
// dirty set contracts geometrically by d/b per round; the migration
// converges iff d < b.
func SimulateLive(s LiveSpec) (LiveResult, error) {
	if s.MemoryMB <= 0 || s.BandwidthMBs <= 0 {
		return LiveResult{}, fmt.Errorf("migration: live spec needs positive memory (%v) and bandwidth (%v)", s.MemoryMB, s.BandwidthMBs)
	}
	if s.DirtyMBs < 0 {
		return LiveResult{}, fmt.Errorf("migration: negative dirty rate %v", s.DirtyMBs)
	}
	maxRounds := s.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 30
	}

	remaining := s.MemoryMB
	var elapsed, transferred float64
	rounds := 0
	converged := false
	for {
		rounds++
		copyTime := remaining / s.BandwidthMBs
		elapsed += copyTime
		transferred += remaining
		remaining = s.DirtyMBs * copyTime // dirtied while copying
		if remaining > s.MemoryMB {
			remaining = s.MemoryMB // dirty set cannot exceed RAM
		}
		if remaining <= stopCopyMB {
			converged = true
			break
		}
		if rounds >= maxRounds {
			break
		}
	}
	// Final stop-and-copy pause.
	downtime := remaining / s.BandwidthMBs
	elapsed += downtime
	transferred += remaining
	return LiveResult{
		Total:         simkit.Seconds(elapsed),
		Downtime:      simkit.Seconds(downtime),
		TransferredMB: transferred,
		Rounds:        rounds,
		Converged:     converged,
	}, nil
}

// ---------------------------------------------------------------------------
// Continuous checkpointing for bounded-time migration (§3.2, Yank)

// CheckpointSpec parameterises the background checkpointing that keeps the
// dirty residue on the source small enough to flush within the bound.
type CheckpointSpec struct {
	BandwidthMBs float64     // bandwidth to the backup server
	Bound        simkit.Time // guaranteed flush bound (paper uses 30 s)
}

// ResidueMB is the maximum dirty residue the checkpointer tolerates: any
// residue at or below this flushes within Bound at the available bandwidth.
// This is the threshold "chosen such that any outstanding dirty pages can
// be safely committed upon a revocation within the time bound".
func (s CheckpointSpec) ResidueMB() float64 {
	return s.Bound.Seconds() * s.BandwidthMBs
}

// ---------------------------------------------------------------------------
// Final flush on revocation warning

// FlushSpec parameterises the state transfer after a revocation warning.
type FlushSpec struct {
	ResidueMB    float64     // dirty residue at warning time (≤ CheckpointSpec.ResidueMB)
	DirtyMBs     float64     // workload dirty rate (matters when ramped)
	BandwidthMBs float64     // bandwidth to the backup server
	Warning      simkit.Time // window until forced termination
	Ramped       bool        // SpotCheck's rising checkpoint frequency
}

// rampFloorSeconds is how much dirtying the final pause of a ramped flush
// must absorb once ramping has drained the residue: one second's worth
// (§3.2).
const rampFloorSeconds = 1

// FlushResult reports the flush.
type FlushResult struct {
	// Downtime is the pause while stale state transfers with the VM
	// stopped. Yank pauses for the whole residue; SpotCheck's ramping
	// shrinks the pause to the last instants of dirtying.
	Downtime simkit.Time
	// DegradedTime is the pre-pause interval during which ramped
	// checkpointing degrades the still-running VM.
	DegradedTime simkit.Time
	// Total is DegradedTime + Downtime.
	Total simkit.Time
	// Completed reports whether the flush fits in the warning window; a
	// false value means the VM would have been lost (never the case for a
	// correctly-sized residue).
	Completed bool
}

// SimulateFlush models the state transfer between warning and termination.
func SimulateFlush(s FlushSpec) (FlushResult, error) {
	if s.BandwidthMBs <= 0 {
		return FlushResult{}, fmt.Errorf("migration: bandwidth must be positive, got %v", s.BandwidthMBs)
	}
	if s.ResidueMB < 0 || s.DirtyMBs < 0 {
		return FlushResult{}, fmt.Errorf("migration: negative residue (%v) or dirty rate (%v)", s.ResidueMB, s.DirtyMBs)
	}
	if s.Warning <= 0 {
		return FlushResult{}, fmt.Errorf("migration: warning window must be positive, got %v", s.Warning)
	}
	if !s.Ramped {
		// Yank: pause the VM and push the whole residue.
		down := s.ResidueMB / s.BandwidthMBs
		total := simkit.Seconds(down)
		return FlushResult{
			Downtime:  total,
			Total:     total,
			Completed: total <= s.Warning,
		}, nil
	}
	// SpotCheck: keep the VM running while checkpointing at rising
	// frequency. The residue drains at (bandwidth - dirty rate); the VM is
	// degraded during the drain, then pauses only to flush the floor.
	floor := s.DirtyMBs * rampFloorSeconds
	if floor > s.ResidueMB {
		floor = s.ResidueMB
	}
	var drainSecs float64
	if s.ResidueMB > floor {
		drain := s.BandwidthMBs - s.DirtyMBs
		if drain <= 0 {
			// Cannot drain while running; degrade until the window forces
			// a pause, then flush everything.
			down := s.ResidueMB / s.BandwidthMBs
			total := simkit.Seconds(down)
			return FlushResult{
				Downtime:  total,
				Total:     total,
				Completed: total <= s.Warning,
			}, nil
		}
		drainSecs = (s.ResidueMB - floor) / drain
	}
	downSecs := floor / s.BandwidthMBs
	res := FlushResult{
		Downtime:     simkit.Seconds(downSecs),
		DegradedTime: simkit.Seconds(drainSecs),
	}
	res.Total = res.DegradedTime + res.Downtime
	res.Completed = res.Total <= s.Warning
	return res, nil
}

// ---------------------------------------------------------------------------
// Restoration (§3.3)

// RestoreSpec parameterises resuming a VM from its checkpoint on the
// destination host.
type RestoreSpec struct {
	MemoryMB   float64 // checkpoint image size
	SkeletonMB float64 // vCPU + page tables + hypervisor state (~5 MB)
	// ReadMBs is the effective per-VM read bandwidth from the backup
	// server (computed by the backup package from concurrency and I/O
	// optimization flags).
	ReadMBs float64
	Lazy    bool
}

// RestoreResult reports a restoration.
type RestoreResult struct {
	// Downtime: full restore blocks until the whole image is resident;
	// lazy restore blocks only for the skeleton (<0.1 s in the paper).
	Downtime simkit.Time
	// DegradedTime: lazy restore then runs with demand paging until the
	// background prefetcher completes.
	DegradedTime simkit.Time
}

// SimulateRestore models a restoration.
func SimulateRestore(s RestoreSpec) (RestoreResult, error) {
	if s.MemoryMB <= 0 || s.ReadMBs <= 0 {
		return RestoreResult{}, fmt.Errorf("migration: restore needs positive memory (%v) and bandwidth (%v)", s.MemoryMB, s.ReadMBs)
	}
	if s.SkeletonMB <= 0 || s.SkeletonMB > s.MemoryMB {
		return RestoreResult{}, fmt.Errorf("migration: skeleton %v MB must be in (0, memory]", s.SkeletonMB)
	}
	if !s.Lazy {
		return RestoreResult{
			Downtime: simkit.Seconds(s.MemoryMB / s.ReadMBs),
		}, nil
	}
	return RestoreResult{
		Downtime:     simkit.Seconds(s.SkeletonMB / s.ReadMBs),
		DegradedTime: simkit.Seconds((s.MemoryMB - s.SkeletonMB) / s.ReadMBs),
	}, nil
}
