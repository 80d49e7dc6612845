package migration_test

import (
	"fmt"

	"repro/internal/migration"
	"repro/internal/simkit"
)

// A nested VM with 3.84 GB of RAM dirtying 5 MB/s migrates over a 60 MB/s
// link: pre-copy converges in a few rounds with sub-second downtime.
func ExampleSimulateLive() {
	res, err := migration.SimulateLive(migration.LiveSpec{
		MemoryMB:     3840,
		DirtyMBs:     5,
		BandwidthMBs: 60,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged=%v rounds=%d downtime<1s=%v\n",
		res.Converged, res.Rounds, res.Downtime < simkit.Second)
	// Output: converged=true rounds=2 downtime<1s=true
}

// The bounded-time guarantee: continuous checkpointing caps the dirty
// residue so the final flush always fits the 30 s bound, and SpotCheck's
// ramped variant converts nearly all of that pause into degraded-but-
// running time.
func ExampleSimulateFlush() {
	cp := migration.CheckpointSpec{BandwidthMBs: 40, Bound: 30 * simkit.Second}
	yank, _ := migration.SimulateFlush(migration.FlushSpec{
		ResidueMB: cp.ResidueMB(), DirtyMBs: 2.8, BandwidthMBs: 40,
		Warning: 120 * simkit.Second,
	})
	ramped, _ := migration.SimulateFlush(migration.FlushSpec{
		ResidueMB: cp.ResidueMB(), DirtyMBs: 2.8, BandwidthMBs: 40,
		Warning: 120 * simkit.Second, Ramped: true,
	})
	fmt.Printf("yank pause %vs, spotcheck pause %vs\n",
		yank.Downtime.Seconds(), ramped.Downtime.Seconds())
	// Output: yank pause 30s, spotcheck pause 0.07s
}

// Lazy restoration resumes from a ~5 MB skeleton in ~0.1 s and demand-pages
// the rest, where a full restore blocks for the whole image.
func ExampleSimulateRestore() {
	full, _ := migration.SimulateRestore(migration.RestoreSpec{
		MemoryMB: 3840, SkeletonMB: 5, ReadMBs: 38.4,
	})
	lazy, _ := migration.SimulateRestore(migration.RestoreSpec{
		MemoryMB: 3840, SkeletonMB: 5, ReadMBs: 38.4, Lazy: true,
	})
	fmt.Printf("full downtime %.0fs; lazy downtime %.2fs + %.0fs degraded\n",
		full.Downtime.Seconds(), lazy.Downtime.Seconds(), lazy.DegradedTime.Seconds())
	// Output: full downtime 100s; lazy downtime 0.13s + 100s degraded
}
