package core

import (
	"fmt"

	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
)

// MigrationEstimate predicts what a revocation of one nested VM would cost
// the customer *right now* — the operator's what-if view before choosing a
// mechanism or accepting a maintenance window.
type MigrationEstimate struct {
	Mechanism migration.Mechanism

	// FlushPause and FlushDegraded are the source-side final-flush costs
	// (zero for live-only and stateless VMs).
	FlushPause    simkit.Time
	FlushDegraded simkit.Time
	// Replumb is the expected EBS + address re-plumbing time (Table 1's
	// mean measurements: ~22.65 s of EC2 operations).
	Replumb simkit.Time
	// RestoreDowntime and RestoreDegraded are the destination-side costs
	// at the VM's backup server's *current* restore concurrency.
	RestoreDowntime simkit.Time
	RestoreDegraded simkit.Time

	// TotalDowntime is the predicted unavailability window.
	TotalDowntime simkit.Time
	// TotalDegraded is the predicted degraded-but-running time.
	TotalDegraded simkit.Time
	// BreaksTCP reports whether the downtime would exceed the 60 s TCP
	// timeout (§5's claim is that SpotCheck's does not).
	BreaksTCP bool
}

// replumbMean is the sum of Table 1's mean latencies for the operations a
// migration serializes: unmount+detach EBS (10.3), attach+mount EBS (5.1),
// detach ENI (3.5), attach ENI (3.75).
const replumbMean = simkit.Time(22.65 * float64(simkit.Second))

// EstimateMigration computes the what-if for one VM under the controller's
// configured mechanism and the current backup-server load.
func (c *Controller) EstimateMigration(id nestedvm.ID) (MigrationEstimate, error) {
	vs := c.lookupVM(id)
	if vs == nil {
		return MigrationEstimate{}, fmt.Errorf("core: unknown VM %s", id)
	}
	mech := c.cfg.Mechanism
	est := MigrationEstimate{Mechanism: mech, Replumb: replumbMean}

	switch {
	case vs.stateless:
		// Serves until the forced kill, then boots from its volume.
		est.TotalDowntime = bootTime + est.Replumb
	case !mech.UsesBackup():
		// Pre-copy live migration: sub-second stop-and-copy; the re-plumb
		// overlaps the copy in the paper's treatment.
		est.Replumb = 0
		est.TotalDowntime = c.simulateLive(vs).Downtime
	default:
		_, flush, err := c.sizeFlush(vs, cloud.WarningWindow)
		if err != nil {
			return MigrationEstimate{}, err
		}
		est.FlushPause = flush.Downtime
		est.FlushDegraded = flush.DegradedTime

		readMBs := backup.BaseReadMBs
		if srv := vs.backup; srv != nil {
			readMBs = srv.RestoreReadMBsPerVM(srv.Restoring()+1, mech.Lazy())
		}
		res := c.sizeRestore(vs, readMBs)
		est.RestoreDowntime = res.Downtime
		est.RestoreDegraded = res.DegradedTime
		est.TotalDowntime = est.FlushPause + est.Replumb + est.RestoreDowntime
		est.TotalDegraded = est.FlushDegraded + est.RestoreDegraded
	}
	est.BreaksTCP = est.TotalDowntime > TCPTimeout
	return est, nil
}
