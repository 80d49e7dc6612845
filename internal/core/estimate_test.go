package core

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// TestEstimateMatchesChain pins the one sizing path: the what-if a VM's
// estimate gives before a revocation is what the migration chain records
// when EC2 then warns its host with the full warning window left — the
// final flush and the restore (full or lazy) of every backup-based
// mechanism, and XenLive's stop-and-copy pause. Two restores are in flight
// on the VM's backup server throughout, so the restore is sized under
// load.
func TestEstimateMatchesChain(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	for _, mech := range migration.Mechanisms() {
		t.Run(mech.String(), func(t *testing.T) {
			r := newRig(t, traces, func(c *Config) { c.Mechanism = mech })
			id := r.request(t, "alice")
			r.run(t, 9*simkit.Hour)
			vs := r.ctrl.lookupVM(id)
			lazy := mech.Lazy()
			if srv := vs.backup; srv != nil {
				srv.BeginRestore(lazy)
				srv.BeginRestore(lazy)
			}
			est, err := r.ctrl.EstimateMigration(id)
			if err != nil {
				t.Fatal(err)
			}
			// Registered after the controller's, so this listener sees the
			// move the warning has just started.
			var warned bool
			var chain move
			r.plat.OnRevocationWarning(func(w cloud.RevocationWarning) {
				if w.Instance.ID != vs.host.inst.ID {
					return
				}
				if window := w.Deadline - w.Issued; window != cloud.WarningWindow {
					t.Errorf("warned with %v left, want %v", window, cloud.WarningWindow)
				}
				warned, chain = true, vs.move
			})
			r.run(t, 10*simkit.Hour+simkit.Second)
			if !warned {
				t.Fatal("the spike warned no host of the VM")
			}
			if !mech.UsesBackup() {
				if live := r.ctrl.simulateLive(vs); est.TotalDowntime != live.Downtime || chain.live.Downtime != live.Downtime {
					t.Errorf("estimate downtime %v, chain's pre-copy pause %v, simulateLive %v", est.TotalDowntime, chain.live.Downtime, live.Downtime)
				}
				return
			}
			if est.FlushPause != chain.flush.Downtime || est.FlushDegraded != chain.flush.DegradedTime {
				t.Errorf("estimate flush pause %v degraded %v, chain recorded %v / %v",
					est.FlushPause, est.FlushDegraded, chain.flush.Downtime, chain.flush.DegradedTime)
			}
			if chain.flush.Downtime == 0 {
				t.Error("the chain recorded no flush")
			}
			for steps := 0; vs.move.phase != moveRestore; steps++ {
				if steps == 10000 || !r.sched.Step() {
					t.Fatalf("the chain never reached its restore (phase %v)", vs.move.phase)
				}
			}
			got := vs.move.restore
			if est.RestoreDowntime != got.Downtime || est.RestoreDegraded != got.DegradedTime {
				t.Errorf("estimate restore downtime %v degraded %v, chain sized %v / %v",
					est.RestoreDowntime, est.RestoreDegraded, got.Downtime, got.DegradedTime)
			}
			if (got.DegradedTime > 0) != lazy {
				t.Errorf("lazy=%v restore degraded for %v", lazy, got.DegradedTime)
			}
			alone := r.ctrl.sizeRestore(vs, vs.backup.RestoreReadMBsPerVM(1, lazy))
			if got.Downtime <= alone.Downtime {
				t.Errorf("restore downtime %v with two in flight, %v alone: the load went unread", got.Downtime, alone.Downtime)
			}
		})
	}
}
