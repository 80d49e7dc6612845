package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// TestControllerInvariantsUnderRandomScenarios drives the full stack
// through randomized storms, fleet churn, mechanisms and policies, then
// audits the controller's bookkeeping. Every seed is an independent
// adversarial scenario.
func TestControllerInvariantsUnderRandomScenarios(t *testing.T) {
	runRandomScenarios(t, false)
}

// TestControllerInvariantsFleetMode replays the adversarial scenarios with
// Config.RecycleReleased on (and both ledgers pre-sized), so release churn
// exercises the VM free list under audit. The name is older than the
// switch: it is the one setting the two tests differ in.
func TestControllerInvariantsFleetMode(t *testing.T) {
	runRandomScenarios(t, true)
}

// runRandomScenarios runs the 20 seeds and reports how much of the move
// record's transition table they exercised between them. A bounded move
// schedules one pause, moved earlier when the destination arrives during the
// drain, so no pause step is ever left over for advance to drop.
func runRandomScenarios(t *testing.T, recycle bool) {
	var seen [numMovePhases]uint32
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := runRandomScenario(t, seed, recycle)
			if n := c.stepsDropped[stepPause]; n != 0 {
				t.Errorf("advance dropped %d stale pause steps", n)
			}
			for from := range c.moveSeen {
				for to, n := range c.moveSeen[from] {
					if n > 0 {
						seen[from] |= 1 << to
					}
				}
			}
		})
	}
	taken, legal := 0, 0
	for from := range moveLegal {
		taken += bits.OnesCount32(seen[from])
		legal += bits.OnesCount32(moveLegal[from])
	}
	t.Logf("the 20 seeds took %d of the table's %d transitions", taken, legal)
}

func runRandomScenario(t *testing.T, seed int64, recycle bool) *Controller {
	rng := rand.New(rand.NewSource(seed))
	horizon := simkit.Time(10+rng.Intn(30)) * simkit.Day

	// Random stormy traces for the four m3 markets.
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range cloud.DefaultCatalog() {
		if !typ.HVM {
			continue
		}
		vol := spotmarket.Volatility(rng.Intn(4))
		configs[spotmarket.MarketKey{Type: typ.Name, Zone: "zone-a"}] =
			spotmarket.DefaultConfig(typ.OnDemand, vol)
	}
	traces, err := spotmarket.GenerateSet(configs, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}

	sched := simkit.NewScheduler()
	platCfg := cloudsim.Config{
		Traces:         traces,
		Seed:           seed,
		ODStockoutProb: float64(rng.Intn(3)) * 0.05, // 0, 5% or 10%
	}
	if recycle {
		platCfg.ExpectedInstances = 32
	}
	plat, err := cloudsim.New(sched, platCfg)
	if err != nil {
		t.Fatal(err)
	}

	mechs := migration.Mechanisms()
	policies := append(NamedPolicies(),
		NewGreedyCheapestPolicy(nil),
		NewZoneSpreadPolicy(cloud.M3Medium, []cloud.Zone{"zone-a"}),
	)
	dests := []DestinationPolicy{DestOnDemand, DestHotSpare, DestStaging}
	mech := mechs[rng.Intn(len(mechs))]
	cfg := Config{
		Scheduler:   sched,
		Provider:    newLedger(plat),
		Mechanism:   mech,
		Placement:   policies[rng.Intn(len(policies))],
		Destination: dests[rng.Intn(len(dests))],
		HotSpares:   rng.Intn(3),
		Seed:        seed,
	}
	if rng.Intn(2) == 1 {
		cfg.Bidding = MultipleBid{K: 1.5 + rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		cfg.Predictive = true
	}
	if recycle {
		cfg.ExpectedVMs = 16
		cfg.RecycleReleased = true
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet churn: create and release VMs at random times. One VM in three
	// is released again while its chain is still placing or installing it —
	// the same instant, or within the few minutes that takes.
	var ids []nestedvm.ID
	n := 4 + rng.Intn(12)
	for i := 0; i < n; i++ {
		at := simkit.Time(rng.Int63n(int64(horizon / 2)))
		stateless := rng.Intn(4) == 0
		early, wait := rng.Intn(3) == 0, simkit.Time(rng.Int63n(int64(6*simkit.Minute)))
		if rng.Intn(4) == 0 {
			wait = 0
		}
		sched.At(at, "create", func() {
			id, err := ctrl.RequestServerWithOptions(ServerOptions{
				Customer: "fuzz", Type: cloud.M3Medium, Stateless: stateless,
			})
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			ids = append(ids, id)
			if early {
				sched.After(wait, "release-new", func() { _ = ctrl.ReleaseServer(id) })
			}
		})
	}
	// The rest of the releases fall anywhere in the horizon, short of the ten
	// minutes the last teardown's address and volume need to get back to the
	// platform before the final audit counts them.
	releases := rng.Intn(n)
	for i := 0; i < releases; i++ {
		at := simkit.Time(rng.Int63n(int64(horizon - 10*simkit.Minute)))
		sched.At(at, "release", func() {
			if len(ids) == 0 {
				return
			}
			id := ids[rng.Intn(len(ids))]
			// Double releases and mid-migration releases are legal inputs.
			_ = ctrl.ReleaseServer(id)
		})
	}

	// The move records are audited while the scenario runs, not only where
	// it happens to stop: a move lasts a minute or two, so the audit's period
	// is shorter than that and shares no factor with the monitor's. It is
	// longer than a monitor interval, though: a host whose only installation
	// failed may sit empty until the retry takes it again, but one found
	// empty by two audits in a row is rented for nobody.
	idle := map[cloud.InstanceID]bool{}
	for at := 97 * simkit.Second; at < horizon; at += 97 * simkit.Second {
		sched.At(at, "audit", func() {
			auditMoves(t, ctrl)
			was := idle
			idle = map[cloud.InstanceID]bool{}
			for _, h := range idleHosts(ctrl) {
				if h.warned {
					continue
				}
				if was[h.inst.ID] {
					t.Errorf("host %s: empty and unreserved for over a monitor interval at %v", h.inst.ID, sched.Now())
				}
				idle[h.inst.ID] = true
			}
		})
	}
	sched.RunUntil(horizon)
	auditController(t, ctrl, mech)
	return ctrl
}

// moveLegal is the move record's transition table: moveLegal[from] is the set
// of phases a move may enter from from. Controller.enter counts every
// transition taken; auditMoves holds the counts against this table.
var moveLegal = [numMovePhases]uint32{
	moveIdle:     phases(movePlace, moveDrain, moveFlush, moveServe, moveCopy),
	movePlace:    phases(moveAddress, moveIdle),
	moveAddress:  phases(moveVolume, movePlace, moveIdle),
	moveVolume:   phases(moveIdle, movePlace),
	moveDrain:    phases(moveFlush),
	moveFlush:    phases(moveFlushed),
	moveFlushed:  phases(moveDetach),
	moveServe:    phases(moveKilled),
	moveKilled:   phases(moveDetach),
	moveCopy:     phases(moveIdle, moveDetach, moveReboot, moveRecover),
	moveDetach:   phases(moveAttach),
	moveAttach:   phases(moveUnassign),
	moveUnassign: phases(moveAssign),
	moveAssign:   phases(moveRestore),
	moveRestore:  phases(moveIdle, moveRecover),
	moveReboot:   phases(moveIdle, moveRecover),
	moveRecover:  phases(moveDetach, moveReboot),
}

// auditMoves checks the move records: every transition taken so far is in the
// table, a VM is migrating exactly when its record is not idle, no VM rests
// on its warned source past the warning's deadline plus the bound, a phase
// that only a timer ends has that timer pending, and pins and deferred
// releases agree with the record.
func auditMoves(t *testing.T, c *Controller) {
	t.Helper()
	for from := range c.moveSeen {
		for to, n := range c.moveSeen[from] {
			if n > 0 && moveLegal[from]&(1<<to) == 0 {
				t.Errorf("move transition %d -> %d taken %d times, not in the table", from, to, n)
			}
		}
	}
	now := c.sched.Now()
	for _, id := range c.vmIDsSorted() {
		vs := c.lookupVM(id)
		if vs == nil {
			continue
		}
		m := &vs.move
		installing := phases(movePlace, moveAddress, moveVolume)&(1<<m.phase) != 0
		held := vs.phase == phaseProvisioning || vs.phase == phaseMigrating
		if held != (m.phase != moveIdle) || installing != (vs.phase == phaseProvisioning) {
			t.Errorf("%s: lifecycle phase %d with move phase %d", id, vs.phase, m.phase)
		}
		if vs.pendingRelease && m.phase == moveIdle {
			t.Errorf("%s: release deferred with no record in flight", id)
		}
		if installing {
			// A new VM has no source; while its address or volume is on its way
			// the destination is the slot reserved for it.
			if m.src != nil || (m.dst == nil) != (m.phase == movePlace) {
				t.Errorf("%s: install phase %d with src %v, dst %v", id, m.phase, m.src != nil, m.dst != nil)
			}
			if m.dst != nil && m.dst.reserved <= 0 {
				t.Errorf("%s: host %s holds no reservation for the install", id, m.dst.inst.ID)
			}
			continue
		}
		switch m.phase {
		case moveDrain, moveFlush, moveServe:
			if now > m.deadline+migrationBound {
				t.Errorf("%s: still in source-side phase %d at %v, deadline %v + bound %v", id, m.phase, now, m.deadline, migrationBound)
			}
			fallthrough
		case moveRestore, moveReboot:
			if !m.wake.Pending() {
				t.Errorf("%s: rests in phase %d with no timer pending", id, m.phase)
			}
		}
		if m.phase != moveIdle && (m.src == nil || m.src.inst == nil) {
			t.Errorf("%s: move in phase %d has lost its source", id, m.phase)
		}
		if m.pinned && (m.src.pinned <= 0 || m.src.inst.State != cloud.StateTerminated) {
			t.Errorf("%s: pin on source %s: host pinned %d times, state %v", id, m.src.inst.ID, m.src.pinned, m.src.inst.State)
		}
		if m.dst != nil && m.phase != moveIdle && m.dst.reserved <= 0 {
			t.Errorf("%s: destination %s holds no reservation for the move", id, m.dst.inst.ID)
		}
	}
}

// auditController checks the cross-cutting bookkeeping invariants.
func auditController(t *testing.T, c *Controller, mech migration.Mechanism) {
	t.Helper()
	now := c.sched.Now()
	auditMoves(t, c)

	seenIPs := map[cloud.Addr]nestedvm.ID{}
	for _, id := range c.vmIDsSorted() {
		vs := c.lookupVM(id)
		if vs == nil {
			t.Errorf("%s: indexed but not resolvable", id)
			continue
		}
		vm := vs.vm

		// Ledger conservation: down + degraded never exceeds service time.
		if vs.phase != phaseProvisioning {
			end := now
			if vs.phase == phaseReleased {
				end = vs.serviceEnd
			}
			down, degraded := vm.Ledger.Snapshot(end)
			if lifetime := end - vm.Created; down+degraded > lifetime {
				t.Errorf("%s: down %v + degraded %v exceeds lifetime %v", id, down, degraded, lifetime)
			}
		}

		switch vs.phase {
		case phaseRunning:
			h := vs.host
			if h == nil {
				t.Errorf("%s: running with no host", id)
				continue
			}
			if _, ok := hostFind(h, vs); !ok {
				t.Errorf("%s: not registered on its host %s", id, h.inst.ID)
			}
			if h.inst.State == cloud.StateTerminated {
				t.Errorf("%s: running on terminated host %s", id, h.inst.ID)
			}
			// IP uniqueness across live VMs.
			if vm.IP.IsValid() {
				if other, dup := seenIPs[vm.IP]; dup {
					t.Errorf("%s and %s share IP %v", id, other, vm.IP)
				}
				seenIPs[vm.IP] = id
			}
			// Backup registration matches market and statefulness.
			onSpot := h.pool.key.Market == cloud.MarketSpot
			wantBackup := mech.UsesBackup() && onSpot && !vs.stateless
			hasBackup := vm.BackupServer != ""
			if wantBackup != hasBackup {
				t.Errorf("%s: backup=%v, want %v (market=%v stateless=%v)", id, hasBackup, wantBackup, h.pool.key.Market, vs.stateless)
			}
		case phaseReleased:
			if vs.host != nil {
				t.Errorf("%s: released but still hosted", id)
			}
		}
	}

	// Host slot accounting.
	for inst := range c.hostIndex {
		instID := inst.ID
		h := c.lookupHost(inst)
		if h == nil {
			t.Errorf("host %s: indexed but not resolvable", instID)
			continue
		}
		if h.role != roleHost {
			continue
		}
		if len(h.vms)+h.reserved > h.capacity {
			t.Errorf("host %s: %d VMs + %d reserved > capacity %d", instID, len(h.vms), h.reserved, h.capacity)
		}
		if h.free() < 0 {
			t.Errorf("host %s: negative free slots", instID)
		}
		for _, vs := range h.vms {
			if vs.host != h {
				t.Errorf("host %s lists %s but the VM points elsewhere", instID, vs.vm.ID)
			}
		}
	}

	// Conservation at the platform: what the controller holds there is what
	// the tracked VMs hold. (Teardowns hand their address and volume back
	// within seconds; the scenarios leave them the time.)
	if led, ok := c.prov.(*ledgerProvider); ok {
		holders := 0
		owned := map[cloud.Addr]bool{}
		for _, id := range c.vmIDsSorted() {
			if vs := c.lookupVM(id); vs != nil {
				if vs.vm.Volume != "" {
					holders++
				}
				owned[vs.vm.IP] = true
			}
		}
		if n := len(led.volumes); n != holders {
			t.Errorf("the controller holds %d volumes, %d tracked VMs hold one", n, holders)
		}
		for a := range led.addrs {
			if !owned[a] {
				t.Errorf("address %v is allocated and belongs to no tracked VM", a)
			}
		}
	}

	// Report sanity.
	rep := c.Report()
	if rep.TotalCost < 0 || rep.HostCost < 0 || rep.BackupCost < 0 || rep.SpareCost < 0 {
		t.Errorf("negative cost in %+v", rep)
	}
	if rep.Availability < 0 || rep.Availability > 1 {
		t.Errorf("availability out of range: %v", rep.Availability)
	}
	if rep.DegradedFraction < 0 || rep.DegradedFraction > 1 {
		t.Errorf("degraded fraction out of range: %v", rep.DegradedFraction)
	}
	for _, s := range rep.StormSizes {
		if s <= 0 || s > rep.Stats.VMsCreated {
			t.Errorf("impossible storm size %d (fleet %d)", s, rep.Stats.VMsCreated)
		}
	}
	// Backup-based mechanisms never lose state except via predictive
	// misses on stateless-free fleets — and those fall back to the
	// checkpoint, so the only legal losses come from XenLive.
	if mech.UsesBackup() && rep.Stats.VMsLostMemoryState > 0 {
		t.Errorf("%v lost %d VMs' memory state despite continuous checkpointing", mech, rep.Stats.VMsLostMemoryState)
	}
}
