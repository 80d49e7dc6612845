package core

import (
	"fmt"
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
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomScenario(t, seed, false)
		})
	}
}

// TestControllerInvariantsFleetMode replays the adversarial scenarios with
// Config.RecycleReleased on (and both ledgers pre-sized), so release churn
// exercises the VM free list under audit. The name is older than the
// switch: it is the one setting the two tests differ in.
func TestControllerInvariantsFleetMode(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomScenario(t, seed, true)
		})
	}
}

func runRandomScenario(t *testing.T, seed int64, recycle bool) {
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
		Provider:    plat,
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
		cfg.Predictive = PredictiveConfig{Enabled: true}
	}
	if recycle {
		cfg.ExpectedVMs = 16
		cfg.RecycleReleased = true
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet churn: create and release VMs at random times.
	var ids []nestedvm.ID
	n := 4 + rng.Intn(12)
	for i := 0; i < n; i++ {
		at := simkit.Time(rng.Int63n(int64(horizon / 2)))
		stateless := rng.Intn(4) == 0
		sched.At(at, "create", func() {
			id, err := ctrl.RequestServerWithOptions(ServerOptions{
				Customer: "fuzz", Type: cloud.M3Medium, Stateless: stateless,
			})
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			ids = append(ids, id)
		})
	}
	releases := rng.Intn(n)
	for i := 0; i < releases; i++ {
		at := horizon/2 + simkit.Time(rng.Int63n(int64(horizon/4)))
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
	// is shorter than that and shares no factor with the monitor's.
	for at := 97 * simkit.Second; at < horizon; at += 97 * simkit.Second {
		sched.At(at, "audit", func() { auditMoves(t, ctrl) })
	}
	sched.RunUntil(horizon)
	auditController(t, ctrl, mech)
}

// moveLegal is the move record's transition table: moveLegal[from] is the set
// of phases a move may enter from from. Controller.enter counts every
// transition taken; auditMoves holds the counts against this table.
var moveLegal = [numMovePhases]uint16{
	moveIdle:     phases(moveDrain, moveFlush, moveServe, moveCopy),
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
		if (vs.phase == phaseMigrating) != (m.phase != moveIdle) {
			t.Errorf("%s: lifecycle phase %d with move phase %d", id, vs.phase, m.phase)
		}
		if vs.pendingRelease && vs.phase != phaseMigrating {
			t.Errorf("%s: release deferred with no move in flight", id)
		}
		switch m.phase {
		case moveDrain, moveFlush, moveServe:
			if now > m.deadline+c.cfg.Bound {
				t.Errorf("%s: still in source-side phase %d at %v, deadline %v + bound %v", id, m.phase, now, m.deadline, c.cfg.Bound)
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
			if h.vmByID(id) != vs {
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
			onSpot := h.key.Market == cloud.MarketSpot
			wantBackup := mech.UsesBackup() && onSpot && !vs.stateless
			hasBackup := vm.BackupServer != ""
			if wantBackup != hasBackup {
				t.Errorf("%s: backup=%v, want %v (market=%v stateless=%v)", id, hasBackup, wantBackup, h.key.Market, vs.stateless)
			}
		case phaseReleased:
			if vs.host != nil {
				t.Errorf("%s: released but still hosted", id)
			}
		}
	}

	// Host slot accounting.
	for instID := range c.hostIndex {
		h := c.lookupHost(instID)
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
