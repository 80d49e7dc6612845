package core

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// migrationReason distinguishes why a nested VM moves.
type migrationReason int

const (
	// reasonRevocation: the native platform warned the spot host.
	reasonRevocation migrationReason = iota
	// reasonProactive: price crossed the on-demand price but is still
	// below the bid; migrate before a revocation can happen (§4.3).
	reasonProactive
	// reasonReturn: a price spike abated; move back to cheap spot.
	reasonReturn
	// reasonStagingHop: second hop from a staging host to the final home.
	reasonStagingHop
)

func (r migrationReason) String() string {
	switch r {
	case reasonRevocation:
		return "revocation"
	case reasonProactive:
		return "proactive"
	case reasonReturn:
		return "return"
	case reasonStagingHop:
		return "staging-hop"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// onRevocationWarning reacts to the native platform revoking a spot host:
// every resident nested VM must be off the server (or at least safe on its
// backup server) before the deadline.
func (c *Controller) onRevocationWarning(w cloud.RevocationWarning) {
	h := c.lookupHost(w.Instance.ID)
	if h == nil || h.role != roleHost {
		return
	}
	h.warned = true
	h.warnDeadline = w.Deadline
	h.pool.market.revocations++

	// h.vms is id-sorted and no migration path removes a VM from its source
	// synchronously (completeMove always runs from a later event), so the
	// live slice is safe to walk directly.
	victims := h.vms
	running := 0
	for _, vs := range victims {
		if vs.phase == phaseRunning {
			running++
		}
	}
	if running > 0 {
		c.recordStorm(h.key, running)
	}
	for _, vs := range victims {
		if vs.phase != phaseRunning {
			continue
		}
		vs.vm.Revocations++
		c.met.revocations.Inc()
		if c.trace != nil {
			c.emit("vm", string(vs.vm.ID), EventWarned, fmt.Sprintf("host %s revoked (price %v), %v to deadline", h.inst.ID, w.Price, w.Deadline-c.sched.Now()))
		}
		c.migrateVM(vs, reasonRevocation, w.Deadline)
	}
}

// recordStorm accumulates concurrent revocations occurring at the same
// instant (a pool-wide price spike revokes every host simultaneously, so
// batches at one timestamp are one storm; Table 3).
func (c *Controller) recordStorm(key PoolKey, vms int) {
	now := c.sched.Now()
	if len(c.storms) > 0 {
		last := &c.storms[len(c.storms)-1]
		if last.At == now && last.Pool == key {
			last.VMs += vms
			return
		}
	}
	c.storms = append(c.storms, StormEvent{At: now, Pool: key, VMs: vms})
	// Warnings later in this same instant merge into the storm above, so
	// defer the observation until the instant's event cascade completes
	// (same-time events fire in insertion order) to see the final size.
	idx := len(c.storms) - 1
	c.sched.After(0, "storm-observe", func() {
		s := c.storms[idx]
		c.met.stormVMs.Observe(float64(s.VMs))
		if c.trace != nil {
			c.emit("pool", s.Pool.String(), "revocation-batch", fmt.Sprintf("%d VMs displaced", s.VMs))
		}
	})
}

// migrateVM starts moving a nested VM off its current host. deadline is
// zero for unconstrained (live) relocations.
func (c *Controller) migrateVM(vs *vmState, reason migrationReason, deadline simkit.Time) {
	if vs.phase != phaseRunning {
		return
	}
	src := vs.host
	if src == nil {
		return
	}
	vs.phase = phaseMigrating
	vs.vm.Migrations++
	c.met.migStarted[reason].Inc()
	if c.trace != nil {
		c.emit("vm", string(vs.vm.ID), "migration-start", "reason="+reason.String()+" host="+string(src.inst.ID))
	}
	c.endLazyWindow(vs)
	switch reason {
	case reasonRevocation:
		switch {
		case vs.stateless:
			c.runStatelessMigration(vs, src, deadline)
		case c.cfg.Mechanism.UsesBackup():
			c.runBoundedMigration(vs, src, deadline)
		default:
			c.runLiveEvacuation(vs, src, deadline, false)
		}
	case reasonProactive:
		c.runLiveEvacuation(vs, src, 0, false)
	case reasonReturn:
		// Returns are committed by tryReturn, which validates the target
		// market before calling migrateVM; by the time we get here the
		// move is definitely happening.
		c.runLiveReturn(vs, src)
	case reasonStagingHop:
		c.runLiveEvacuation(vs, src, 0, true)
	}
}

// endLazyWindow cancels an in-progress lazy-restore degradation window
// (e.g. the VM migrates again, or is released, mid-prefetch).
func (c *Controller) endLazyWindow(vs *vmState) {
	if vs.lazyDegradeEvent.Pending() {
		c.sched.Cancel(vs.lazyDegradeEvent)
		vs.lazyDegradeEvent = simkit.Event{}
	}
	if vs.restoreSrv != nil {
		vs.restoreSrv.EndRestore()
		vs.restoreSrv = nil
	}
}

// runBoundedMigration implements the revocation path for the four
// backup-based mechanisms: flush the dirty residue within the bound (Yank
// pause, or SpotCheck's ramped degradation + short pause), acquire a
// destination in parallel, re-plumb the volume and address, then restore
// (fully or lazily).
func (c *Controller) runBoundedMigration(vs *vmState, src *hostState, deadline simkit.Time) {
	now := c.sched.Now()
	vm := vs.vm
	warning := deadline - now
	if warning <= 0 {
		warning = simkit.Second
	}
	cp := migration.CheckpointSpec{
		DirtyMBs:     vm.Memory.DirtyMBs,
		BandwidthMBs: c.cfg.CheckpointBandwidthMBs,
		Bound:        c.cfg.Bound,
	}
	// Worst-case residue: the checkpointer lets the dirty set grow to its
	// bound threshold between checkpoints (conservative, like the paper's
	// 30 s bound).
	flush, err := migration.SimulateFlush(migration.FlushSpec{
		ResidueMB:    cp.ResidueMB(),
		DirtyMBs:     vm.Memory.DirtyMBs,
		BandwidthMBs: c.cfg.CheckpointBandwidthMBs,
		Warning:      warning,
		Ramped:       c.cfg.Mechanism.Optimized(),
	})
	if err != nil {
		// Mis-configuration; treat as an immediate pause of the bound.
		flush = migration.FlushResult{Downtime: c.cfg.Bound, Total: c.cfg.Bound, Completed: true}
	}
	c.met.mig.RecordFlush(cp.ResidueMB(), flush)

	var destHost *hostState
	var stagedHop bool
	var flushDone bool
	proceed := func() {
		if !flushDone || destHost == nil {
			return
		}
		c.replumb(vs, src, destHost, stagedHop)
	}

	if !c.cfg.Mechanism.Optimized() {
		// Yank: pause immediately on the warning and push the whole
		// residue; the VM is down from the warning onward.
		vm.Ledger.Set(nestedvm.CondDown, now)
		c.sched.After(flush.Total, "flush-done", func() {
			flushDone = true
			proceed()
		})
		c.chooseDestinationRetry(vs, false, func(h *hostState, staged bool) {
			destHost, stagedHop = h, staged
			proceed()
		})
		return
	}

	// SpotCheck's ramped checkpointing: the VM keeps *running* (degraded)
	// at rising checkpoint frequency, which holds the dirty residue at its
	// floor once the drain completes. The final pause is deferred until
	// the destination is up — or until the deadline forces it — so the
	// down window shrinks to pause + re-plumbing + restore (~23 s, §5).
	vm.Ledger.Set(nestedvm.CondDegraded, now)
	drainEnd := now + flush.DegradedTime
	// State safety: the final pause must still complete inside the window.
	pauseBy := deadline - flush.Downtime - simkit.Second
	if pauseBy < drainEnd {
		pauseBy = drainEnd
	}
	paused := false
	beginFinal := func() {
		if paused || vs.phase != phaseMigrating {
			return
		}
		paused = true
		vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
		if c.trace != nil {
			c.emit("vm", string(vm.ID), EventPaused, fmt.Sprintf("final flush pause (%v)", flush.Downtime))
		}
		c.sched.After(flush.Downtime, "flush-done", func() {
			flushDone = true
			proceed()
		})
	}
	c.sched.At(pauseBy, "pause-deadline", beginFinal)
	c.chooseDestinationRetry(vs, false, func(h *hostState, staged bool) {
		destHost, stagedHop = h, staged
		at := c.sched.Now()
		if at < drainEnd {
			at = drainEnd
		}
		c.sched.At(at, "pause", beginFinal)
		// The deadline may already have forced the pause and finished the
		// flush while the destination was still coming up.
		proceed()
	})
}

// runStatelessMigration handles revocation of a stateless VM: no memory
// state to save, so the VM serves until the platform kills the source, then
// reboots from its network volume on a fresh host. Downtime is the gap
// between the forced termination and boot completing on the destination.
func (c *Controller) runStatelessMigration(vs *vmState, src *hostState, deadline simkit.Time) {
	vm := vs.vm
	now := c.sched.Now()
	if deadline < now {
		deadline = now
	}
	var destHost *hostState
	var sourceDead bool
	proceed := func() {
		if !sourceDead || destHost == nil {
			return
		}
		c.replumb(vs, src, destHost, false)
	}
	c.sched.At(deadline, "stateless-kill", func() {
		vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
		sourceDead = true
		proceed()
	})
	c.chooseDestinationRetry(vs, false, func(h *hostState, _ bool) {
		destHost = h
		proceed()
	})
}

// chooseDestinationRetry loops until a destination appears. A displaced
// VM's state is safe on its backup server, so waiting loses availability
// but never state ("there is never a risk of losing nested VM state").
func (c *Controller) chooseDestinationRetry(vs *vmState, forceOD bool, ok func(*hostState, bool)) {
	c.chooseDestination(vs, forceOD, func(h *hostState, staged bool, err error) {
		if err != nil {
			c.met.destFails.Inc()
			c.sched.After(c.cfg.MonitorInterval, "dest-retry", func() {
				if c.shutdown {
					return
				}
				c.chooseDestinationRetry(vs, forceOD, ok)
			})
			return
		}
		ok(h, staged)
	})
}

// chooseDestination picks the new host for a displaced VM according to the
// destination policy (forceOD bypasses spares/staging for final homes).
// The callback's staged flag marks a temporary staging placement that needs
// a second hop.
func (c *Controller) chooseDestination(vs *vmState, forceOD bool, cb func(h *hostState, staged bool, err error)) {
	if !forceOD {
		switch c.cfg.Destination {
		case DestHotSpare:
			if h := c.takeSpare(vs.vm.Type); h != nil {
				h.reserved++
				cb(h, false, nil)
				return
			}
			// No spare ready: fall back to a lazy on-demand request.
		case DestStaging:
			if h := c.findStagingSlot(vs); h != nil {
				h.reserved++
				cb(h, true, nil)
				return
			}
		}
	}
	key := PoolKey{Type: vs.vm.Type.Name, Zone: c.cfg.BackupZone, Market: cloud.MarketOnDemand}
	c.acquireHost(key, vs.vm.Type, vs, func(h *hostState, err error) {
		cb(h, false, err)
	})
}

// findStagingSlot looks for spare capacity on an existing, unwarned,
// running host (any pool) whose slice size matches.
func (c *Controller) findStagingSlot(vs *vmState) *hostState {
	ids := make([]cloud.InstanceID, 0, len(c.hostIndex))
	for id := range c.hostIndex {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := c.lookupHost(id)
		if h == nil || h.role != roleHost || h.warned || h.free() <= 0 {
			continue
		}
		if h.inst.State != cloud.StateRunning {
			continue
		}
		if h.slotType.Name != vs.vm.Type.Name {
			continue
		}
		if h == vs.host {
			continue
		}
		return h
	}
	return nil
}

// replumb performs the paper's §3.5 sequence once the VM is paused and the
// destination is up: detach the volume and address from the source, attach
// both to the destination, then restore the VM from its backup server. The
// VM is down throughout (Table 1's ~23 s of EC2 operations plus restore
// downtime).
func (c *Controller) replumb(vs *vmState, src, dst *hostState, staged bool) {
	vm := vs.vm
	step4 := func() {
		c.restoreOnDestination(vs, src, dst, staged)
	}
	step3 := func() {
		if err := c.prov.AssignIP(dst.inst.ID, vm.IP, func(err error) { step4() }); err != nil {
			// Address plumbing failed (extremely rare: destination died);
			// continue — the VM still restores, the address follows later.
			step4()
		}
	}
	step2 := func() {
		srcAlive := src.inst.State != cloud.StateTerminated && src.inst.HasIP(vm.IP)
		if !srcAlive {
			step3()
			return
		}
		if err := c.prov.UnassignIP(src.inst.ID, vm.IP, func(err error) { step3() }); err != nil {
			step3()
		}
	}
	step1 := func() {
		if err := c.prov.AttachVolume(vm.Volume, dst.inst.ID, func(err error) { step2() }); err != nil {
			step2()
		}
	}
	// Detach from the source; the platform auto-detaches if the source was
	// already force-terminated, so an error here means "already done".
	if err := c.prov.DetachVolume(vm.Volume, func(err error) { step1() }); err != nil {
		step1()
	}
}

// restoreOnDestination resumes the VM on dst from its backup server, or —
// for stateless VMs — boots it afresh from its network volume.
func (c *Controller) restoreOnDestination(vs *vmState, src, dst *hostState, staged bool) {
	vm := vs.vm
	mech := c.cfg.Mechanism
	if vs.stateless {
		c.sched.After(simkit.Seconds(c.cfg.BootSeconds), "boot", func() {
			c.completeMove(vs, src, dst)
		})
		return
	}
	srv := vs.backup
	var readMBs float64
	if srv != nil {
		readMBs = srv.BeginRestore(mech.Lazy())
	} else {
		// Shouldn't happen for backup mechanisms; assume an unloaded
		// default server's bandwidth.
		readMBs = 38.4
	}
	res, err := migration.SimulateRestore(migration.RestoreSpec{
		MemoryMB:   vm.Memory.SizeMB,
		SkeletonMB: vm.Memory.SkeletonMB,
		ReadMBs:    readMBs,
		Lazy:       mech.Lazy(),
	})
	if err != nil {
		res = migration.RestoreResult{Downtime: simkit.Second}
	}
	c.met.mig.RecordRestore(mech.Lazy(), res)
	c.sched.After(res.Downtime, "restore", func() {
		c.completeMove(vs, src, dst)
		if mech.Lazy() && res.DegradedTime > 0 && vs.phase == phaseRunning {
			vm.Ledger.Set(nestedvm.CondDegraded, c.sched.Now())
			vs.restoreSrv = srv
			vs.lazyDegradeEvent = c.sched.After(res.DegradedTime, "prefetch-done", func() {
				vs.lazyDegradeEvent = simkit.Event{}
				c.endLazyWindow(vs)
				if vs.phase == phaseRunning {
					vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
				}
			})
		} else if srv != nil {
			srv.EndRestore()
		}
		if staged && vs.phase == phaseRunning {
			// Staging placement: schedule the second hop to a fresh
			// on-demand server once the dust settles. The timer may outlive
			// the VM (slot recycled) or the host (slot recycled for another
			// instance), so it re-validates by handle generation and by
			// instance id — instance ids are monotonic and never reused.
			vh := vs.slot
			dstID := dst.inst.ID
			c.sched.After(c.cfg.MonitorInterval, "staging-hop", func() {
				if c.vmSlab.Get(vh) == nil {
					return
				}
				if vs.phase == phaseRunning && vs.host != nil && vs.host.inst.ID == dstID {
					c.migrateVM(vs, reasonStagingHop, 0)
				}
			})
		}
	})
}

// completeMove finalizes bookkeeping after a migration: the VM now runs on
// dst; the source slot frees; backup registration follows the new market.
func (c *Controller) completeMove(vs *vmState, src, dst *hostState) {
	vm := vs.vm
	// A terminated source pinned by a prior dst-died recovery chain (below)
	// is released here: the chain that pinned it always funnels into exactly
	// one completeMove with that host as src.
	if vs.pinnedSrc == src {
		vs.pinnedSrc = nil
		src.pinned--
	}
	c.hostRemoveVM(src, vs)
	if dst.reserved > 0 {
		dst.reserved--
	}
	// The destination may itself have died while the VM was in flight
	// (e.g. a staging spot host revoked mid-copy). The VM cannot resume
	// there: with a backup checkpoint it restores onto a fresh host;
	// without one it reboots from its volume (memory state lost).
	if dst.inst.State == cloud.StateTerminated {
		now := c.sched.Now()
		vm.Ledger.Set(nestedvm.CondDown, now)
		withBackup := c.cfg.Mechanism.UsesBackup() && !vs.stateless
		if !withBackup && !vs.stateless {
			c.met.stateLost.Inc()
			if c.trace != nil {
				c.emit("vm", string(vm.ID), EventStateLost, fmt.Sprintf("destination %s died mid-migration", dst.inst.ID))
			}
		}
		c.maybeRetireHost(src)
		// The recovery chain below re-plumbs *from* the dead destination, so
		// its slab slot must survive until that chain's own completeMove.
		// Pin it; the unpin at the top of completeMove releases it.
		dst.pinned++
		vs.pinnedSrc = dst
		c.chooseDestinationRetry(vs, false, func(h *hostState, staged bool) {
			if withBackup {
				c.replumb(vs, dst, h, staged)
				return
			}
			c.sched.After(simkit.Seconds(c.cfg.RebootSeconds), "reboot", func() {
				c.moveLive(vs, dst, h)
			})
		})
		return
	}
	c.hostAddVM(dst, vs)
	vs.host = dst
	vm.Host = dst.inst.ID
	vs.phase = phaseRunning
	vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
	c.syncPoolOf(src)
	c.syncPoolOf(dst)
	kind := EventMigrated
	if dst.key.Market == cloud.MarketSpot {
		kind = EventReturned
	}
	if c.trace != nil {
		c.emit("vm", string(vm.ID), kind, "now on "+string(dst.inst.ID)+" ("+dst.key.String()+")")
	}

	if c.cfg.Mechanism.UsesBackup() {
		if dst.key.Market == cloud.MarketSpot {
			c.registerBackup(vs)
		} else {
			c.unregisterBackup(vs)
		}
	}
	c.maybeRetireHost(src)
	if vs.pendingRelease {
		vs.pendingRelease = false
		c.teardownVM(vs)
		return
	}
	// The destination may have been warned while the VM was in flight:
	// evacuate again with whatever window remains (same as startService).
	if dst.warned {
		deadline := dst.warnDeadline
		if deadline <= c.sched.Now() {
			deadline = c.sched.Now() + simkit.Second
		}
		vm.Revocations++
		c.met.revocations.Inc()
		if c.trace != nil {
			c.emit("vm", string(vm.ID), EventWarned, fmt.Sprintf("landed on already-warned host %s", dst.inst.ID))
		}
		c.migrateVM(vs, reasonRevocation, deadline)
	}
}

// runLiveEvacuation live-migrates a VM to an on-demand (or staging) host:
// the revocation path for the XenLive baseline, the proactive path for
// k×OD bidding, and staging second hops. With a deadline, the VM's memory
// state is lost if the pre-copy cannot finish in time.
func (c *Controller) runLiveEvacuation(vs *vmState, src *hostState, deadline simkit.Time, forceOD bool) {
	vm := vs.vm
	live, err := migration.SimulateLive(migration.LiveSpec{
		MemoryMB:     vm.Memory.SizeMB,
		DirtyMBs:     vm.Memory.DirtyMBs,
		BandwidthMBs: c.cfg.LiveBandwidthMBs,
	})
	if err != nil {
		live = migration.LiveResult{Total: simkit.Minute, Downtime: simkit.Second, Converged: true}
	}
	c.met.mig.RecordLive(live)
	start := c.sched.Now()
	c.chooseDestinationRetry(vs, forceOD, func(dst *hostState, _ bool) {
		now := c.sched.Now()
		copyDone := start + live.Total
		if now > copyDone {
			copyDone = now
		}
		if deadline == 0 || (live.Converged && copyDone <= deadline) {
			pauseAt := copyDone - live.Downtime
			if pauseAt < now {
				pauseAt = now
			}
			c.sched.At(pauseAt, "live-pause", func() {
				if vs.phase == phaseMigrating {
					vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
				}
			})
			c.sched.At(copyDone, "live-done", func() {
				// A deadline-free (proactive/predictive) migration can
				// still lose its source: a real warning may have arrived
				// mid-copy and the platform force-terminated it before
				// the pre-copy finished (the misprediction risk of §3.2).
				if deadline == 0 && src.inst.State == cloud.StateTerminated {
					c.met.predMisses.Inc()
					vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
					if c.cfg.Mechanism.UsesBackup() && !vs.stateless {
						// Continuous checkpointing saves the day: restore
						// from the backup server instead.
						c.replumb(vs, src, dst, false)
						return
					}
					// No checkpoint: memory state is gone; reboot.
					c.met.stateLost.Inc()
					c.emit("vm", string(vm.ID), EventStateLost, "predictive miss with no backup server")
					c.sched.After(simkit.Seconds(c.cfg.RebootSeconds), "reboot", func() {
						c.moveLive(vs, src, dst)
					})
					return
				}
				c.moveLive(vs, src, dst)
			})
			return
		}
		// Lost: the platform killed the source mid-copy. Memory state is
		// gone; the VM reboots from its network volume on the destination.
		c.met.stateLost.Inc()
		c.emit("vm", string(vm.ID), EventStateLost, "live migration exceeded the warning window")
		downAt := deadline
		if downAt < now {
			downAt = now
		}
		c.sched.At(downAt, "lost", func() {
			if vs.phase == phaseMigrating {
				vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
			}
		})
		rebootDone := downAt + simkit.Seconds(c.cfg.RebootSeconds)
		c.sched.At(rebootDone, "reboot", func() {
			c.moveLive(vs, src, dst)
		})
	})
}

// tryReturn considers moving an on-demand-hosted VM back to spot: it picks
// a market via the placement policy and commits the migration only if that
// market is calm (allocation dynamics, §4.3). Validating *before*
// migrateVM matters: migrateVM's side effects (cancelling a lazy-restore
// window, bumping counters) must not happen for a move that then aborts.
func (c *Controller) tryReturn(vs *vmState) {
	if vs.phase != phaseRunning {
		return
	}
	// Let an in-progress lazy restoration finish before moving again.
	if vs.lazyDegradeEvent.Pending() {
		return
	}
	// Return to the VM's home pool so the placement policy's distribution
	// stays stable; VMs without one (placed during a spike) ask the policy.
	target := vs.homePool
	if target.Type == "" {
		ctx := &PlacementContext{Requested: vs.vm.Type, Provider: c.prov, History: c.history, Rand: c.rng}
		natType, zone, err := c.cfg.Placement.Choose(ctx)
		if err != nil {
			// No viable spot destination this tick; the VM stays where it
			// is and the next monitor tick retries. Count the miss.
			c.met.destFails.Inc()
			return
		}
		target = PoolKey{Type: natType, Zone: zone, Market: cloud.MarketSpot}
	}
	// The target market itself must be calm: below the on-demand price and
	// past the return hold-down. Without this check a pool whose price
	// hovers above on-demand would ping-pong VMs between markets.
	m := c.history.index[spotmarket.MarketKey{Type: target.Type, Zone: target.Zone}]
	if m == nil || !c.marketCalm(m) {
		return
	}
	vs.returnTarget = target
	if vs.homePool.Type == "" {
		vs.homePool = target
	}
	c.migrateVM(vs, reasonReturn, 0)
}

// runLiveReturn live-migrates a VM from an on-demand host back to the spot
// pool selected by tryReturn.
func (c *Controller) runLiveReturn(vs *vmState, src *hostState) {
	vm := vs.vm
	abort := func() {
		// Spot became unavailable again between the calm check and the
		// acquisition; stay on-demand and undo the migration bookkeeping.
		// The registry counter stays monotonic: the start remains counted
		// and the abort is counted separately; Stats() nets them out.
		vs.phase = phaseRunning
		vm.Migrations--
		c.met.migAborted.Inc()
		c.emit("vm", string(vm.ID), "migration-abort", "spot target vanished; staying on-demand")
		if vm.Ledger.Condition() != nestedvm.CondNormal {
			vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
		}
	}
	key := vs.returnTarget
	if key.Type == "" {
		abort()
		return
	}
	live, lerr := migration.SimulateLive(migration.LiveSpec{
		MemoryMB:     vm.Memory.SizeMB,
		DirtyMBs:     vm.Memory.DirtyMBs,
		BandwidthMBs: c.cfg.LiveBandwidthMBs,
	})
	if lerr != nil {
		live = migration.LiveResult{Total: simkit.Minute, Downtime: simkit.Second, Converged: true}
	}
	start := c.sched.Now()
	c.acquireHost(key, vm.Type, vs, func(dst *hostState, err error) {
		if err != nil {
			abort()
			return
		}
		c.met.mig.RecordLive(live)
		now := c.sched.Now()
		copyDone := start + live.Total
		if now > copyDone {
			copyDone = now
		}
		pauseAt := copyDone - live.Downtime
		if pauseAt < now {
			pauseAt = now
		}
		c.sched.At(pauseAt, "live-pause", func() {
			if vs.phase == phaseMigrating {
				vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
			}
		})
		c.sched.At(copyDone, "live-done", func() {
			c.moveLive(vs, src, dst)
		})
	})
}

// moveLive finalizes a live relocation: the address and volume follow the
// VM (their re-plumbing overlaps the copy and adds no downtime beyond the
// stop-and-copy, matching the paper's treatment of live migration), and
// the source is voluntarily relinquished once empty.
func (c *Controller) moveLive(vs *vmState, src, dst *hostState) {
	vm := vs.vm
	// Move the address: unassign from source, then assign to destination.
	if vm.IP.IsValid() {
		addr := vm.IP
		reassign := func() {
			if dst.inst.State != cloud.StateTerminated {
				_ = c.prov.AssignIP(dst.inst.ID, addr, nil)
			}
		}
		if src.inst.State != cloud.StateTerminated && src.inst.HasIP(addr) {
			if err := c.prov.UnassignIP(src.inst.ID, addr, func(error) { reassign() }); err != nil {
				reassign()
			}
		} else {
			reassign()
		}
	}
	// Move the volume.
	if vm.Volume != "" {
		vol := vm.Volume
		attach := func() {
			if dst.inst.State != cloud.StateTerminated {
				_ = c.prov.AttachVolume(vol, dst.inst.ID, nil)
			}
		}
		if err := c.prov.DetachVolume(vol, func(error) { attach() }); err != nil {
			attach()
		}
	}
	c.completeMove(vs, src, dst)
}
