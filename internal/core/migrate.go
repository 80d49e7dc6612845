package core

import (
	"fmt"

	"repro/internal/backup"
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
	numReasons
)

func (r migrationReason) String() string {
	if r < 0 || r >= numReasons {
		return fmt.Sprintf("reason(%d)", int(r))
	}
	return [numReasons]string{"revocation", "proactive", "return", "staging-hop"}[r]
}

// onRevocationWarning reacts to the native platform revoking a spot host:
// every resident nested VM must be off the server (or at least safe on its
// backup server) before the deadline.
func (c *Controller) onRevocationWarning(w cloud.RevocationWarning) {
	h := c.lookupHost(w.Instance)
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
		c.recordStorm(h.pool.key, running)
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
	//lint:ignore hotpath one closure per revocation batch, not per VM: the observation waits out the instant's cascade
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
	if vs.phase != phaseRunning || vs.host == nil {
		return
	}
	src := vs.host
	vs.phase = phaseMigrating
	vs.vm.Migrations++
	c.met.migStarted[reason].Inc()
	if c.trace != nil {
		c.emit("vm", string(vs.vm.ID), "migration-start", "reason="+reason.String()+" host="+string(src.inst.ID))
	}
	c.endLazyWindow(vs)
	vs.move = move{reason: reason, src: src, deadline: deadline, started: c.sched.Now()}
	switch reason {
	case reasonRevocation:
		switch {
		case vs.stateless:
			c.startStateless(vs)
		case c.cfg.Mechanism.UsesBackup():
			c.startBounded(vs)
		default:
			c.startLive(vs)
		}
	case reasonProactive:
		c.startLive(vs)
	case reasonReturn:
		// Returns are committed by tryReturn, which validates the target
		// market before calling migrateVM; by the time we get here the
		// move is definitely happening.
		c.startReturn(vs)
	case reasonStagingHop:
		vs.move.forceOD = true
		c.startLive(vs)
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

// The migration model's fixed parameters (docs/ARCHITECTURE.md, "Model
// constants").
const (
	// migrationBound is the bounded-time migration guarantee: the paper's
	// conservative 30 s, well inside EC2's cloud.WarningWindow (§3.2).
	migrationBound = 30 * simkit.Second
	// checkpointMBs is each VM's bandwidth to its backup server (§3.2).
	checkpointMBs = 40.0
	// liveMBs is the host-to-host bandwidth of a pre-copy live migration
	// (§3.2): an m3.medium's network share.
	liveMBs = 60.0
	// bootTime is how long a stateless VM takes to boot from its network
	// volume on a new host after a revocation (§4.2).
	bootTime = 30 * simkit.Second
	// rebootTime is the recovery time of a VM whose memory state is lost
	// (a live migration overrun): it restarts from its network volume
	// (§3.2).
	rebootTime = 150 * simkit.Second
)

// sizeFlush sizes the final flush of vs's bounded-time migration with
// warning left before the forced kill. The residue is the worst case: the
// checkpointer lets the dirty set grow to the bound's threshold between
// checkpoints (conservative, like the paper's 30 s bound). The revocation
// path and EstimateMigration both size a flush here.
func (c *Controller) sizeFlush(vs *vmState, warning simkit.Time) (residueMB float64, flush migration.FlushResult, err error) {
	dirty := vs.vm.Memory.DirtyMBs
	residueMB = migration.CheckpointSpec{BandwidthMBs: checkpointMBs, Bound: migrationBound}.ResidueMB()
	flush, err = migration.SimulateFlush(migration.FlushSpec{
		ResidueMB:    residueMB,
		DirtyMBs:     dirty,
		BandwidthMBs: checkpointMBs,
		Warning:      warning,
		Ramped:       c.cfg.Mechanism.Optimized(),
	})
	return residueMB, flush, err
}

// startBounded begins the revocation path of the four backup-based
// mechanisms: flush the dirty residue within the bound (Yank pause, or
// SpotCheck's ramped degradation + short pause) while a destination is
// acquired in parallel; whichever ends second starts the re-plumbing, and
// the restore (full or lazy) follows it.
func (c *Controller) startBounded(vs *vmState) {
	now := c.sched.Now()
	vm, m := vs.vm, &vs.move
	warning := m.deadline - now
	if warning <= 0 {
		warning = simkit.Second
	}
	residue, flush, err := c.sizeFlush(vs, warning)
	if err != nil {
		// Mis-configuration; treat as an immediate pause of the bound.
		flush = migration.FlushResult{Downtime: migrationBound, Total: migrationBound, Completed: true}
	}
	c.met.mig.RecordFlush(residue, flush)
	m.flush = flush

	if !c.cfg.Mechanism.Optimized() {
		// Yank: pause immediately on the warning and push the whole
		// residue; the VM is down from the warning onward.
		vm.Ledger.Set(nestedvm.CondDown, now)
		c.enter(vs, moveFlush)
		c.wakeAfter(vs, flush.Total, "flush-done", stepFlushDone)
		c.seekDestination(vs)
		return
	}

	// SpotCheck's ramped checkpointing: the VM keeps *running* (degraded)
	// at rising checkpoint frequency, which holds the dirty residue at its
	// floor once the drain completes. The final pause is deferred until
	// the destination is up — or until the deadline forces it — so the
	// down window shrinks to pause + re-plumbing + restore (~23 s, §5).
	vm.Ledger.Set(nestedvm.CondDegraded, now)
	m.drainEnd = now + flush.DegradedTime
	// State safety: the final pause must still complete inside the window.
	pauseBy := max(m.deadline-flush.Downtime-simkit.Second, m.drainEnd)
	c.enter(vs, moveDrain)
	m.wake = c.stepAt(vs, pauseBy, "pause-deadline", stepPause)
	c.seekDestination(vs)
}

// startStateless handles revocation of a stateless VM: no memory state to
// save, so the VM serves until the platform kills the source, then reboots
// from its network volume on a fresh host. Downtime is the gap between the
// forced termination and boot completing on the destination.
func (c *Controller) startStateless(vs *vmState) {
	m := &vs.move
	m.deadline = max(m.deadline, c.sched.Now())
	c.enter(vs, moveServe)
	m.wake = c.stepAt(vs, m.deadline, "stateless-kill", stepKill)
	c.seekDestination(vs)
}

// seekDestination picks the new host for a displaced VM according to the
// destination policy (forceOD bypasses spares and staging for final homes)
// and hands it to destinationReady, now or when its acquisition lands. It
// is retried every monitor interval until one appears: a displaced VM's
// state is safe on its backup server, so waiting loses availability but
// never state ("there is never a risk of losing nested VM state").
func (c *Controller) seekDestination(vs *vmState) {
	if !vs.move.forceOD {
		switch c.cfg.Destination {
		case DestHotSpare:
			if h := c.takeSpare(vs.slotType()); h != nil {
				h.reserved++
				c.destinationReady(vs, h, false)
				return
			}
			// No spare ready: fall back to a lazy on-demand request.
		case DestStaging:
			if h := c.findStagingSlot(vs); h != nil {
				h.reserved++
				c.destinationReady(vs, h, true)
				return
			}
		}
	}
	// The VM's own type, on demand, in the home zone. Once that pool
	// exists the request goes straight to it, with no key to hash.
	if pool := vs.typeMarket.pools[cloud.MarketOnDemand]; pool != nil {
		c.acquireIn(pool, vs.slotType(), vs)
		return
	}
	c.acquireHost(PoolKey{Type: vs.vm.Type.Name, Zone: c.homeZone, Market: cloud.MarketOnDemand}, vs.slotType(), vs)
}

// hostAcquired receives the outcome of a host acquisition for the VM that
// asked: a host with one slot reserved for it, or an error. What happens
// next is read off the VM's record — a new VM continues its placement, a
// return commits or aborts, any other move has its destination or retries.
func (c *Controller) hostAcquired(vs *vmState, h *hostState, err error) {
	switch m := &vs.move; {
	case m.phase == movePlace:
		c.placed(vs, h, err)
	case m.reason == reasonReturn && m.phase == moveCopy:
		if err != nil {
			c.abortReturn(vs)
			return
		}
		c.met.mig.RecordLive(m.live)
		c.destinationReady(vs, h, false)
	case err != nil:
		c.met.destFails.Inc()
		c.stepAfter(vs, c.cfg.MonitorInterval, "dest-retry", stepRetry)
	default:
		c.destinationReady(vs, h, false)
	}
}

// destinationReady records the move's destination and continues the chain
// from wherever the source side has got to.
func (c *Controller) destinationReady(vs *vmState, h *hostState, staged bool) {
	m := &vs.move
	m.dst = h
	switch m.phase {
	case moveDrain, moveFlush, moveFlushed:
		m.staged = staged
		// Pause as soon as the drain allows: the deadline's pause timer
		// moves earlier, or stays where it is when the drain itself ends no
		// sooner. The deadline may already have forced the pause, and
		// finished the flush, while the destination was still coming up;
		// then there is nothing to move.
		if at := max(c.sched.Now(), m.drainEnd); m.phase == moveDrain && at < m.wake.At() {
			c.sched.Cancel(m.wake)
			m.wake = c.stepAt(vs, at, "pause", stepPause)
		}
		if m.phase == moveFlushed {
			c.replumb(vs)
		}
	case moveKilled:
		c.replumb(vs)
	case moveCopy:
		c.copyTo(vs)
	case moveRecover:
		if c.cfg.Mechanism.UsesBackup() && !vs.stateless {
			m.staged = staged
			c.replumb(vs)
			return
		}
		c.enter(vs, moveReboot)
		c.wakeAfter(vs, rebootTime, "reboot", stepReboot)
	}
}

// findStagingSlot looks for spare capacity on an existing, unwarned,
// running host (any pool) whose slice size matches: the one with the least
// instance id, in one pass.
func (c *Controller) findStagingSlot(vs *vmState) *hostState {
	var best *hostState
	for inst, slot := range c.hostIndex {
		h := c.hostSlab.Get(slot)
		if h == nil || h.role != roleHost || h.warned || h.free() <= 0 {
			continue
		}
		if h.inst.State != cloud.StateRunning || h.slotType.Name != vs.vm.Type.Name || h == vs.host {
			continue
		}
		if best == nil || inst.ID < best.inst.ID {
			best = h
		}
	}
	return best
}

// replumb starts the paper's §3.5 sequence once the VM is paused and the
// destination is up: detach the volume and address from the source, attach
// both to the destination, then restore the VM from its backup server. The
// VM is down throughout (Table 1's ~23 s of EC2 operations plus restore
// downtime). Each operation's completion — vs.onOp — re-enters replumbNext.
func (c *Controller) replumb(vs *vmState) {
	c.enter(vs, moveDetach)
	// Detach from the source; the platform auto-detaches if the source was
	// already force-terminated, so an error here means "already done".
	if err := c.prov.DetachVolume(vs.vm.Volume, vs.onOp); err != nil {
		c.replumbNext(vs)
	}
}

// opLanded is vs.onOp: the provider operation of the record's phase is over.
// A failed install step aborts the installation; a failed re-plumbing step
// is a step done (see replumb).
func (c *Controller) opLanded(vs *vmState, err error) {
	if p := vs.move.phase; p == moveAddress || p == moveVolume {
		c.install(vs, err)
	} else {
		c.replumbNext(vs)
	}
}

// replumbNext runs when the operation of the current re-plumbing phase has
// landed or been refused — either way that step is over — and issues the
// next one.
func (c *Controller) replumbNext(vs *vmState) {
	vm, m := vs.vm, &vs.move
	for {
		var err error
		switch m.phase {
		case moveDetach:
			c.enter(vs, moveAttach)
			err = c.prov.AttachVolume(vm.Volume, m.dst.inst.ID, vs.onOp)
		case moveAttach:
			c.enter(vs, moveUnassign)
			if src := m.src.inst; src.State == cloud.StateTerminated || !src.HasIP(vm.IP) {
				continue
			}
			err = c.prov.UnassignIP(m.src.inst.ID, vm.IP, vs.onOp)
		case moveUnassign:
			c.enter(vs, moveAssign)
			// A failure here is extremely rare (the destination died); the
			// VM still restores, the address follows later.
			err = c.prov.AssignIP(m.dst.inst.ID, vm.IP, vs.onOp)
		case moveAssign:
			c.restoreOnDestination(vs)
			return
		default:
			return
		}
		if err == nil {
			return
		}
	}
}

// restoreOnDestination resumes the VM on the destination from its backup
// server, or — for stateless VMs — boots it afresh from its network volume.
func (c *Controller) restoreOnDestination(vs *vmState) {
	m := &vs.move
	lazy := c.cfg.Mechanism.Lazy()
	c.enter(vs, moveRestore)
	if vs.stateless {
		c.wakeAfter(vs, bootTime, "boot", stepRestored)
		return
	}
	srv := vs.backup
	// A backup mechanism's VM always has a server; without one, assume an
	// unloaded default server's bandwidth.
	readMBs := backup.BaseReadMBs
	if srv != nil {
		readMBs = srv.BeginRestore(lazy)
	}
	res := c.sizeRestore(vs, readMBs)
	c.met.mig.RecordRestore(lazy, res)
	m.srv, m.restore = srv, res
	c.wakeAfter(vs, res.Downtime, "restore", stepRestored)
}

// sizeRestore sizes vs's restore (full or lazy, per the mechanism) at
// readMBs of per-VM read bandwidth from its backup server. A spec the model
// rejects restores in 1 s. The revocation path and EstimateMigration both
// size a restore here.
func (c *Controller) sizeRestore(vs *vmState, readMBs float64) migration.RestoreResult {
	res, err := migration.SimulateRestore(migration.RestoreSpec{
		MemoryMB:   vs.vm.Memory.SizeMB,
		SkeletonMB: vs.vm.Memory.SkeletonMB,
		ReadMBs:    readMBs,
		Lazy:       c.cfg.Mechanism.Lazy(),
	})
	if err != nil {
		return migration.RestoreResult{Downtime: simkit.Second}
	}
	return res
}

// restored ends the restore phase: the VM lands, and whatever outlives the
// move — the lazy-restore window, the staging hop — is set going.
func (c *Controller) restored(vs *vmState) {
	m := &vs.move
	// completeMove ends the record, or starts the next move in it. (A
	// stateless boot leaves all three zero.)
	srv, tail, staged := m.srv, m.restore.DegradedTime, m.staged
	c.completeMove(vs)
	if c.cfg.Mechanism.Lazy() && tail > 0 && vs.phase == phaseRunning {
		vs.vm.Ledger.Set(nestedvm.CondDegraded, c.sched.Now())
		vs.restoreSrv = srv
		vs.lazyDegradeEvent = c.stepAfter(vs, tail, "prefetch-done", stepPrefetchDone)
	} else if srv != nil {
		srv.EndRestore()
	}
	if staged && vs.phase == phaseRunning {
		// Staging placement: schedule the second hop to a fresh on-demand
		// server once the dust settles.
		c.stepAfter(vs, c.cfg.MonitorInterval, "staging-hop", stepStagingHop)
	}
}

// completeMove ends a migration: the source lets the VM go, and the VM
// lands on the move's destination — unless that died under it.
func (c *Controller) completeMove(vs *vmState) {
	vm, m := vs.vm, &vs.move
	src, dst := m.src, m.dst
	// A terminated source pinned by a prior dst-died recovery (below) is
	// released here: the chain that pinned it always funnels into exactly
	// one completeMove with that host as src.
	if m.pinned {
		m.pinned = false
		src.pinned--
	}
	c.hostRemoveVM(src, vs)
	if dst.inst.State != cloud.StateTerminated {
		c.land(vs)
		return
	}
	// The destination died while the VM was in flight (e.g. a staging spot
	// host revoked mid-copy). The VM cannot resume there: with a backup
	// checkpoint it restores onto a fresh host; without one it reboots from
	// its volume (memory state lost).
	dst.reserved--
	vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
	if !c.cfg.Mechanism.UsesBackup() && !vs.stateless {
		c.met.stateLost.Inc()
		if c.trace != nil {
			c.emit("vm", string(vm.ID), EventStateLost, fmt.Sprintf("destination %s died mid-migration", dst.inst.ID))
		}
	}
	c.maybeRetireHost(src)
	// The recovery re-plumbs *from* the dead destination, so its slab
	// slot must survive until that chain's own completeMove. Pin it;
	// the unpin at the top of completeMove releases it.
	dst.pinned++
	m.src, m.dst, m.pinned, m.forceOD = dst, nil, true, false
	c.enter(vs, moveRecover)
	c.seekDestination(vs)
}

// simulateLive sizes a live pre-copy of vs's memory.
func (c *Controller) simulateLive(vs *vmState) migration.LiveResult {
	live, err := migration.SimulateLive(migration.LiveSpec{
		MemoryMB:     vs.vm.Memory.SizeMB,
		DirtyMBs:     vs.vm.Memory.DirtyMBs,
		BandwidthMBs: liveMBs,
	})
	if err != nil {
		live = migration.LiveResult{Total: simkit.Minute, Downtime: simkit.Second, Converged: true}
	}
	return live
}

// startLive live-migrates a VM to an on-demand (or staging) host: the
// revocation path for the XenLive baseline, the proactive path for k×OD
// bidding, and staging second hops. With a deadline, the VM's memory state
// is lost if the pre-copy cannot finish in time.
func (c *Controller) startLive(vs *vmState) {
	vs.move.live = c.simulateLive(vs)
	c.met.mig.RecordLive(vs.move.live)
	c.enter(vs, moveCopy)
	c.seekDestination(vs)
}

// copyTo times the rest of a live move now that its destination is known.
func (c *Controller) copyTo(vs *vmState) {
	m := &vs.move
	now := c.sched.Now()
	copyDone := max(m.started+m.live.Total, now)
	if m.deadline == 0 || (m.live.Converged && copyDone <= m.deadline) {
		c.stepAt(vs, max(copyDone-m.live.Downtime, now), "live-pause", stepDown)
		m.wake = c.stepAt(vs, copyDone, "live-done", stepLiveDone)
		return
	}
	// Lost: the platform killed the source mid-copy. Memory state is
	// gone; the VM reboots from its network volume on the destination.
	c.met.stateLost.Inc()
	c.emit("vm", string(vs.vm.ID), EventStateLost, "live migration exceeded the warning window")
	downAt := max(m.deadline, now)
	c.enter(vs, moveReboot)
	c.stepAt(vs, downAt, "lost", stepDown)
	m.wake = c.stepAt(vs, downAt+rebootTime, "reboot", stepReboot)
}

// liveDone ends a pre-copy that was given time to finish.
func (c *Controller) liveDone(vs *vmState) {
	vm, m := vs.vm, &vs.move
	// A deadline-free (proactive/predictive) migration can still lose its
	// source: a real warning may have arrived mid-copy and the platform
	// force-terminated it before the pre-copy finished (the misprediction
	// risk of §3.2). A return's on-demand source is never taken.
	if m.deadline == 0 && m.src.inst.State == cloud.StateTerminated {
		c.met.predMisses.Inc()
		vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
		if c.cfg.Mechanism.UsesBackup() && !vs.stateless {
			// Continuous checkpointing saves the day: restore from the
			// backup server instead.
			c.replumb(vs)
			return
		}
		// No checkpoint: memory state is gone; reboot.
		c.met.stateLost.Inc()
		c.emit("vm", string(vm.ID), EventStateLost, "predictive miss with no backup server")
		c.enter(vs, moveReboot)
		c.wakeAfter(vs, rebootTime, "reboot", stepReboot)
		return
	}
	c.moveLive(vs)
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
	m := vs.homeMarket
	if m == nil {
		natType, zone, err := c.choosePool(vs)
		if err != nil {
			// No viable spot destination this tick; the VM stays where it
			// is and the next monitor tick retries. Count the miss.
			c.met.destFails.Inc()
			return
		}
		m = c.history.index[spotmarket.MarketKey{Type: natType, Zone: zone}]
	}
	// The target market itself must be calm: below the on-demand price and
	// past the return hold-down. Without this check a pool whose price
	// hovers above on-demand would ping-pong VMs between markets.
	if m == nil || !c.marketCalm(m) {
		return
	}
	c.setHome(vs, m)
	c.migrateVM(vs, reasonReturn, 0)
}

// startReturn live-migrates a VM from an on-demand host back to the spot
// pool of the home market tryReturn has just validated and set.
func (c *Controller) startReturn(vs *vmState) {
	m := vs.homeMarket
	vs.move.live = c.simulateLive(vs)
	c.enter(vs, moveCopy)
	c.acquireHost(PoolKey{Type: m.key.Type, Zone: m.key.Zone, Market: cloud.MarketSpot}, vs.slotType(), vs)
}

// abortReturn undoes a return whose spot target became unavailable between
// the calm check and the acquisition: the VM stays on-demand. The registry
// counter stays monotonic: the start remains counted and the abort is
// counted separately; Stats() nets them out.
func (c *Controller) abortReturn(vs *vmState) {
	vm := vs.vm
	vs.phase = phaseRunning
	if vs.move.phase != moveIdle {
		c.enter(vs, moveIdle)
	}
	vs.move = move{}
	vm.Migrations--
	c.met.migAborted.Inc()
	c.emit("vm", string(vm.ID), "migration-abort", "spot target vanished; staying on-demand")
	if vm.Ledger.Condition() != nestedvm.CondNormal {
		vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
	}
}

// follower is one leg of a live move's or a teardown's address or volume
// re-plumbing: the operation that takes the resource off the source, and
// what must follow it — onto the destination, or, with no destination, back
// to the platform. It outlives the move that started it — completeMove runs
// before the first operation lands, and the VM may be warned and moving
// again by then — so the destination travels with the follower, as the
// native instance itself (a host's slot may be recycled by then, an instance
// never is). Records and their bound callbacks are recycled through
// Controller.followFree.
type follower struct {
	c    *Controller
	dst  *cloud.Instance // nil: release the address, delete the volume
	addr cloud.Addr      // the address to assign, or
	vol  cloud.VolumeID  // the volume to attach
	fn   cloud.Callback  // land, bound once
}

func (c *Controller) newFollower(dst *cloud.Instance, addr cloud.Addr, vol cloud.VolumeID) *follower {
	var f *follower
	if n := len(c.followFree); n > 0 {
		f, c.followFree = c.followFree[n-1], c.followFree[:n-1]
	} else {
		f = &follower{c: c}
		f.fn = f.land
	}
	f.dst, f.addr, f.vol = dst, addr, vol
	return f
}

// land puts the resource on the destination, or gives it back, once it is
// off the source. Best effort, like the move or teardown it trails.
func (f *follower) land(error) {
	c, dst, addr, vol := f.c, f.dst, f.addr, f.vol
	f.dst = nil
	c.followFree = append(c.followFree, f)
	switch {
	case dst == nil && vol != "":
		_ = c.prov.DeleteVolume(vol)
	case dst == nil:
		_ = c.prov.ReleaseIP(addr)
	case dst.State == cloud.StateTerminated:
		// The destination is gone: nothing to land on.
	case vol != "":
		_ = c.prov.AttachVolume(vol, dst.ID, nil)
	default:
		_ = c.prov.AssignIP(dst.ID, addr, nil)
	}
}

// moveLive finalizes a live relocation: the address and volume follow the
// VM (their re-plumbing overlaps the copy and adds no downtime beyond the
// stop-and-copy, matching the paper's treatment of live migration), and
// the source is voluntarily relinquished once empty.
func (c *Controller) moveLive(vs *vmState) {
	vm := vs.vm
	src, dst := vs.move.src.inst, vs.move.dst.inst
	if vm.IP.IsValid() {
		f := c.newFollower(dst, vm.IP, "")
		if src.State == cloud.StateTerminated || !src.HasIP(vm.IP) ||
			c.prov.UnassignIP(src.ID, vm.IP, f.fn) != nil {
			f.land(nil)
		}
	}
	if vm.Volume != "" {
		f := c.newFollower(dst, cloud.Addr{}, vm.Volume)
		if c.prov.DetachVolume(vm.Volume, f.fn) != nil {
			f.land(nil)
		}
	}
	c.completeMove(vs)
}
