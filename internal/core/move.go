package core

import (
	"fmt"

	"repro/internal/backup"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/slab"
)

// movePhase is where a move in flight rests: what it is waiting for. Every
// variant of the chain — a new VM's placement and installation (a move with
// no source), bounded-time, stateless, live evacuation, live return, staging
// hop, the recovery after a destination died — runs on the same phases. enter
// counts every transition taken; the audit (invariants_test.go) holds the
// counts against the legal set.
type movePhase uint8

const (
	moveIdle movePhase = iota // no move in flight
	// A new VM. Its record has no src; dst is the slot reserved for it.
	movePlace   // waiting for a placement retry or a host acquisition
	moveAddress // its address on its way onto dst
	moveVolume  // its volume on its way onto dst
	// Source side. The destination search runs beside these phases; the
	// record's dst says whether it has ended.
	moveDrain   // bounded, ramped: degraded but running, checkpointing ever faster until the final pause
	moveFlush   // bounded: paused, the last residue on its way to the backup server
	moveFlushed // bounded: state safe on the backup server; only a destination is missing
	moveServe   // stateless: serving on the warned source until the platform kills it
	moveKilled  // stateless: source gone; only a destination is missing
	moveCopy    // live: pre-copy to the destination, or still looking for one
	// §3.5 re-plumbing, one provider operation in flight per phase.
	moveDetach
	moveAttach
	moveUnassign
	moveAssign
	moveRestore // skeleton or full restore from the backup server, or a stateless boot
	moveReboot  // memory state lost: rebooting from the volume on the destination
	moveRecover // the destination died under the VM: looking for another
	numMovePhases
)

// phases builds a set of move phases.
func phases(ps ...movePhase) (set uint32) {
	for _, p := range ps {
		set |= 1 << p
	}
	return set
}

// moveStep names what an argument-carrying event tells advance has happened.
type moveStep uint8

const (
	stepPause        moveStep = iota // "pause-deadline", "pause": begin the final flush pause
	stepFlushDone                    // "flush-done"
	stepKill                         // "stateless-kill": the platform took the source
	stepRetry                        // "dest-retry": look for a destination again
	stepDown                         // "live-pause", "lost": the VM stops running
	stepLiveDone                     // "live-done": the pre-copy has finished
	stepReboot                       // "reboot": the VM is back up from its volume
	stepRestored                     // "restore", "boot": the VM resumes on the destination
	stepPrefetchDone                 // "prefetch-done": the lazy-restore window closes
	stepStagingHop                   // "staging-hop": leave the staging host
	stepPlace                        // "replace", "re-place": retry a new VM's placement
	numMoveSteps
)

// moveAccepts is the other half of the table: the phases in which each step
// means something. A step that arrives in any other phase is left over, and
// advance drops it (Controller.stepsDropped counts such steps).
var moveAccepts = [numMoveSteps]uint32{
	stepPause:        phases(moveDrain),
	stepFlushDone:    phases(moveFlush),
	stepKill:         phases(moveServe),
	stepRetry:        phases(moveDrain, moveFlush, moveFlushed, moveServe, moveKilled, moveCopy, moveRecover),
	stepDown:         phases(moveCopy, moveReboot),
	stepLiveDone:     phases(moveCopy),
	stepReboot:       phases(moveReboot),
	stepRestored:     phases(moveRestore),
	stepPrefetchDone: phases(moveIdle),
	stepStagingHop:   phases(moveIdle),
	stepPlace:        phases(movePlace),
}

// move is the state of one relocation in flight, resident on its vmState.
// What used to be captured flags is read off the phase and dst: paused is
// moveFlush or later, flushDone is moveFlushed, sourceDead is moveKilled, and
// the re-plumbing starts when the source side has reached moveFlushed or
// moveKilled and dst is set, whichever happens second.
//
// src and dst are pointers, not handles: a move's source keeps the VM in its
// resident list (or is pinned, once it is a dead destination) and its
// destination holds a reservation, so neither slot can be recycled while the
// record names it.
type move struct {
	phase    movePhase
	reason   migrationReason
	staged   bool  // dst is a staging slot: a second hop follows the restore
	forceOD  bool  // the search bypasses spares and staging (a hop's final home)
	pinned   bool  // src is a terminated destination this chain pinned
	tries    uint8 // movePlace: placements refused so far; the fourth goes on demand
	src, dst *hostState
	gaveBack slab.Handle // movePlace: the host whose slot was given back (see giveBack)
	deadline simkit.Time // the warning's deadline; 0 for an unconstrained live move
	started  simkit.Time
	drainEnd simkit.Time // bounded, ramped: when the dirty residue reaches its floor
	flush    migration.FlushResult
	live     migration.LiveResult
	restore  migration.RestoreResult
	srv      *backup.Server // the server the restore reads from
	// wake is the timer that ends the current phase, in the phases nothing
	// but time ends (the destination search's retry timer runs beside it).
	wake simkit.Event
}

// enter moves vs's move to phase to, counting the transition.
func (c *Controller) enter(vs *vmState, to movePhase) {
	c.moveSeen[vs.move.phase][to]++
	vs.move.phase = to
}

// stepArg packs (slot, epoch, step) into an event argument.
func stepArg(vs *vmState, step moveStep) uint64 {
	return uint64(vs.slot.Index())<<32 | uint64(vs.epoch&0xffffff)<<8 | uint64(step)
}

// stepAt schedules step for vs at t. The event carries no closure and no
// pointer: advance finds the VM by slot and drops the step if the epoch has
// moved on.
func (c *Controller) stepAt(vs *vmState, t simkit.Time, label string, step moveStep) simkit.Event {
	return c.sched.AtArg(t, label, c.advanceFn, stepArg(vs, step))
}

// stepAfter schedules step for vs d from now.
func (c *Controller) stepAfter(vs *vmState, d simkit.Time, label string, step moveStep) simkit.Event {
	return c.stepAt(vs, c.sched.Now()+d, label, step)
}

// wakeAfter schedules the step that ends the current phase.
func (c *Controller) wakeAfter(vs *vmState, d simkit.Time, label string, step moveStep) {
	vs.move.wake = c.stepAfter(vs, d, label, step)
}

// advance is the one function behind every event the chain schedules: it
// resolves the VM, drops the step if it is stale — the epoch moved on, or
// the move is in no phase that accepts it — and otherwise takes it.
func (c *Controller) advance(arg uint64) {
	vs := c.vmSlab.At(uint32(arg >> 32))
	step := moveStep(arg)
	if vs == nil || vs.epoch&0xffffff != uint32(arg>>8)&0xffffff || moveAccepts[step]&(1<<vs.move.phase) == 0 {
		c.stepsDropped[step]++
		return
	}
	m := &vs.move
	vm := vs.vm
	switch step {
	case stepPause:
		c.enter(vs, moveFlush)
		vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
		if c.trace != nil {
			c.emit("vm", string(vm.ID), EventPaused, fmt.Sprintf("final flush pause (%v)", m.flush.Downtime))
		}
		c.wakeAfter(vs, m.flush.Downtime, "flush-done", stepFlushDone)
	case stepFlushDone:
		c.enter(vs, moveFlushed)
		if m.dst != nil {
			c.replumb(vs)
		}
	case stepKill:
		vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
		c.enter(vs, moveKilled)
		if m.dst != nil {
			c.replumb(vs)
		}
	case stepRetry:
		if !c.shutdown {
			c.seekDestination(vs)
		}
	case stepDown:
		vm.Ledger.Set(nestedvm.CondDown, c.sched.Now())
	case stepLiveDone:
		c.liveDone(vs)
	case stepReboot:
		c.moveLive(vs)
	case stepRestored:
		c.restored(vs)
	case stepPrefetchDone:
		vs.lazyDegradeEvent = simkit.Event{}
		c.endLazyWindow(vs)
		if vs.phase == phaseRunning {
			vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
		}
	case stepStagingHop:
		// The epoch matched, so the VM has not left the staging host since
		// the timer was set; an aborted return in between changes nothing.
		if vs.phase == phaseRunning {
			c.migrateVM(vs, reasonStagingHop, 0)
		}
	case stepPlace:
		m.tries = 0
		c.placeNew(vs)
	}
}
