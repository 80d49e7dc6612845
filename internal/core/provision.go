package core

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/slab"
	"repro/internal/spotmarket"
)

// ServerOptions parameterises a nested VM request beyond the plain
// RequestServer call.
type ServerOptions struct {
	Customer string
	Type     string
	// Stateless declares that the service tolerates memory-state loss
	// (e.g. one web server of a replicated tier, §4.2). Stateless VMs run
	// without a backup server — saving its amortized cost — and reboot
	// from their network volume on a fresh host after a revocation.
	Stateless bool
}

// RequestServer provisions a new nested VM of the requested type for a
// customer, returning its id immediately. Provisioning proceeds
// asynchronously: the placement policy picks a spot pool, the controller
// acquires (or reuses) a native host, assigns a VPC address, creates and
// attaches a network volume, and registers the VM with a backup server when
// the mechanism requires one. The VM's service clock starts when it first
// runs.
func (c *Controller) RequestServer(customer, typeName string) (nestedvm.ID, error) {
	return c.RequestServerWithOptions(ServerOptions{Customer: customer, Type: typeName})
}

// RequestServerWithOptions is RequestServer with explicit options.
func (c *Controller) RequestServerWithOptions(opts ServerOptions) (nestedvm.ID, error) {
	typ, ok := c.prov.TypeByName(opts.Type)
	if !ok {
		return "", fmt.Errorf("core: unknown server type %q", opts.Type)
	}
	if !typ.HVM {
		return "", fmt.Errorf("core: type %q is not HVM-capable; the nested hypervisor requires HVM hosts", opts.Type)
	}
	// The VM's slices are cut to its type's catalog entry in the market
	// table (vmState.slotType), so the provider's catalog must list it.
	typeMarket := c.history.at(spotmarket.MarketKey{Type: typ.Name, Zone: c.homeZone})
	if typeMarket.typ.Name != typ.Name {
		return "", fmt.Errorf("core: type %q is missing from the provider's catalog", opts.Type)
	}
	// The VM's number is taken even if it is refused below.
	n := len(c.vms)
	c.vms = append(c.vms, nil)
	id := vmID(n)
	mem := nestedvm.DefaultMemory()
	mem.DirtyMBs = c.cfg.Workload.DirtyMBs
	vm, err := nestedvm.NewVM(id, opts.Customer, typ, mem)
	if err != nil {
		return "", err
	}
	vs := c.newVMState()
	vs.vm = vm
	vs.phase = phaseProvisioning
	vs.stateless = opts.Stateless
	vs.typeMarket = typeMarket
	vs.cust = c.customer(opts.Customer)
	c.vms[n] = vs
	c.met.vmsCreated.Inc()
	if c.trace != nil {
		c.trace.Keep(string(id))
		c.emit("vm", string(id), EventRequested, opts.Customer+" requested a "+opts.Type+" (stateless="+strconv.FormatBool(opts.Stateless)+")")
	}
	c.enter(vs, movePlace)
	c.placeNew(vs)
	return id, nil
}

// choosePool asks the placement policy for a spot pool for vs.
func (c *Controller) choosePool(vs *vmState) (string, cloud.Zone, error) {
	return c.cfg.Placement.Choose(&PlacementContext{Requested: vs.vm.Type, Provider: c.prov, History: c.history, Rand: c.rng})
}

// placeNew runs the placement policy and host acquisition for a new VM; placed
// takes over when the acquisition resolves. After three refusals the VM goes
// to an on-demand host of its own type. One released while it waited for this
// placement leaves here instead.
func (c *Controller) placeNew(vs *vmState) {
	if vs.pendingRelease {
		c.abandon(vs)
		return
	}
	for m := &vs.move; m.tries < 3; m.tries++ {
		if natType, zone, err := c.choosePool(vs); err == nil {
			c.acquireHost(PoolKey{Type: natType, Zone: zone, Market: cloud.MarketSpot}, vs.slotType(), vs)
			return
		}
	}
	c.acquireHost(PoolKey{Type: vs.vm.Type.Name, Zone: c.homeZone, Market: cloud.MarketOnDemand}, vs.slotType(), vs)
}

// placed continues a new VM's placement with the outcome of its host
// acquisition.
func (c *Controller) placed(vs *vmState, h *hostState, err error) {
	m := &vs.move
	m.dst = h
	fallback := m.tries >= 3
	switch {
	case vs.pendingRelease:
		c.abandon(vs)
	case err != nil && fallback:
		// Nothing left to try; park and retry placement later.
		c.met.destFails.Inc()
		c.stepAfter(vs, c.cfg.MonitorInterval, "replace", stepPlace)
	case err != nil:
		// Spot acquisition failed (e.g. price spike making the bid
		// invalid); retry, eventually landing on-demand.
		m.tries++
		c.placeNew(vs)
	default:
		if !fallback {
			c.setHome(vs, h.pool.market)
		}
		c.install(vs, nil)
	}
}

// giveBack returns the slot reserved for a new VM on its record's dst. The
// record remembers the host by handle — nothing holds it from here on: the
// retry is likely to take it again, and abandon must not leave it empty.
func (c *Controller) giveBack(m *move) {
	h := m.dst
	h.reserved--
	c.hostFreed(h)
	m.dst, m.gaveBack = nil, h.slot
}

// abandon ends the chain of a new VM released before it landed, at a point
// where it has nothing in flight: a reserved slot, if it has one, goes back,
// and the host with it if that leaves it empty.
func (c *Controller) abandon(vs *vmState) {
	m := &vs.move
	if m.dst != nil {
		c.giveBack(m)
	}
	if h := c.hostSlab.Get(m.gaveBack); h != nil {
		c.maybeRetireHost(h)
	}
	c.enter(vs, moveIdle)
	vs.move = move{}
	vs.pendingRelease = false
	c.teardownVM(vs)
}

// hostUnits is the number of slot-type slices the controller packs onto a
// host: plain vCPU/memory slicing by default, additionally network-capped
// under Config.NetworkAwareSlicing.
func (c *Controller) hostUnits(host, slot cloud.InstanceType) int {
	if c.cfg.NetworkAwareSlicing {
		return host.CompatibleUnits(slot)
	}
	return host.Units(slot)
}

// pendingAcq is an in-flight native host acquisition. Concurrent placements
// for the same pool share one acquisition until its slots are spoken for
// (the paper "reserves the additional slot in order to rapidly allocate ...
// a subsequent customer request"). Its waiters are VM handles: what each
// does with the host is read off the VM when the launch lands
// (hostAcquired). Records, waiter buffers and the launch callback bound to
// each record are recycled through Controller.acqFree.
type pendingAcq struct {
	c        *Controller
	pool     *poolState
	slotType *cloud.InstanceType // see vmState.slotType
	capacity int
	waiters  []slab.Handle
	fn       cloud.InstanceCallback // finish, bound once
}

// acquireHost finds or creates a host with a free slot of slotType in the
// pool key names, on behalf of vs: hostAcquired receives the host with one
// slot reserved for the VM (released by installing it or decrementing
// reserved), or the error.
func (c *Controller) acquireHost(key PoolKey, slotType *cloud.InstanceType, vs *vmState) {
	if key.Market != cloud.MarketSpot && key.Market != cloud.MarketOnDemand {
		c.hostAcquired(vs, nil, fmt.Errorf("core: unknown market %v", key.Market))
		return
	}
	natType, ok := c.prov.TypeByName(key.Type)
	if !ok {
		c.hostAcquired(vs, nil, fmt.Errorf("core: unknown native type %q", key.Type))
		return
	}
	if c.hostUnits(natType, *slotType) <= 0 {
		c.hostAcquired(vs, nil, fmt.Errorf("core: native type %s cannot host %s", key.Type, slotType.Name))
		return
	}
	c.acquireIn(c.poolFor(key, natType), slotType, vs)
}

// acquireIn is acquireHost for a pool already resolved: one whose native
// type is known to host slotType.
func (c *Controller) acquireIn(pool *poolState, slotType *cloud.InstanceType, vs *vmState) {
	// Reuse a running host with a free slot and matching slice size.
	if h := c.freeHost(pool, slotType); h != nil {
		h.reserved++
		c.hostAcquired(vs, h, nil)
		return
	}
	// Join the oldest in-flight acquisition with spare capacity; one that
	// fills leaves the joinable list.
	for i, acq := range pool.joinable {
		if acq.slotType.Name != slotType.Name {
			continue
		}
		acq.waiters = append(acq.waiters, vs.slot)
		if len(acq.waiters) >= acq.capacity {
			pool.joinable = slices.Delete(pool.joinable, i, i+1)
		}
		return
	}
	// Start a new acquisition.
	var acq *pendingAcq
	if n := len(c.acqFree); n > 0 {
		acq, c.acqFree = c.acqFree[n-1], c.acqFree[:n-1]
	} else {
		acq = &pendingAcq{c: c}
		acq.fn = acq.finish
	}
	acq.pool, acq.slotType, acq.capacity = pool, slotType, c.hostUnits(pool.typ, *slotType)
	acq.waiters = append(acq.waiters[:0], vs.slot)
	if acq.capacity > 1 {
		pool.joinable = append(pool.joinable, acq)
	}
	key := pool.key
	switch key.Market {
	case cloud.MarketSpot:
		od, err := c.prov.OnDemandPrice(key.Type)
		if err != nil {
			acq.finish(nil, err)
			return
		}
		bid := c.cfg.Bidding.Bid(od)
		pool.bid = bid
		c.met.bidPlaced(pool, float64(bid))
		if c.trace != nil {
			c.emit("market", key.String(), "bid", fmt.Sprintf("bid=%v od=%v", bid, od))
		}
		c.prov.RequestSpot(key.Type, key.Zone, bid, acq.fn)
	case cloud.MarketOnDemand:
		c.prov.RunOnDemand(key.Type, key.Zone, acq.fn)
	}
}

// finish is the acquisition's launch callback: it books the new host and
// hands every waiter its slot — or the error.
func (acq *pendingAcq) finish(inst *cloud.Instance, err error) {
	c, pool := acq.c, acq.pool
	if i := slices.Index(pool.joinable, acq); i >= 0 {
		pool.joinable = slices.Delete(pool.joinable, i, i+1)
	}
	var h *hostState
	if err == nil {
		h = c.newHostState()
		h.inst = inst
		h.seq = instanceSeq(inst.ID)
		h.role = roleHost
		h.slotType = acq.slotType
		h.capacity = acq.capacity
		c.hostIndex[inst] = h.slot
		c.addPoolHost(pool, h)
		h.rent = c.rent(inst, rentalHost)
		c.maybeScrubRentals()
		c.met.hostAcquired(pool)
		c.met.syncPool(pool)
		if c.trace != nil {
			c.emit("host", string(inst.ID), "acquired", "pool="+pool.key.String()+" capacity="+strconv.Itoa(acq.capacity))
		}
		if acq.capacity > 1 {
			c.met.sliced.Inc()
		}
	}
	// Every slot is reserved before any waiter hears of the host: one released
	// meanwhile gives its slot back, and must not find the host empty with the
	// others still to come. No waiter's VM can have been recycled: a release
	// waits for the chain to end (pendingRelease).
	if h != nil {
		h.reserved += len(acq.waiters)
	}
	for _, w := range acq.waiters {
		c.hostAcquired(c.vmSlab.Get(w), h, err)
	}
	if h != nil {
		// Unreserved slots go straight into the free-candidate set so the
		// next placement finds them without a pool scan.
		c.hostFreed(h)
	}
	// Only now: a waiter may have started an acquisition of its own.
	acq.pool = nil
	c.acqFree = append(c.acqFree, acq)
}

// freeHost returns a running, unwarned host with a free slot of the given
// slice size, preferring fuller hosts (best-fit packing), with launch
// order as a deterministic tie-break. It scans the pool's free-candidate
// set — an unordered superset of the hosts with free slots — pruning
// entries that have since filled, been warned or died. The set arrives in
// event order, but the (free, seq, id) comparator picks exactly the host
// the historical id-ordered scan's strict less chose: the lowest-id member
// of the fullest tier.
func (c *Controller) freeHost(pool *poolState, slotType *cloud.InstanceType) *hostState {
	var best *hostState
	cands := pool.freeCands
	kept := cands[:0]
	for _, hh := range cands {
		h := c.hostSlab.Get(hh.Slot)
		if h == nil {
			continue // marked dead by a retire; drop the entry
		}
		if h.warned || h.free() <= 0 || h.inst.State != cloud.StateRunning {
			h.inFreeSet = false
			continue
		}
		h.freeIdx = len(kept)
		kept = append(kept, hh)
		if h.slotType.Name != slotType.Name {
			continue
		}
		if best == nil || h.free() < best.free() ||
			(h.free() == best.free() && hostLess(h, best)) {
			best = h
		}
	}
	pool.freeCands = kept
	return best
}

// poolFor returns the pool for key, creating it in its market's record on
// first use. key.Market is one of the two contract types (acquireHost
// rejects anything else first); typ is the catalog entry of key.Type.
func (c *Controller) poolFor(key PoolKey, typ cloud.InstanceType) *poolState {
	m := c.history.at(spotmarket.MarketKey{Type: key.Type, Zone: key.Zone})
	pool := m.pools[key.Market]
	if pool == nil {
		// hostLess breaks seq ties by instance id: foreign id formats all
		// parse to seq 0.
		pool = &poolState{key: key, label: key.String(), market: m, typ: typ, hosts: slab.NewRefList(c.hostSlab, setPoolIdx, hostLess)}
		m.pools[key.Market] = pool
	}
	return pool
}

// install puts a new VM's address and volume on the slot reserved for it, one
// provider operation in flight per phase: placed starts it, and each
// operation's completion — vs.onOp — re-enters it with the outcome.
func (c *Controller) install(vs *vmState, err error) {
	vm, m := vs.vm, &vs.move
	switch {
	case err != nil: // the operation in flight failed
	case m.phase == movePlace:
		c.enter(vs, moveAddress)
		if vm.IP, err = c.prov.AllocateIP(); err != nil {
			c.replaceLater(vs)
			return
		}
		if err = c.prov.AssignIP(m.dst.inst.ID, vm.IP, vs.onOp); err == nil {
			return
		}
	case m.phase == moveAddress:
		var vol *cloud.Volume
		if vol, err = c.prov.CreateVolume(8); err == nil {
			vm.Volume = vol.ID
			c.enter(vs, moveVolume)
			if err = c.prov.AttachVolume(vol.ID, m.dst.inst.ID, vs.onOp); err == nil {
				return
			}
		}
	default:
		// Address and volume are on: the service interval opens.
		vm.Ledger.Start(c.sched.Now())
		c.land(vs)
		return
	}
	// A failed installation gives back what it took — the address (assigned
	// or not: best effort), the volume it created — and is retried.
	_ = c.prov.ReleaseIP(vm.IP)
	vm.IP = cloud.Addr{}
	if vm.Volume != "" {
		_ = c.prov.DeleteVolume(vm.Volume)
		vm.Volume = ""
	}
	if vs.pendingRelease {
		c.abandon(vs)
		return
	}
	if !errors.Is(err, cloud.ErrBadState) && !errors.Is(err, cloud.ErrCapacity) {
		// Unexpected failures still retry, but are counted.
		c.met.destFails.Inc()
	}
	c.replaceLater(vs)
}

// replaceLater gives the reserved slot back and parks the VM on a placement
// retry.
func (c *Controller) replaceLater(vs *vmState) {
	c.giveBack(&vs.move)
	c.enter(vs, movePlace)
	c.stepAfter(vs, c.cfg.MonitorInterval, "re-place", stepPlace)
}

// land puts the VM into service on the record's destination and ends the
// record: where a new VM's installation and every move arrive. A move's src
// has already let the VM go (completeMove); a new VM has none.
func (c *Controller) land(vs *vmState) {
	vm := vs.vm
	src, dst := vs.move.src, vs.move.dst
	dst.reserved--
	c.hostAddVM(dst, vs)
	vs.host = dst
	vm.Host = dst.inst.ID
	vs.phase = phaseRunning
	vs.epoch++
	c.enter(vs, moveIdle)
	vs.move = move{}
	kind, verb := EventPlaced, "running"
	if src != nil {
		vm.Ledger.Set(nestedvm.CondNormal, c.sched.Now())
		c.syncPoolOf(src)
		kind, verb = EventMigrated, "now"
		if dst.pool.key.Market == cloud.MarketSpot {
			kind = EventReturned
		}
	}
	c.syncPoolOf(dst)
	if c.trace != nil {
		c.emit("vm", string(vm.ID), kind, verb+" on "+string(dst.inst.ID)+" ("+dst.pool.label+")")
	}
	// Spot-hosted VMs under a backup-using mechanism continuously
	// checkpoint to a backup server; on-demand hosts rely on live
	// migration and need none (§4.2).
	if c.cfg.Mechanism.UsesBackup() {
		if dst.pool.key.Market == cloud.MarketSpot {
			c.registerBackup(vs)
		} else {
			c.unregisterBackup(vs)
		}
	}
	if src != nil {
		c.maybeRetireHost(src)
	}
	if vs.pendingRelease {
		vs.pendingRelease = false
		c.teardownVM(vs)
		return
	}
	// The destination may have been warned while the VM was in flight:
	// evacuate with whatever is left of the window.
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

// registerBackup assigns the VM a backup server, provisioning more backup
// capacity on demand. Stateless VMs never register: their state is
// reconstructible, so checkpointing would be pure overhead (§4.2).
func (c *Controller) registerBackup(vs *vmState) {
	if vs.backup != nil || vs.stateless {
		return
	}
	// Spread same-pool VMs across backup servers (§4.2) so one pool-wide
	// storm does not concentrate its restore load on a single server.
	// Both callers have just placed the VM on a spot pool's host.
	srv, err := c.backups.AssignSpread(string(vs.vm.ID), vs.vm.Memory.DirtyMBs, vs.host.pool.label)
	if err != nil {
		// Should not happen (pool auto-provisions); run unprotected and
		// count it.
		c.met.destFails.Inc()
		return
	}
	vs.backup = srv
	vs.vm.BackupServer = srv.ID()
}

// unregisterBackup removes the VM's checkpoint stream and retires the
// backup server (and its rented native instance) once it drains.
func (c *Controller) unregisterBackup(vs *vmState) {
	if vs.backup == nil {
		return
	}
	srv := c.backups.Release(string(vs.vm.ID))
	vs.backup = nil
	vs.vm.BackupServer = ""
	if srv != nil && srv.VMs() == 0 {
		if err := c.backups.Remove(srv); err == nil {
			if h, ok := c.backupHosts[srv.ID()]; ok {
				delete(c.backupHosts, srv.ID())
				_ = c.retire(h.inst, h.rent)
				delete(c.hostIndex, h.inst)
				h.inst = nil
				c.hostSlab.Free(h.slot)
			}
		}
	}
}

// backupType is the native type rented for each backup server: the
// m3.xlarge of the prototype (§5).
const backupType = cloud.M3XLarge

// onBackupProvisioned rents a native on-demand instance to stand behind a
// newly provisioned backup server.
func (c *Controller) onBackupProvisioned(srv *backup.Server) {
	//lint:ignore hotpath one launch per backup server, a cold path
	c.prov.RunOnDemand(backupType, c.homeZone, func(inst *cloud.Instance, err error) {
		if err != nil {
			// Cost-accounting only; the logical backup server still works.
			c.met.destFails.Inc()
			return
		}
		n := c.rent(inst, rentalBackup)
		if !slices.Contains(c.backups.Servers(), srv) {
			// The server drained and was removed while its instance was
			// launching: nothing else would ever terminate it.
			_ = c.retire(inst, n)
			return
		}
		h := c.newHostState()
		h.inst = inst
		h.seq = instanceSeq(inst.ID)
		h.rent = n
		h.role = roleBackup
		c.hostIndex[inst] = h.slot
		c.backupHosts[srv.ID()] = h
		c.maybeScrubRentals()
	})
}

// ReleaseServer relinquishes a nested VM: the customer-initiated teardown.
func (c *Controller) ReleaseServer(id nestedvm.ID) error {
	vs := c.lookupVM(id)
	if vs == nil {
		return fmt.Errorf("core: unknown VM %s", id)
	}
	switch {
	case vs.phase == phaseReleased || vs.pendingRelease:
		return fmt.Errorf("core: VM %s already released", id)
	case vs.phase == phaseRunning:
		c.teardownVM(vs)
	default:
		// A chain holds it — placing, installing or moving it: the chain
		// tears it down where it next has nothing in flight.
		vs.pendingRelease = true
	}
	return nil
}

// teardownVM removes a VM from service and frees its resources. No chain
// holds the VM: it is running, or a new VM's chain has just let it go with
// no host, address or volume.
func (c *Controller) teardownVM(vs *vmState) {
	vm, h := vs.vm, vs.host
	vs.phase = phaseReleased
	vm.Ledger.Close(c.sched.Now()) // abandon's VM has no interval to close
	c.met.vmsReleased.Inc()
	c.emit("vm", string(vm.ID), EventReleased, "released by customer")
	if h != nil {
		c.unregisterBackup(vs)
		c.endLazyWindow(vs)
		// Retiring may forget the host and recycle its slot; the instance
		// itself outlives it for the address plumbing below.
		hinst := h.inst
		c.hostRemoveVM(h, vs)
		vs.host = nil
		c.syncPoolOf(h)
		// Relinquish empty hosts to stop paying for them.
		c.maybeRetireHost(h)
		// The address and the volume come off the host, then go back to the
		// platform: followers with no destination.
		f := c.newFollower(nil, vm.IP, "")
		if hinst.State == cloud.StateTerminated || !hinst.HasIP(vm.IP) ||
			c.prov.UnassignIP(hinst.ID, vm.IP, f.fn) != nil {
			f.land(nil)
		}
		f = c.newFollower(nil, cloud.Addr{}, vm.Volume)
		if c.prov.DetachVolume(vm.Volume, f.fn) != nil {
			f.land(nil)
		}
		vm.IP, vm.Volume = cloud.Addr{}, ""
	}
	if c.cfg.RecycleReleased {
		c.freeVMSlot(vs)
	}
}

// maybeRetireHost terminates a host that no longer serves any VM. Pinned
// hosts — terminated migration destinations an in-flight recovery chain
// still reads — stay tracked until the chain unpins them.
func (c *Controller) maybeRetireHost(h *hostState) {
	if h.role != roleHost || len(h.vms) > 0 || h.reserved > 0 || h.pinned > 0 {
		return
	}
	if err := c.retire(h.inst, h.rent); err == nil {
		c.forgetHost(h)
	}
}

func (c *Controller) forgetHost(h *hostState) {
	delete(c.hostIndex, h.inst)
	pool := h.pool
	c.dropPoolHost(h)
	if h.inFreeSet {
		if h.freeIdx < len(pool.freeCands) && pool.freeCands[h.freeIdx].Slot == h.slot {
			pool.freeCands[h.freeIdx].Slot = slab.Handle{}
		}
		h.inFreeSet = false
	}
	pool.vmCount -= len(h.vms)
	c.met.syncPool(pool)
	if c.trace != nil {
		c.emit("host", string(h.inst.ID), "retired", "pool="+pool.label)
	}
	// Recycle the slot: nothing references this state anymore (no resident
	// VMs, no reservations, no pins).
	for i := range h.vms {
		h.vms[i] = nil
	}
	h.vms = h.vms[:0]
	h.inst = nil
	c.hostSlab.Free(h.slot)
}

// Shutdown drains the derivative cloud: every nested VM is released — one a
// chain still holds, when that chain ends, so let the event loop run on — and
// every rented native instance (hosts, spares, backup hosts) is returned to
// the platform. The final Report remains queryable afterwards. Call it when
// decommissioning the controller; it is not required for correctness.
func (c *Controller) Shutdown() {
	c.Settle()
	c.shutdown = true
	c.stopMonitor()
	for _, id := range c.vmIDsSorted() {
		_ = c.ReleaseServer(id) // refused by the ones already released
	}
	// Spares are not retired by teardown; return them explicitly.
	for _, h := range c.spares {
		_ = c.retire(h.inst, h.rent)
	}
	c.spares = nil
	// Backup hosts linger only if their logical server still has VMs
	// registered (there are none after the teardowns above), but guard
	// against stragglers.
	for id, h := range c.backupHosts {
		_ = c.retire(h.inst, h.rent)
		delete(c.backupHosts, id)
	}
}
