package core

import (
	"errors"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// Tick n of the monitor falls at tickAt(n), tick 1 being the controller's
// creation (never sampled). doc.go, "Monitor ticks", explains which ticks
// are events and how the others are replayed.

// startMonitor sets the tick grid and arms the first tick if a sweep can
// already act on it.
func (c *Controller) startMonitor() {
	c.tickFn = c.monitorTick
	c.tickBase = c.sched.Now()
	c.history.sync = c.syncMarket
	c.armMonitor()
}

// needTicks reports whether a tick can act: a host sits in an on-demand pool
// (the return sweep's candidates), or the run evacuates spot pools on price
// (k×OD bidding's proactive sweep, the predictor).
func (c *Controller) needTicks() bool {
	return c.odHosts > 0 || c.cfg.Bidding.Proactive() || c.cfg.Predictive
}

// tickAt returns when tick n falls.
func (c *Controller) tickAt(n uint64) simkit.Time {
	return c.tickBase + simkit.Time(n-1)*c.cfg.MonitorInterval
}

// armMonitor schedules the next tick when a sweep can act on it and none is
// pending or firing. A tick at this very instant is still ahead (catchUp
// takes only earlier ones), so it is scheduled now and pops after everything
// already queued for the instant.
func (c *Controller) armMonitor() {
	if c.shutdown || c.ticking || c.monitorEvent.Pending() || !c.needTicks() {
		return
	}
	c.catchUp(c.sched.Now() - 1)
	c.monitorEvent = c.sched.At(c.tickAt(c.tick+1), "monitor", c.tickFn)
}

// catchUp accounts the ticks up to through that nobody fired. A pending tick
// is the first unaccounted one by construction, so there is nothing to do
// while one is; after Shutdown no tick counts.
func (c *Controller) catchUp(through simkit.Time) {
	if through < c.tickAt(c.tick+1) || c.shutdown || c.monitorEvent.Pending() {
		return
	}
	if n := uint64((through-c.tickBase)/c.cfg.MonitorInterval) + 1; n > c.tick {
		c.met.monitorTick.Add(float64(n - c.tick))
		c.tick = n
	}
}

// monitorTick is one armed pass of the periodic loop: it triggers proactive
// migrations under k×OD bidding and predictive evacuations, and migrates VMs
// back to spot pools once a price spike has abated for the hold-down period
// (§4.3's allocation dynamics). The sweeps walk the table in (type, zone)
// order, on-demand pool before spot, so a tick looks up no market or pool by
// key and — once the price windows are full — allocates nothing.
func (c *Controller) monitorTick() {
	c.monitorEvent = simkit.Event{}
	if c.shutdown {
		return
	}
	c.catchUp(c.sched.Now())
	// Arming waits for the sweeps, so the next tick takes its place in the
	// queue after whatever they scheduled.
	c.ticking = true
	if c.cfg.Bidding.Proactive() {
		c.proactiveSweep()
	}
	if c.cfg.Predictive {
		c.predictiveSweep()
	}
	c.returnSweep()
	c.ticking = false
	c.armMonitor()
}

// stopMonitor cancels the pending monitor tick (idempotent).
func (c *Controller) stopMonitor() {
	c.sched.Cancel(c.monitorEvent)
	c.monitorEvent = simkit.Event{}
}

// Settle brings the tick accounting up to now: the ticks no event fired
// count in spotcheck_monitor_ticks_total, and every probed market the
// controller has not read since the last tick is asked its price there, so
// the provider's price-change counters read what a per-tick sample of every
// market would have left. Report, Stats, History and Shutdown settle first;
// an embedder that exposes the metrics registry between runs of the event
// loop (spotcheckd) calls it after each run.
func (c *Controller) Settle() {
	c.catchUp(c.sched.Now())
	if c.tick < 2 {
		return
	}
	t := c.tickAt(c.tick)
	for _, m := range c.history.markets {
		if m.noSpot || m.synced == c.tick {
			continue
		}
		if _, _, err := c.prov.SpotPriceAt(m.key.Type, m.key.Zone, t); errors.Is(err, cloud.ErrNotFound) {
			m.noSpot = true
		}
	}
}

// syncMarket replays into m the ticks it has missed, from the provider's
// price history: the samples, stamps and window a per-tick sample would have
// left. A price the history shows held over several ticks is one question
// and one window run. Inside an event only ticks before now are settled: a
// tick at this instant is still to fire, or has fired and is accounted.
func (c *Controller) syncMarket(m *market) {
	c.catchUp(c.sched.Now() - 1)
	if m.synced >= c.tick {
		return
	}
	k, last := max(m.synced+1, 2), c.tick
	m.synced = last
	for k <= last && !m.noSpot {
		t := c.tickAt(k)
		price, next, err := c.prov.SpotPriceAt(m.key.Type, m.key.Zone, t)
		if err != nil {
			// The catalog is larger than the traced market set, and a
			// provider's ErrNotFound is permanent: stop asking. Anything
			// else is a provider fault worth surfacing, and worth retrying
			// on the next tick.
			if errors.Is(err, cloud.ErrNotFound) {
				m.noSpot = true
			} else {
				c.met.provErrs.Inc()
			}
			k++
			continue
		}
		// The price holds for every tick before next.
		end := last
		if next <= c.tickAt(last) {
			end = k + uint64((next-1-t)/c.cfg.MonitorInterval)
		}
		m.window.addRun(float64(price), int(end-k+1))
		if end > k {
			m.prev, m.prevSampled = price, end-1
		} else {
			m.prev, m.prevSampled = m.price, m.sampled
		}
		m.price, m.sampled = price, end
		if price >= m.typ.OnDemand {
			m.lastAboveOD, m.everAboveOD = c.tickAt(end), true
		}
		k = end + 1
	}
}

// spotPool returns m's spot pool for an evacuation sweep, or nil when there
// is nothing to judge or walk: no hosts, or no price sample this tick.
func (c *Controller) spotPool(m *market) *poolState {
	pool := m.pools[cloud.MarketSpot]
	if pool == nil || pool.hosts.Len() == 0 {
		return nil
	}
	if c.syncMarket(m); m.sampled != c.tick {
		return nil
	}
	return pool
}

// proactiveSweep live-migrates VMs off spot pools whose price has crossed
// the on-demand price but not yet the (k×OD) bid — avoiding the revocation
// entirely at the cost of paying above-OD spot prices briefly.
func (c *Controller) proactiveSweep() {
	for _, m := range c.history.markets {
		pool := c.spotPool(m)
		if pool == nil || m.price <= m.typ.OnDemand || m.price > pool.bid {
			continue
		}
		for _, hh := range pool.hosts.Ordered() {
			h := c.hostSlab.Get(hh.Slot)
			if h == nil || !h.inHosts || h.warned {
				continue
			}
			for _, vs := range h.vms {
				if vs.phase == phaseRunning {
					c.migrateVM(vs, reasonProactive, 0)
				}
			}
		}
	}
}

// predictiveThreshold is the fraction of the on-demand price at which a
// rising spot price triggers a predictive evacuation.
const predictiveThreshold = 0.8

// predictiveSweep evacuates spot pools whose price is rising toward the
// bid: price at or above predictiveThreshold×on-demand AND above the
// previous tick's sample. Unlike proactiveSweep (which waits for the price
// to actually cross the on-demand price under a k×OD bid), the predictor
// acts on the trend and therefore works even when the bid equals the
// on-demand price — at the risk of mispredicting (§3.2).
func (c *Controller) predictiveSweep() {
	for _, m := range c.history.markets {
		pool := c.spotPool(m)
		if pool == nil {
			continue
		}
		if m.prevSampled != c.tick-1 || m.price <= m.prev {
			continue // not rising
		}
		if float64(m.price) < predictiveThreshold*float64(m.typ.OnDemand) {
			continue // not near the bid yet
		}
		for _, hh := range pool.hosts.Ordered() {
			h := c.hostSlab.Get(hh.Slot)
			if h == nil || !h.inHosts || h.warned {
				continue // dead entry, or too late: the warning already fired
			}
			for _, vs := range h.vms {
				if vs.phase == phaseRunning {
					c.met.predictive.Inc()
					c.migrateVM(vs, reasonProactive, 0)
				}
			}
		}
	}
}

// returnSweep migrates VMs hosted on on-demand servers back to spot pools
// once prices have stayed below on-demand for the hold-down period. It walks
// only on a tick where a candidate can go (see returnsPossible), and so
// where some market is calm.
func (c *Controller) returnSweep() {
	if c.testHookReturnSweep != nil {
		c.testHookReturnSweep()
	}
	if !c.returnsPossible() {
		return
	}
	for _, m := range c.history.markets {
		pool := m.pools[cloud.MarketOnDemand]
		if pool == nil {
			continue
		}
		for _, hh := range pool.hosts.Ordered() {
			h := c.hostSlab.Get(hh.Slot)
			if h == nil || !h.inHosts || h.role != roleHost {
				continue
			}
			for _, vs := range h.vms {
				if vs.phase != phaseRunning || !c.spotCalmFor(vs) {
					continue
				}
				c.tryReturn(vs)
			}
		}
	}
}

// returnsPossible reports whether the return sweep's walk can reach
// tryReturn's placement policy or a migration this tick. A candidate with a
// home goes only to its home market, so only a calm home lets it go; one
// without a home needs some calm market. When neither holds, every
// candidate the walk visits stops at spotCalmFor or at its home's calm
// check, and the walk changes nothing.
func (c *Controller) returnsPossible() bool {
	if c.unhomed > 0 && c.someMarketCalm() {
		return true
	}
	for _, m := range c.history.markets {
		if m.parked > 0 && c.marketCalm(m) {
			return true
		}
	}
	return false
}

// someMarketCalm reports whether any market is calm this tick.
func (c *Controller) someMarketCalm() bool {
	for _, m := range c.history.markets {
		if c.marketCalm(m) {
			return true
		}
	}
	return false
}

// spotCalmFor reports whether the placement policy's candidate markets have
// been calm (below on-demand) long enough to return this VM to spot. It
// checks the markets the policy could choose; a single calm candidate is
// enough since the return-time Choose call may pick it. The answer depends
// only on the VM's requested type, so it is kept for the tick on that type's
// record — the return sweep asks once per requested type instead of once
// per VM.
func (c *Controller) spotCalmFor(vs *vmState) bool {
	slot := vs.typeMarket
	if slot.calmTick == c.tick {
		return slot.calm
	}
	// A market qualifies when calm and able to host the requested type.
	slot.calmTick, slot.calm = c.tick, false
	for _, m := range c.history.markets {
		if c.marketCalm(m) && c.hostUnits(m.typ, vs.vm.Type) > 0 {
			slot.calm = true
			break
		}
	}
	return slot.calm
}

// marketCalm reports whether a spot market, sampled this tick, is priced
// below the on-demand price and has been for at least the return hold-down.
// With the predictor enabled, a market loitering at or above the prediction
// threshold also counts as hot — otherwise the return sweep would undo
// every predictive evacuation while the price plateaus just below
// on-demand.
func (c *Controller) marketCalm(m *market) bool {
	c.syncMarket(m)
	od := m.typ.OnDemand
	if m.sampled != c.tick || m.price >= od {
		return false
	}
	if c.cfg.Predictive && float64(m.price) >= predictiveThreshold*float64(od) {
		return false
	}
	return !m.everAboveOD || c.sched.Now()-m.lastAboveOD >= c.cfg.ReturnHoldDown
}

// ---------------------------------------------------------------------------
// Hot spares (§4.3)

// hotSpareType is the native type of a hot spare (§4.3).
const hotSpareType = cloud.M3Medium

// requestSpare launches an idle on-demand server to stand ready for
// instant failover.
func (c *Controller) requestSpare() {
	if c.shutdown {
		return
	}
	c.sparePending++
	//lint:ignore hotpath one launch per hot spare, a cold path
	c.prov.RunOnDemand(hotSpareType, c.homeZone, func(inst *cloud.Instance, err error) {
		c.sparePending--
		if c.shutdown {
			if inst != nil {
				_ = c.prov.Terminate(inst.ID, nil)
			}
			return
		}
		if err != nil {
			// Retry later; spares are an optimization, not a correctness
			// requirement.
			//lint:ignore hotpath runs only after a failed spare launch
			c.sched.After(c.cfg.MonitorInterval, "spare-retry", func() { c.requestSpare() })
			return
		}
		h := c.newHostState()
		h.inst = inst
		h.seq = instanceSeq(inst.ID)
		h.role = roleHotSpare
		c.hostIndex[inst] = h.slot
		h.rent = c.rent(inst, rentalSpare)
		c.maybeScrubRentals()
		c.spares = append(c.spares, h)
	})
}

// takeSpare converts a ready hot spare into a live on-demand host sliced
// for slotType, and replenishes the spare pool.
func (c *Controller) takeSpare(slotType *cloud.InstanceType) *hostState {
	for i, h := range c.spares {
		capacity := c.hostUnits(h.inst.Type, *slotType)
		if capacity < 1 || h.inst.State != cloud.StateRunning {
			continue
		}
		c.spares = append(c.spares[:i], c.spares[i+1:]...)
		h.role = roleHost
		h.slotType = slotType
		h.capacity = capacity
		key := PoolKey{Type: h.inst.Type.Name, Zone: h.inst.Zone, Market: cloud.MarketOnDemand}
		c.addPoolHost(c.poolFor(key, h.inst.Type), h)
		c.hostFreed(h)
		c.requestSpare()
		return h
	}
	return nil
}

// SparesReady reports how many hot spares are currently idle and running.
func (c *Controller) SparesReady() int {
	n := 0
	for _, h := range c.spares {
		if h.inst.State == cloud.StateRunning {
			n++
		}
	}
	return n
}
