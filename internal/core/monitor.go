package core

import (
	"errors"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// startMonitor launches the controller's periodic loop: it samples spot
// prices into History (feeding the probabilistic policies), triggers
// proactive migrations under k×OD bidding, and migrates VMs back to spot
// pools once a price spike has abated for the hold-down period (§4.3's
// allocation dynamics).
func (c *Controller) startMonitor() {
	c.lastAboveOD = map[spotmarket.MarketKey]simkit.Time{}
	c.prevPrice = map[spotmarket.MarketKey]cloud.USD{}
	c.prevPriceSpare = map[spotmarket.MarketKey]cloud.USD{}
	c.tickPrices = map[spotmarket.MarketKey]marketSample{}
	c.calmCache = map[string]bool{}
	// Enumerate the observable market grid once: providers' catalogs and
	// zone sets are fixed for their lifetime, so re-fetching (and copying)
	// them every tick only churns the heap.
	for _, typ := range c.prov.Catalog() {
		if !typ.HVM {
			continue
		}
		for _, zone := range c.prov.Zones() {
			c.observable = append(c.observable, observableMarket{
				key: spotmarket.MarketKey{Type: typ.Name, Zone: zone},
				od:  typ.OnDemand,
			})
		}
	}
	var tick func()
	tick = func() {
		c.monitorEvent = simkit.Event{}
		if c.shutdown {
			return
		}
		c.met.monitorTick.Inc()
		prev := c.snapshotPrices()
		c.observePrices()
		if c.cfg.Bidding.Proactive() {
			c.proactiveSweep()
		}
		if c.cfg.Predictive.Enabled {
			c.predictiveSweep(prev)
		}
		c.returnSweep()
		c.monitorEvent = c.sched.After(c.cfg.MonitorInterval, "monitor", tick)
	}
	c.monitorEvent = c.sched.After(c.cfg.MonitorInterval, "monitor", tick)
}

// stopMonitor cancels the pending monitor tick (idempotent).
func (c *Controller) stopMonitor() {
	c.sched.Cancel(c.monitorEvent)
	c.monitorEvent = simkit.Event{}
}

// snapshotPrices hands the previous tick's samples to the caller and swaps
// in the cleared spare map for this tick's observations. The two maps
// alternate tick over tick — a zero-allocation double buffer instead of a
// fresh copy every tick. The returned map is only valid until the next
// tick swaps it back in.
func (c *Controller) snapshotPrices() map[spotmarket.MarketKey]cloud.USD {
	prev := c.prevPrice
	clear(c.prevPriceSpare)
	c.prevPrice = c.prevPriceSpare
	c.prevPriceSpare = prev
	return prev
}

// observableMarket is one (HVM type, zone) pair of the provider's market
// grid, with the type's on-demand price resolved up front.
type observableMarket struct {
	key spotmarket.MarketKey
	od  cloud.USD
}

// observePrices samples every observable market's spot price. Markets with
// price at or above the on-demand price have their lastAboveOD stamped for
// the return hold-down. The samples also fill the tick's market snapshot,
// so the sweeps that follow read each market's price from the snapshot
// instead of re-walking the provider's trace cursors per pool or per VM.
// The market grid itself comes from the startup-cached observable list, so
// a steady-state tick allocates nothing here.
func (c *Controller) observePrices() {
	now := c.sched.Now()
	clear(c.tickPrices)
	clear(c.calmCache)
	for _, m := range c.observable {
		price, err := c.prov.SpotPrice(m.key.Type, m.key.Zone)
		if err != nil {
			// No trace for this type/zone pair is expected — the
			// catalog is larger than the traced market set. Anything
			// else is a provider fault worth surfacing.
			if !errors.Is(err, cloud.ErrNotFound) {
				c.met.provErrs.Inc()
			}
			continue
		}
		c.history.ObservePrice(m.key, price)
		c.prevPrice[m.key] = price
		c.tickPrices[m.key] = marketSample{price: price, od: m.od, odOK: true}
		if price >= m.od {
			c.lastAboveOD[m.key] = now
		}
	}
}

// proactiveSweep live-migrates VMs off spot pools whose price has crossed
// the on-demand price but not yet the (k×OD) bid — avoiding the revocation
// entirely at the cost of paying above-OD spot prices briefly.
func (c *Controller) proactiveSweep() {
	for _, key := range c.sortedPoolKeys() {
		if key.Market != cloud.MarketSpot {
			continue
		}
		pool := c.pools[key]
		if pool.hosts.Len() == 0 {
			continue
		}
		s, ok := c.tickPrices[spotmarket.MarketKey{Type: key.Type, Zone: key.Zone}]
		if !ok || !s.odOK {
			continue
		}
		if s.price <= s.od || s.price > pool.bid {
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

// predictiveSweep evacuates spot pools whose price is rising toward the
// bid: price at or above threshold×on-demand AND above the previous sample.
// Unlike proactiveSweep (which waits for the price to actually cross the
// on-demand price under a k×OD bid), the predictor acts on the trend and
// therefore works even when the bid equals the on-demand price — at the
// risk of mispredicting (§3.2).
func (c *Controller) predictiveSweep(prev map[spotmarket.MarketKey]cloud.USD) {
	threshold := c.cfg.Predictive.threshold()
	for _, key := range c.sortedPoolKeys() {
		if key.Market != cloud.MarketSpot {
			continue
		}
		pool := c.pools[key]
		if pool.hosts.Len() == 0 {
			continue
		}
		mkey := spotmarket.MarketKey{Type: key.Type, Zone: key.Zone}
		s, ok := c.tickPrices[mkey]
		if !ok || !s.odOK {
			continue
		}
		last, seen := prev[mkey]
		if !seen || s.price <= last {
			continue // not rising
		}
		if float64(s.price) < threshold*float64(s.od) {
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
// once prices have stayed below on-demand for the hold-down period.
func (c *Controller) returnSweep() {
	for _, key := range c.sortedPoolKeys() {
		if key.Market != cloud.MarketOnDemand {
			continue
		}
		pool := c.pools[key]
		for _, hh := range pool.hosts.Ordered() {
			h := c.hostSlab.Get(hh.Slot)
			if h == nil || !h.inHosts || h.role != roleHost {
				continue
			}
			for _, vs := range h.vms {
				if vs.phase != phaseRunning {
					continue
				}
				if !c.spotCalmFor(vs) {
					continue
				}
				c.tryReturn(vs)
			}
		}
	}
}

// spotCalmFor reports whether the placement policy's candidate markets have
// been calm (below on-demand) long enough to return this VM to spot. It
// checks the markets the policy could choose; a single calm candidate is
// enough since the return-time Choose call may pick it. The answer depends
// only on the VM's requested type, so it is memoized per type for the tick —
// the return sweep asks once per requested type instead of once per VM.
func (c *Controller) spotCalmFor(vs *vmState) bool {
	if calm, ok := c.calmCache[vs.vm.Type.Name]; ok {
		return calm
	}
	// A market qualifies when observed, currently below OD, last above OD
	// more than ReturnHoldDown ago — and able to host the requested type.
	calm := false
	for _, key := range c.observedMarkets() {
		typ, ok := c.prov.TypeByName(key.Type)
		if !ok || c.hostUnits(typ, vs.vm.Type) <= 0 {
			continue
		}
		if c.marketCalm(key) {
			calm = true
			break
		}
	}
	c.calmCache[vs.vm.Type.Name] = calm
	return calm
}

// marketCalm reports whether a spot market's price is below the on-demand
// price and has been for at least the return hold-down. With the predictor
// enabled, a market loitering at or above the prediction threshold also
// counts as hot — otherwise the return sweep would undo every predictive
// evacuation while the price plateaus just below on-demand.
func (c *Controller) marketCalm(key spotmarket.MarketKey) bool {
	s, ok := c.tickPrices[key]
	if !ok || !s.odOK || s.price >= s.od {
		return false
	}
	if c.cfg.Predictive.Enabled &&
		float64(s.price) >= c.cfg.Predictive.threshold()*float64(s.od) {
		return false
	}
	if last, seen := c.lastAboveOD[key]; seen && c.sched.Now()-last < c.cfg.ReturnHoldDown {
		return false
	}
	return true
}

// observedMarkets lists markets present in history, sorted.
func (c *Controller) observedMarkets() []spotmarket.MarketKey {
	return c.history.sortedMarkets()
}

// sortedPoolKeys returns a snapshot of the pool keys in sorted order. The
// sorted cache is maintained incrementally by poolFor; the copy matters
// because sweeps can create pools mid-iteration (tryReturn → acquireHost →
// poolFor), which would shift the cache's backing array under the caller.
func (c *Controller) sortedPoolKeys() []PoolKey {
	c.poolKeyScratch = append(c.poolKeyScratch[:0], c.poolKeys...)
	return c.poolKeyScratch
}

// ---------------------------------------------------------------------------
// Hot spares (§4.3)

// requestSpare launches an idle on-demand server to stand ready for
// instant failover.
func (c *Controller) requestSpare() {
	if c.shutdown {
		return
	}
	c.sparePending++
	c.prov.RunOnDemand(c.cfg.HotSpareType, c.cfg.BackupZone, func(inst *cloud.Instance, err error) {
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
			c.sched.After(c.cfg.MonitorInterval, "spare-retry", func() { c.requestSpare() })
			return
		}
		h := c.newHostState()
		h.inst = inst
		h.seq = instanceSeq(inst.ID)
		h.role = roleHotSpare
		c.hostIndex[inst.ID] = h.slot
		c.rentals = append(c.rentals, rental{inst: inst, kind: rentalSpare})
		c.maybeScrubRentals()
		c.spares = append(c.spares, h)
	})
}

// takeSpare converts a ready hot spare into a live on-demand host sliced
// for slotType, and replenishes the spare pool.
func (c *Controller) takeSpare(slotType cloud.InstanceType) *hostState {
	for i, h := range c.spares {
		capacity := c.hostUnits(h.inst.Type, slotType)
		if capacity < 1 || h.inst.State != cloud.StateRunning {
			continue
		}
		c.spares = append(c.spares[:i], c.spares[i+1:]...)
		h.role = roleHost
		h.slotType = slotType
		h.capacity = capacity
		h.key = PoolKey{Type: h.inst.Type.Name, Zone: h.inst.Zone, Market: cloud.MarketOnDemand}
		c.addPoolHost(c.poolFor(h.key), h)
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
