package core

import (
	"fmt"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// recountParked walks the on-demand pools as the return sweep does and
// counts their residents by home market, and those with no home.
func recountParked(c *Controller) (unhomed int, parked map[*market]int) {
	parked = map[*market]int{}
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
				if vs.homeMarket == nil {
					unhomed++
				} else {
					parked[vs.homeMarket]++
				}
			}
		}
	}
	return unhomed, parked
}

// sweepWouldAct walks the return sweep's candidates in the sweep's order,
// asking what the sweep and tryReturn ask, and reports whether the walk
// would reach the placement policy or start a migration. Everything it asks
// is memoized or replayed per tick, so asking first changes nothing the
// sweep then does.
func sweepWouldAct(c *Controller) bool {
	anyCalm := c.someMarketCalm()
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
				switch {
				case vs.phase != phaseRunning:
				case !anyCalm:
					return false
				case !c.spotCalmFor(vs) || vs.lazyDegradeEvent.Pending():
				case vs.homeMarket == nil:
					return true // choosePool
				case c.marketCalm(vs.homeMarket):
					return true // migrateVM
				}
			}
		}
	}
	return false
}

// sweepAudit counts what the return sweeps of a run did.
type sweepAudit struct{ ticks, walked, acted int }

// auditReturnSweeps checks, as every return sweep of c starts, that the
// maintained counts equal a recount, and that a sweep that will not walk is
// one whose walk would act on nothing.
func auditReturnSweeps(t *testing.T, name string, c *Controller) *sweepAudit {
	a := &sweepAudit{}
	c.testHookReturnSweep = func() {
		a.ticks++
		unhomed, parked := recountParked(c)
		if unhomed != c.unhomed {
			t.Fatalf("%s at %v: %d candidates with no home, recount %d", name, c.sched.Now(), c.unhomed, unhomed)
		}
		for _, m := range c.history.markets {
			if m.parked != parked[m] {
				t.Fatalf("%s at %v: %d candidates homed to %v, recount %d", name, c.sched.Now(), m.parked, m.key, parked[m])
			}
		}
		acts := sweepWouldAct(c)
		if c.returnsPossible() {
			a.walked++
		} else if acts {
			t.Fatalf("%s at %v: the sweep skips its walk, but the walk would act", name, c.sched.Now())
		}
		if acts {
			a.acted++
		}
	}
	return a
}

// TestReturnSweepSkipsOnlyIdleTicks runs seeded simulations over the
// placement policies (1P-M, 4P-COST, 4P-ST), on-demand and k×OD bidding, the
// predictor, lazy and XenLive migration, with and without injected faults,
// and audits every fired tick's return sweep (auditReturnSweeps).
func TestReturnSweepSkipsOnlyIdleTicks(t *testing.T) {
	policies := []func() PlacementPolicy{Policy1PM, Policy4PCOST, Policy4PST}
	mechs := []migration.Mechanism{migration.SpotCheckLazy, migration.XenLive}
	var total sweepAudit
	for seed := int64(0); seed < 36; seed++ {
		pol, mech := seed%3, seed/3%2
		chaos, mode := seed/6%2 == 1, seed/12%3
		name := fmt.Sprintf("seed=%d/policy=%d/%v/chaos=%v/mode=%d", seed, pol, mechs[mech], chaos, mode)
		horizon := 8 * simkit.Day
		if testing.Short() || raceBuild {
			horizon = 3 * simkit.Day
		}
		configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
		for i, typ := range cloud.DefaultCatalog() {
			if typ.HVM {
				configs[spotmarket.MarketKey{Type: typ.Name, Zone: "zone-a"}] =
					spotmarket.DefaultConfig(typ.OnDemand, spotmarket.Volatility((i+int(seed))%4))
			}
		}
		traces, err := spotmarket.GenerateSet(configs, horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched := simkit.NewScheduler()
		plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var prov cloud.Provider = plat
		if chaos {
			prov = cloudchaos.Wrap(plat, sched, cloudchaos.Config{FailProb: 0.2, ExtraLatency: 20 * simkit.Second, Seed: seed})
		}
		cfg := Config{
			Scheduler: sched,
			Provider:  prov,
			Mechanism: mechs[mech],
			Placement: policies[pol](),
			Seed:      seed,
		}
		switch mode {
		case 1:
			cfg.Bidding = MultipleBid{K: 2}
		case 2:
			cfg.Predictive = true
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := auditReturnSweeps(t, name, c)
		for i := range 24 {
			typ := cloud.M3Medium
			if i%3 == 0 {
				typ = cloud.M3Large
			}
			if _, err := c.RequestServer(fmt.Sprintf("c%d", i%4), typ); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunUntil(horizon)
		total.ticks += a.ticks
		total.walked += a.walked
		total.acted += a.acted
	}
	t.Logf("%d sweeps: %d walked, %d of them acted", total.ticks, total.walked, total.acted)
	if total.acted == 0 || total.walked == total.ticks {
		t.Errorf("%d sweeps, %d walked, %d acted: the runs exercise no skip or no return", total.ticks, total.walked, total.acted)
	}
}

// Parked VMs whose home market stays above on-demand give the monitor ticks
// to fire — the on-demand pool is not empty — but none of those ticks walks.
func TestReturnSweepSkipsWhileHomeIsHot(t *testing.T) {
	// m3.medium spikes above on-demand after two hours and stays there a
	// day; every other market is calm throughout.
	home := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	var od cloud.USD
	for _, typ := range cloud.DefaultCatalog() {
		if typ.Name == home.Type {
			od = typ.OnDemand
		}
	}
	spikeAt := 2 * simkit.Hour
	traces := spotmarket.Set{home: makeTrace(t, 0.01, testEnd, spike{at: spikeAt, dur: 26 * simkit.Hour, price: 2 * od})}
	r := newRig(t, traces, func(c *Config) {
		c.Placement = Policy1PM()
		c.Trace = nil
	})
	c := r.ctrl
	for range 200 {
		r.request(t, "alice")
	}
	// Past the revocation and the migrations it forces: everyone is parked.
	r.run(t, spikeAt+2*simkit.Hour)
	if parked := c.history.index[home].parked; c.odHosts == 0 || parked != 200 {
		t.Fatalf("%d on-demand hosts, %d VMs parked with an m3.medium home: want all 200", c.odHosts, parked)
	}
	a := auditReturnSweeps(t, "hot home", c)
	r.run(t, spikeAt+24*simkit.Hour)
	if want := int(22 * simkit.Hour / c.cfg.MonitorInterval); a.ticks != want {
		t.Errorf("%d ticks fired in 22 h at a %v interval, want %d", a.ticks, c.cfg.MonitorInterval, want)
	}
	if a.walked != 0 {
		t.Errorf("%d of %d ticks walked the parked VMs while their home was above on-demand", a.walked, a.ticks)
	}
}
