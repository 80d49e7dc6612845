package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// refWindow is the trailing window as it was before runs: one add per
// sample, straight into the ring. It is the oracle for priceWindow.
type refWindow struct {
	samples []float64
	next    int
}

func (w *refWindow) add(v float64) {
	if len(w.samples) < priceWindowCap {
		w.samples = append(w.samples, v)
		return
	}
	w.samples[w.next] = v
	w.next = (w.next + 1) % priceWindowCap
}

func (w *refWindow) mean() float64 {
	if len(w.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range w.samples {
		s += v
	}
	return s / float64(len(w.samples))
}

// sameWindow reports whether the run-length window, once written, is the
// reference ring slot for slot, bit for bit.
func sameWindow(w *priceWindow, ref *refWindow) bool {
	w.flush()
	if len(w.samples) != len(ref.samples) || (len(w.samples) == priceWindowCap && w.next != ref.next) {
		return false
	}
	for i, v := range w.samples {
		if math.Float64bits(v) != math.Float64bits(ref.samples[i]) {
			return false
		}
	}
	return true
}

// FuzzPriceWindowRuns feeds the same samples to the run-length window (as
// runs of random length, read at random points) and to the one-add-per-
// sample ring, and requires identical rings and bit-identical means.
func FuzzPriceWindowRuns(f *testing.F) {
	f.Add([]byte{3, 1, 200, 2, 0, 7, 255, 4})
	f.Add([]byte{1, 170, 1, 170, 2, 1, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w priceWindow
		var ref refWindow
		for i := 0; i+1 < len(data); i += 2 {
			v := float64(data[i]%8) * 0.01
			n := int(data[i+1])
			if data[i]&0x80 != 0 {
				n *= 3 // runs longer than the ring
			}
			w.addRun(v, n)
			for j := 0; j < n; j++ {
				ref.add(v)
			}
			if data[i]&0x40 == 0 {
				continue
			}
			if math.Float64bits(w.mean()) != math.Float64bits(ref.mean()) {
				t.Fatalf("after %d bytes: mean %v, want %v", i+2, w.mean(), ref.mean())
			}
			if !sameWindow(&w, &ref) {
				t.Fatalf("after %d bytes: ring differs", i+2)
			}
		}
		if !sameWindow(&w, &ref) {
			t.Fatal("final ring differs")
		}
	})
}

// replayRig is a controller whose platform reports into the controller's
// registry, so the price-change counters can be checked.
type replayRig struct {
	sched  *simkit.Scheduler
	reg    *obs.Registry
	ctrl   *Controller
	traces spotmarket.Set
}

func newReplayRig(t *testing.T, traces spotmarket.Set, mutate func(*Config)) *replayRig {
	t.Helper()
	sched := simkit.NewScheduler()
	reg := obs.NewRegistry()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Latencies: cloudsim.ZeroOpLatencies(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Scheduler: sched, Provider: plat, Mechanism: migration.SpotCheckLazy, Metrics: reg}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &replayRig{sched: sched, reg: reg, ctrl: ctrl, traces: traces}
}

// priceTicks reads a market's spotcheck_cloudsim_price_ticks_total.
func (r *replayRig) priceTicks(key spotmarket.MarketKey) float64 {
	v, _ := r.reg.Snapshot().Value("spotcheck_cloudsim_price_ticks_total", obs.L("market", key.String()))
	return v
}

// ticksThrough is the number of the last tick at or before t.
func (r *replayRig) ticksThrough(t simkit.Time) uint64 {
	c := r.ctrl
	if t < c.tickBase {
		return 1
	}
	return uint64((t-c.tickBase)/c.cfg.MonitorInterval) + 1
}

// checkRecord compares m, replayed, with a direct per-tick recomputation of
// ticks 2..c.tick from the trace: what sampling every market on every tick
// would have left in the record.
func (r *replayRig) checkRecord(t *testing.T, m *market, where string) {
	t.Helper()
	c := r.ctrl
	c.syncMarket(m)
	tr := r.traces[m.key]
	if m.synced != c.tick {
		t.Fatalf("%s: %v synced to tick %d, controller at %d", where, m.key, m.synced, c.tick)
	}
	if tr == nil || !m.typ.HVM {
		if c.tick >= 2 && !m.noSpot {
			t.Fatalf("%s: %v has no spot market but is not marked noSpot", where, m.key)
		}
		return
	}
	var (
		ref                  refWindow
		price, prev          cloud.USD
		sampled, prevSampled uint64
		lastAbove            simkit.Time
		everAbove            bool
	)
	for k := uint64(2); k <= c.tick; k++ {
		p := tr.PriceAt(c.tickAt(k))
		ref.add(float64(p))
		prev, prevSampled = price, sampled
		price, sampled = p, k
		if p >= m.typ.OnDemand {
			lastAbove, everAbove = c.tickAt(k), true
		}
	}
	if m.noSpot || m.price != price || m.prev != prev || m.sampled != sampled || m.prevSampled != prevSampled ||
		m.lastAboveOD != lastAbove || m.everAboveOD != everAbove {
		t.Fatalf("%s: %v at tick %d: got price %v@%d prev %v@%d above %v/%v noSpot %v; want %v@%d %v@%d %v/%v",
			where, m.key, c.tick, m.price, m.sampled, m.prev, m.prevSampled, m.lastAboveOD, m.everAboveOD, m.noSpot,
			price, sampled, prev, prevSampled, lastAbove, everAbove)
	}
	if !sameWindow(&m.window, &ref) {
		t.Fatalf("%s: %v: window ring differs from per-tick sampling", where, m.key)
	}
}

// segmentIndex is the price changes in (0, at] of tr: what the platform's
// counter reads once somebody has asked the price at at.
func segmentIndex(tr *spotmarket.Trace, at simkit.Time) float64 {
	i := sort.Search(tr.Len(), func(i int) bool { return tr.PointAt(i).T > at })
	return float64(max(i-1, 0))
}

// randomReplayTrace is a price walk whose steps fall both on the tick grid
// and at second granularity, with repeated prices and spikes above od.
func randomReplayTrace(t *testing.T, rng *rand.Rand, od cloud.USD, interval, end simkit.Time) *spotmarket.Trace {
	t.Helper()
	pts := []spotmarket.Point{{T: 0, Price: od * 0.2}}
	for at := simkit.Time(0); ; {
		if rng.Intn(2) == 0 {
			at = (at/interval + 1 + simkit.Time(rng.Intn(6))) * interval // on the grid
		} else {
			at += simkit.Time(1+rng.Intn(3*int(interval/simkit.Second))) * simkit.Second
		}
		if at >= end {
			break
		}
		price := pts[len(pts)-1].Price
		switch x := rng.Intn(10); {
		case x < 5:
			price = od * cloud.USD(0.05+0.5*rng.Float64())
		case x < 7:
			price = od * cloud.USD(0.7+0.4*rng.Float64()) // near on-demand, either side
		case x < 9:
			price = od * cloud.USD(1+2*rng.Float64())
		}
		pts = append(pts, spotmarket.Point{T: at, Price: price})
	}
	tr, err := spotmarket.NewTrace(pts, end)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReplayMatchesPerTickSampling is the replay oracle: over 200 seeds of
// random traces, tick intervals, hold-downs, placement policies and bidding
// or predictive runs, every market record read — inside events (ticks before
// now) and between runs of the event loop (ticks through now) — equals a
// direct per-tick recomputation from the trace, ring slot for ring slot,
// and the tick count and each market's platform price-change counter read
// what per-tick sampling would have left.
func TestReplayMatchesPerTickSampling(t *testing.T) {
	seeds := 200
	if testing.Short() || raceBuild {
		seeds = 40
	}
	policies := []func() PlacementPolicy{Policy1PM, Policy4PCOST, Policy4PST}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		interval := simkit.Time(1+rng.Intn(15)) * simkit.Minute
		end := simkit.Time(24+rng.Intn(72)) * simkit.Hour
		traces := spotmarket.Set{}
		for _, typ := range cloud.DefaultCatalog() {
			if typ.Name == cloud.M3Medium || typ.Name == cloud.M3Large || typ.Name == cloud.M3XLarge || typ.Name == cloud.M32XLarge {
				traces[spotmarket.MarketKey{Type: typ.Name, Zone: "zone-a"}] = randomReplayTrace(t, rng, typ.OnDemand, interval, end+simkit.Hour)
			}
		}
		pol := policies[rng.Intn(len(policies))]
		mode := rng.Intn(4)
		r := newReplayRig(t, traces, func(c *Config) {
			c.Placement = pol()
			c.MonitorInterval = interval
			c.ReturnHoldDown = simkit.Time(1+rng.Intn(40)) * simkit.Minute
			c.Seed = seed
			switch mode {
			case 1:
				c.Bidding = MultipleBid{K: 1.5}
			case 2:
				c.Predictive = true
			}
		})
		c := r.ctrl
		for i, n := 0, 1+rng.Intn(6); i < n; i++ {
			if _, err := c.RequestServer("alice", cloud.M3Medium); err != nil {
				t.Fatal(err)
			}
		}
		// Reads inside events, scheduled up front: each settles only the
		// ticks before its instant.
		for i := 0; i < 8; i++ {
			at := simkit.Time(rng.Int63n(int64(end-2*interval))) + 2*interval
			if rng.Intn(2) == 0 {
				at = at / interval * interval // on the grid
			}
			key := r.traces.Keys()[rng.Intn(len(r.traces))]
			r.sched.At(at, "test-read", func() {
				c.history.MeanPrice(key)
				if want := r.ticksThrough(at - 1); c.tick != want {
					t.Fatalf("seed %d: read at %v sees tick %d, want %d", seed, at, c.tick, want)
				}
				r.checkRecord(t, c.history.index[key], "in-event read")
			})
		}
		// Reads between runs, at stops on and off the grid: settle through now.
		for stop := simkit.Time(0); stop < end; {
			stop += simkit.Time(rng.Int63n(int64(end / 3)))
			if rng.Intn(2) == 0 {
				stop = stop / interval * interval
			}
			stop = min(stop, end)
			r.sched.RunUntil(max(stop, r.sched.Now()))
			before := map[spotmarket.MarketKey]float64{}
			for _, key := range r.traces.Keys() {
				before[key] = r.priceTicks(key)
			}
			c.Settle()
			if want := r.ticksThrough(r.sched.Now()); c.tick != want || c.met.monitorTick.Value() != float64(want-1) {
				t.Fatalf("seed %d: at %v tick %d (counter %v), want %d", seed, r.sched.Now(), c.tick, c.met.monitorTick.Value(), want)
			}
			for key, tr := range r.traces {
				want := math.Max(before[key], segmentIndex(tr, c.tickAt(c.tick)))
				if c.tick < 2 {
					want = before[key]
				}
				if got := r.priceTicks(key); got != want {
					t.Fatalf("seed %d: %v price ticks %v after settling at %v, want %v", seed, key, got, r.sched.Now(), want)
				}
			}
			for _, m := range c.history.markets {
				r.checkRecord(t, m, "settled read")
			}
			if stop == end {
				break
			}
		}
	}
}

// TestIdleMonitorFiresNothing pins the tick's cost where no sweep can act:
// six months of a fleet that never leaves its spot pool fire no monitor
// event, yet spotcheck_monitor_ticks_total reads every one of the 25 920
// ten-minute ticks once Report has settled it. (Before ticks were armed on
// demand the same run fired 25 920 monitor events.)
func TestIdleMonitorFiresNothing(t *testing.T) {
	const horizon = 180 * simkit.Day
	traces := spotmarket.Set{}
	for _, typ := range []string{cloud.M3Medium, cloud.M3Large, cloud.M3XLarge, cloud.M32XLarge} {
		traces[spotmarket.MarketKey{Type: typ, Zone: "zone-a"}] = makeTrace(t, 0.01, horizon+simkit.Hour,
			spike{at: 40*simkit.Day + 3*simkit.Second, dur: simkit.Hour, price: 0.02})
	}
	r := newReplayRig(t, traces, func(c *Config) { c.MonitorInterval = 10 * simkit.Minute })
	fired := 0
	r.ctrl.tickFn = func() { fired++; r.ctrl.monitorTick() }
	for i := 0; i < 40; i++ {
		if _, err := r.ctrl.RequestServer("alice", cloud.M3Medium); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.RunUntil(horizon)
	r.ctrl.Report()
	if fired != 0 {
		t.Errorf("an idle monitor fired %d tick events, want 0", fired)
	}
	if got := r.ctrl.met.monitorTick.Value(); got != 25_920 {
		t.Errorf("spotcheck_monitor_ticks_total = %v after Report, want 25 920", got)
	}
	key := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	if got := r.priceTicks(key); got != 2 {
		t.Errorf("price ticks of %v = %v, want the spike's 2 changes", key, got)
	}
}

// TestTicksFollowOnDemandHosts pins when ticks are events: exactly on the
// grid instants from the first on-demand host's arrival while one exists,
// plus the one tick that finds none and stops re-arming.
func TestTicksFollowOnDemandHosts(t *testing.T) {
	const interval = 10 * simkit.Minute
	spikeAt := 5*simkit.Hour + 7*simkit.Second
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, 2*simkit.Day,
			spike{at: spikeAt, dur: 2 * simkit.Hour, price: 0.5}),
	}
	r := newReplayRig(t, traces, func(c *Config) {
		c.MonitorInterval = interval
		c.ReturnHoldDown = 30 * simkit.Minute
	})
	c := r.ctrl
	var fires []simkit.Time
	var firesWithout int
	c.tickFn = func() {
		fires = append(fires, r.sched.Now())
		c.monitorTick()
		if c.odHosts == 0 {
			firesWithout++
		}
	}
	if _, err := c.RequestServer("alice", cloud.M3Medium); err != nil {
		t.Fatal(err)
	}
	// Step the loop, noting when the on-demand host count leaves and
	// returns to zero.
	var firstOD, lastOD simkit.Time = -1, -1
	for r.sched.Step() && r.sched.Now() < simkit.Day {
		switch {
		case c.odHosts > 0 && firstOD < 0:
			firstOD = r.sched.Now()
		case c.odHosts == 0 && firstOD >= 0 && lastOD < 0:
			lastOD = r.sched.Now()
		}
	}
	if firstOD < 0 || lastOD < 0 {
		t.Fatalf("no on-demand episode (first %v, last %v)", firstOD, lastOD)
	}
	var want []simkit.Time
	for g := (firstOD + interval - 1) / interval * interval; ; g += interval {
		want = append(want, g)
		if g >= lastOD {
			break // the tick that finds no on-demand host
		}
	}
	if len(fires) != len(want) {
		t.Fatalf("ticks fired at %v (%d), want %d grid instants %v..%v", fires, len(fires), len(want), want[0], want[len(want)-1])
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("tick %d fired at %v, want %v", i, fires[i], want[i])
		}
	}
	if firesWithout != 1 {
		t.Errorf("%d ticks found no on-demand host, want exactly the last", firesWithout)
	}
	if c.monitorEvent.Pending() {
		t.Error("a tick is still armed with no on-demand host")
	}
}
