package cloudsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// walkReference turns p into the platform this package was before crossings:
// one scheduled event per point of every traced market, each counting a tick
// and sweeping the market's instances when the new price exceeds the floor.
// It is the deleted walkMarket kept as the oracle's reference; crossings p
// still arms fire as no-ops, so the walk alone issues the warnings. ticks[i]
// counts market i's events.
func walkReference(p *Platform, ticks []int) {
	p.crossFn = func(uint64) {}
	for i := range p.markets {
		i, m := i, &p.markets[i]
		cur := m.trace.Cursor()
		var step func(from simkit.Time)
		step = func(from simkit.Time) {
			next, ok := m.trace.NextChangeAfter(from)
			if !ok {
				return
			}
			p.sched.At(next, "price-change", func() {
				ticks[i]++
				price := cur.PriceAt(next)
				if list := &m.spots; list.insts.Len() > 0 && price > list.floor(p.instSlab) {
					for _, r := range list.insts.Ordered() {
						st := p.instSlab.Get(r.Slot)
						if st == nil || !st.inList {
							continue
						}
						if st.inst.State == cloud.StateRunning && price > st.inst.Bid {
							p.warn(st, price)
						}
					}
				}
				step(next)
			})
		}
		step(0)
	}
}

// oracleScript is one random exercise of a platform: a few markets whose
// traces share change instants, and a timeline of spot launches and
// voluntary terminations.
type oracleScript struct {
	seed    int64
	horizon simkit.Time
	traces  spotmarket.Set
	actions []oracleAction
}

type oracleAction struct {
	at     simkit.Time
	launch bool
	market spotmarket.MarketKey
	bid    cloud.USD
	pick   int // terminate: which instance issued so far
}

// The bids straddle the hand-built traces' price levels, so launches move a
// market's floor both ways and quiet-regime moves cross the lowest of them.
var (
	oracleBids   = []cloud.USD{0.025, 0.04, 0.07, 0.5, 1.0, 3.0}
	oracleQuiet  = []cloud.USD{0.01, 0.02, 0.03, 0.05}
	oracleSpikes = []cloud.USD{0.3, 0.8, 2.5}
)

func newOracleScript(seed int64) (oracleScript, error) {
	r := rand.New(rand.NewSource(seed))
	s := oracleScript{seed: seed, horizon: 12 * simkit.Hour, traces: spotmarket.Set{}}
	// A pool of whole-second instants the hand-built traces draw from: a
	// zone-wide storm changes many markets in the same nanosecond.
	seen := map[simkit.Time]bool{}
	var pool []simkit.Time
	for n := 20 + r.Intn(40); len(pool) < n; {
		at := simkit.Time(1+r.Int63n(int64(s.horizon/simkit.Second)-1)) * simkit.Second
		if !seen[at] {
			seen[at] = true
			pool = append(pool, at)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })

	var keys []spotmarket.MarketKey
	for _, typ := range cloud.DefaultCatalog() {
		for _, zone := range cloud.DefaultZones() {
			keys = append(keys, spotmarket.MarketKey{Type: typ.Name, Zone: zone})
		}
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:3+r.Intn(6)]
	for _, key := range keys {
		var tr *spotmarket.Trace
		var err error
		switch mode := r.Intn(3); mode {
		case 0: // the generator's own timestamps: no shared instant
			cfg := spotmarket.DefaultConfig(0.07, spotmarket.VolatilityExtreme)
			cfg.StepMean = 10 * simkit.Minute
			cfg.SpikeMeanInterval, cfg.SpikeDuration = 2*simkit.Hour, 10*simkit.Minute
			cfg.SurgeMeanInterval, cfg.SurgeDuration = 3*simkit.Hour, 20*simkit.Minute
			tr, err = spotmarket.Generate(cfg, s.horizon, r)
		default: // every pooled instant, or most of them
			pts := []spotmarket.Point{{T: 0, Price: oracleQuiet[r.Intn(len(oracleQuiet))]}}
			for _, at := range pool {
				if mode == 2 && r.Intn(10) < 3 {
					continue
				}
				price := oracleQuiet[r.Intn(len(oracleQuiet))]
				if r.Intn(4) == 0 {
					price = oracleSpikes[r.Intn(len(oracleSpikes))]
				}
				pts = append(pts, spotmarket.Point{T: at, Price: price})
			}
			tr, err = spotmarket.NewTrace(pts, s.horizon)
		}
		if err != nil {
			return s, err
		}
		s.traces[key] = tr
	}

	// Actions fall on half seconds, off every hand-built change instant.
	for n := 30 + r.Intn(50); n > 0; n-- {
		s.actions = append(s.actions, oracleAction{
			at:     simkit.Time(r.Int63n(int64(s.horizon/simkit.Second)))*simkit.Second + simkit.Second/2,
			launch: r.Intn(10) < 7,
			market: keys[r.Intn(len(keys))],
			bid:    oracleBids[r.Intn(len(oracleBids))],
			pick:   r.Int(),
		})
	}
	sort.SliceStable(s.actions, func(i, j int) bool { return s.actions[i].at < s.actions[j].at })
	return s, nil
}

type oracleWarning struct {
	id     cloud.InstanceID
	issued simkit.Time
	price  cloud.USD
}

type oracleEnd struct {
	id              cloud.InstanceID
	state           cloud.InstanceState
	launched, ended simkit.Time
	bill            cloud.USD
}

// oracleOutcome is everything the two platforms must agree on.
type oracleOutcome struct {
	warnings []oracleWarning
	ends     []oracleEnd
	stats    Stats
	// ticks[k] is every market's tick count at the k-th ten-minute sample,
	// read after SpotPrice was asked of every market.
	ticks [][]int
	// tied reports a launch or a termination that completed on the very
	// instant of a price change. The order of such a pair is the order of
	// arming (doc.go), which the per-point walk need not share.
	tied bool
}

// runOracle plays the script on a fresh platform: the real one, or with
// reference set the per-point walk.
func runOracle(s oracleScript, reference bool) (oracleOutcome, error) {
	var out oracleOutcome
	sched := simkit.NewScheduler()
	lat := ZeroOpLatencies()
	lat.StartSpot = simkit.Uniform{Lo: 0, Hi: 900} // long enough to land in a spike
	lat.Terminate = simkit.Uniform{Lo: 0, Hi: 60}
	p, err := New(sched, Config{Traces: s.traces, Latencies: lat, Seed: s.seed, Metrics: obs.NewRegistry()})
	if err != nil {
		return out, err
	}
	walked := make([]int, len(p.markets))
	if reference {
		walkReference(p, walked)
	}
	onPoint := func() {
		for i := range p.markets {
			tr := p.markets[i].trace
			if j := sort.Search(tr.Len(), func(j int) bool { return tr.PointAt(j).T >= sched.Now() }); j < tr.Len() && tr.PointAt(j).T == sched.Now() {
				out.tied = true
			}
		}
	}
	p.OnRevocationWarning(func(w cloud.RevocationWarning) {
		out.warnings = append(out.warnings, oracleWarning{w.Instance.ID, w.Issued, w.Price})
	})
	var insts []*cloud.Instance
	sample := func() {
		row := make([]int, len(p.markets))
		for i := range p.markets {
			m := &p.markets[i]
			if _, err := p.SpotPrice(m.key.Type, m.key.Zone); err != nil {
				panic(err)
			}
			row[i] = int(m.ticks.Value())
			if reference {
				row[i] = walked[i]
			}
		}
		out.ticks = append(out.ticks, row)
	}
	next := 10 * simkit.Minute
	for _, a := range s.actions {
		for ; next <= a.at; next += 10 * simkit.Minute {
			sched.RunUntil(next)
			sample()
		}
		sched.RunUntil(a.at)
		if a.launch {
			p.RequestSpot(a.market.Type, a.market.Zone, a.bid, func(inst *cloud.Instance, err error) {
				if err == nil {
					insts = append(insts, inst)
					onPoint()
				}
			})
		} else if issued := len(p.ledger) - 1; issued > 0 {
			// Pending, running, warned or gone: whatever the platform answers,
			// both must answer it.
			_ = p.Terminate(cloud.InstanceID(paddedID("i-", 1+a.pick%issued)), func(error) { onPoint() })
		}
	}
	for ; next <= s.horizon; next += 10 * simkit.Minute {
		sched.RunUntil(next)
		sample()
	}
	for _, inst := range insts {
		bill, err := p.AccruedCost(inst.ID)
		if err != nil {
			return out, err
		}
		out.ends = append(out.ends, oracleEnd{inst.ID, inst.State, inst.Launched, inst.Ended, bill})
	}
	out.stats = p.Stats()
	return out, nil
}

// checkOracle plays one seed's script on both platforms and compares every
// warning, every instance's end, the counters and the sampled tick counts. It
// returns the number of warnings compared, or -1 when the script tied (see
// oracleOutcome.tied) and nothing was.
func checkOracle(t *testing.T, seed int64) int {
	t.Helper()
	s, err := newOracleScript(seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runOracle(s, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runOracle(s, false)
	if err != nil {
		t.Fatal(err)
	}
	if want.tied || got.tied {
		return -1
	}
	if !reflect.DeepEqual(got.warnings, want.warnings) {
		t.Errorf("seed %d: warnings differ from the per-point walk:\n got %v\nwant %v", seed, got.warnings, want.warnings)
	}
	if !reflect.DeepEqual(got.ends, want.ends) {
		t.Errorf("seed %d: instance ends differ from the per-point walk:\n got %v\nwant %v", seed, got.ends, want.ends)
	}
	if got.stats != want.stats {
		t.Errorf("seed %d: stats = %+v, the per-point walk's %+v", seed, got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.ticks, want.ticks) {
		t.Errorf("seed %d: sampled tick counters differ from the per-point walk's event counts", seed)
	}
	return len(want.warnings)
}

// The differential oracle: 200 random scripts, the armed-crossing platform
// against the per-point walk it replaced. Remove the same-instant rule from
// crossing (handle only the market whose event fired) and this fails on the
// first script whose pooled instant revokes two markets at once.
func TestCrossingWalkMatchesPerPointWalk(t *testing.T) {
	compared, warnings := 0, 0
	for seed := int64(1); seed <= 200 && !t.Failed(); seed++ {
		if n := checkOracle(t, seed); n >= 0 {
			compared++
			warnings += n
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("%d scripts compared, %d warnings", compared, warnings)
	if compared < 190 {
		t.Errorf("only %d of 200 scripts were compared; the rest tied a completion with a price change", compared)
	}
	if warnings < 200 {
		t.Errorf("200 scripts issued %d revocation warnings; they exercise too little", warnings)
	}
}

func FuzzCrossingWalk(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if checkOracle(t, seed) < 0 {
			t.Skip("a completion tied with a price change")
		}
	})
}

// catalogPlatform builds a platform over the catalog comparison's 54 traced
// markets and a six-month horizon, and reports how many price changes the
// traces hold.
func catalogPlatform(t *testing.T) (*simkit.Scheduler, *Platform, simkit.Time, int) {
	t.Helper()
	cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
	if err != nil {
		t.Fatal(err)
	}
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range cat.HVMTypes() {
		for _, zone := range cat.Zones {
			configs[spotmarket.MarketKey{Type: typ.Name, Zone: zone}] = spotmarket.DefaultConfig(typ.OnDemand, spotmarket.VolatilityMedium)
		}
	}
	horizon := 180 * simkit.Day
	traces, err := spotmarket.GenerateSet(configs, horizon, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkit.NewScheduler()
	p, err := New(sched, Config{Traces: traces, Catalog: cat.Types, Zones: cat.Zones, Latencies: ZeroOpLatencies()})
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, tr := range traces {
		points += tr.Len() - 1
	}
	return sched, p, horizon, points
}

// A market nobody can be revoked from schedules nothing. The parent fired one
// price-change event per trace point here: 234 534 of them.
func TestIdleMarketsFireNothing(t *testing.T) {
	sched, p, horizon, points := catalogPlatform(t)
	if len(p.markets) != 54 {
		t.Fatalf("%d markets, want 54", len(p.markets))
	}
	sched.RunUntil(horizon)
	if sched.Fired() != 0 || sched.Pending() != 0 || p.scans != 0 {
		t.Errorf("an idle platform fired %d events, holds %d, scanned %d times; want none (its traces hold %d price changes)",
			sched.Fired(), sched.Pending(), p.scans, points)
	}
}

// One instance bidding the on-demand price costs three events — its launch,
// the one price change that underbids it (however many lie before it) and
// its forced kill — and once it is gone the market is silent again. The
// parent fired one event per point of all 54 traces to the horizon
// (234 534 + 2), whoever was listening.
func TestCrossingsOnly(t *testing.T) {
	sched, p, horizon, _ := catalogPlatform(t)
	m := &p.markets[7]
	od := p.typ(m.key.Type).it.OnDemand
	var spike spotmarket.Point
	before := 0
	for i := 1; i < m.trace.Len(); i++ {
		if spike = m.trace.PointAt(i); spike.Price > od {
			break
		}
		before++
	}
	if before == 0 || spike.Price <= od {
		t.Fatalf("market %v is a poor subject: %d changes before its first price above %v", m.key, before, od)
	}
	var warned []cloud.RevocationWarning
	p.OnRevocationWarning(func(w cloud.RevocationWarning) { warned = append(warned, w) })
	var inst *cloud.Instance
	p.RequestSpot(m.key.Type, m.key.Zone, od, func(i *cloud.Instance, err error) { inst = i })
	sched.RunUntil(horizon)
	if inst == nil || len(warned) != 1 || warned[0].Issued != spike.T || warned[0].Price != spike.Price {
		t.Fatalf("instance %v, warnings %+v; want one at the first price above the bid, %+v", inst, warned, spike)
	}
	if inst.State != cloud.StateTerminated || inst.Ended != spike.T+p.cfg.WarningWindow {
		t.Errorf("instance ended %v at %v, want reclaimed at the warning's deadline", inst.State, inst.Ended)
	}
	if sched.Fired() != 3 || sched.Pending() != 0 {
		t.Errorf("fired %d events with %d pending; want launch + crossing + forced kill, then silence (%d quiet changes preceded the crossing)",
			sched.Fired(), sched.Pending(), before)
	}
}

// An insert at or above the floor the armed crossing was scanned for re-scans
// nothing: 1 000 launches, one scan. (The parent had no scan to repeat; it
// paid one event per point instead.)
func TestArmIsIdempotent(t *testing.T) {
	sched, p := testPlatform(t, nil)
	launchSpot(t, sched, p, 0.07)
	if p.scans != 1 {
		t.Fatalf("the market's first instance cost %d scans, want 1", p.scans)
	}
	armed := p.markets[0].armed
	for i := 0; i < 1000; i++ {
		launchSpot(t, sched, p, cloud.USD(0.07+float64(i%3)))
	}
	if p.scans != 1 || p.markets[0].armed != armed || !armed.Pending() {
		t.Errorf("1000 inserts at or above the floor cost %d scans, want the first one's crossing kept", p.scans-1)
	}
	// A bid under the floor moves the crossing: one scan more.
	launchSpot(t, sched, p, 0.05)
	if p.scans != 2 || p.markets[0].armedFloor != 0.05 {
		t.Errorf("a lower bid cost %d scans and left floor %v, want 1 and 0.05", p.scans-1, p.markets[0].armedFloor)
	}
	if at := p.markets[0].armed.At(); at != simkit.Hour {
		t.Errorf("crossing armed at %v, want the spike at 1h", at)
	}

	// A bid the price never exceeds arms no event, and the scan that found
	// that out is not repeated either.
	sched, p = testPlatform(t, nil)
	for i := 0; i < 1000; i++ {
		launchSpot(t, sched, p, 1.0)
	}
	if p.scans != 1 || sched.Pending() != 0 {
		t.Errorf("1000 bids above every price cost %d scans and left %d events pending, want 1 and 0", p.scans, sched.Pending())
	}
}
