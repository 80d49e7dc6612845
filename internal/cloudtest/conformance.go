// Package cloudtest provides a reusable conformance suite for
// cloud.Provider implementations: the behavioural contract the SpotCheck
// controller depends on, checked against any backend. The simulated
// platform passes it; a binding to a real cloud (or a fault-injecting
// wrapper) must pass it too before the controller will behave.
package cloudtest

import (
	"errors"
	"math"
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// Harness supplies a provider under test plus the simulation controls the
// suite needs to drive asynchronous completions.
type Harness struct {
	// New builds a fresh provider on a fresh scheduler. The returned
	// drain function runs the event loop until quiescence (bounded).
	New func(t *testing.T) (cloud.Provider, func())
	// SpotMarket names one (type, zone) market with a low current price
	// that the suite can bid above.
	SpotType string
	SpotZone cloud.Zone
	// LowPrice is an upper bound on the market's current price.
	LowPrice cloud.USD
	// Traces, when set, is the price history New's provider replays: the
	// suite then asks for every traced market, in every order, and checks
	// each answer against it.
	Traces spotmarket.Set
	// Replay, when set, builds a provider on sched that replays the given
	// trace set, and returns with it a reader of the provider's price-change
	// counter for a market (nil when it keeps none). The PriceHistory case
	// walks the clock through moving prices with it.
	Replay func(t *testing.T, sched *simkit.Scheduler, traces spotmarket.Set) (cloud.Provider, func(spotmarket.MarketKey) float64)
	// Revoking, when set, builds a provider on sched over the given trace
	// set whose requests all go through (no injected faults). The
	// RevocationWarning case raises a market past a running instance's bid
	// with it.
	Revoking func(t *testing.T, sched *simkit.Scheduler, traces spotmarket.Set) cloud.Provider
}

// FlatTraces returns a trace set for Harness.Traces over the default catalog
// and zones: every pair but each type's last zone has a market, each at its
// own constant price — so an answer read off the wrong market is a wrong
// answer, and nothing is ever revoked. The named pair is the cheapest, at
// $0.01; the others climb a cent at a time.
func FlatTraces(t testing.TB, typ string, zone cloud.Zone) spotmarket.Set {
	t.Helper()
	set := spotmarket.Set{}
	zones := cloud.DefaultZones()
	cents := 1
	for _, it := range cloud.DefaultCatalog() {
		for _, z := range zones[:len(zones)-1] {
			price := cloud.USD(0.01)
			if it.Name != typ || z != zone {
				cents++
				price = cloud.USD(0.01 * float64(cents))
			}
			tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: price}}, 10000*simkit.Hour)
			if err != nil {
				t.Fatal(err)
			}
			set[spotmarket.MarketKey{Type: it.Name, Zone: z}] = tr
		}
	}
	return set
}

// Run executes the full conformance suite.
//
//lint:testonly the conformance suite that cloudsim's, cloudchaos' and bench's providers pass
func Run(t *testing.T, h Harness) {
	t.Run("CatalogAndPrices", func(t *testing.T) { testCatalog(t, h) })
	t.Run("OnDemandLifecycle", func(t *testing.T) { testOnDemand(t, h) })
	t.Run("SpotLifecycle", func(t *testing.T) { testSpot(t, h) })
	t.Run("Volumes", func(t *testing.T) { testVolumes(t, h) })
	t.Run("Addresses", func(t *testing.T) { testAddresses(t, h) })
	t.Run("ErrorContract", func(t *testing.T) { testErrors(t, h) })
	t.Run("TerminatedInstance", func(t *testing.T) { testTerminated(t, h) })
	t.Run("CostAccrual", func(t *testing.T) { testCost(t, h) })
	t.Run("MarketsInAnyOrder", func(t *testing.T) { testMarketOrder(t, h) })
	t.Run("PriceHistory", func(t *testing.T) { testPriceHistory(t, h) })
	t.Run("RevocationWarning", func(t *testing.T) { testRevocationWarning(t, h) })
}

// testRevocationWarning checks the warning a price rise past the bid
// brings: one warning for the instance, carrying the very *cloud.Instance
// the launch callback delivered (the controller finds its host by that
// pointer), the price that rose past the bid and a deadline after the
// warning, and the instance terminated once the deadline has passed.
func testRevocationWarning(t *testing.T, h Harness) {
	if h.Revoking == nil {
		t.Skip("the harness replays no price rise")
	}
	const spike = cloud.USD(1)
	tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: h.LowPrice / 2}, {T: simkit.Hour, Price: spike}}, 100*simkit.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkit.NewScheduler()
	p := h.Revoking(t, sched, spotmarket.Set{{Type: h.SpotType, Zone: h.SpotZone}: tr})
	var warnings []cloud.RevocationWarning
	p.OnRevocationWarning(func(w cloud.RevocationWarning) { warnings = append(warnings, w) })
	var inst *cloud.Instance
	p.RequestSpot(h.SpotType, h.SpotZone, spike/2, func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatalf("spot launch: %v", err)
		}
		inst = i
	})
	sched.RunUntil(30 * simkit.Minute)
	if inst == nil || inst.State != cloud.StateRunning || len(warnings) != 0 {
		t.Fatalf("before the rise: instance %+v, %d warnings", inst, len(warnings))
	}
	sched.RunUntil(3 * simkit.Hour)
	if len(warnings) != 1 {
		t.Fatalf("%d warnings after the price rose past the bid, want 1", len(warnings))
	}
	w := warnings[0]
	if w.Instance != inst {
		t.Errorf("the warning carries instance %p (%s), the launch callback delivered %p (%s)", w.Instance, w.Instance.ID, inst, inst.ID)
	}
	if w.Price != spike || w.Issued != simkit.Hour || w.Deadline <= w.Issued {
		t.Errorf("warning price %v issued %v deadline %v; want price %v issued at %v, deadline after it", w.Price, w.Issued, w.Deadline, spike, simkit.Hour)
	}
	if inst.State != cloud.StateTerminated {
		t.Errorf("instance is %v after its deadline, want terminated", inst.State)
	}
}

// testPriceHistory checks SpotPriceAt against the replayed traces. For every
// traced pair and times asked forward, backward and repeated, the price is
// the trace's at t, and next is the first change after t when that change
// lies at or before Now, NoChange otherwise. A t after Now is an error, an
// unknown pair ErrNotFound, and the price-change counter never decreases.
func testPriceHistory(t *testing.T, h Harness) {
	if h.Replay == nil {
		t.Skip("the harness replays no price history")
	}
	const end = 48 * simkit.Hour
	rng := rand.New(rand.NewSource(7))
	traces := spotmarket.Set{}
	for _, key := range FlatTraces(t, h.SpotType, h.SpotZone).Keys()[:3] {
		pts := []spotmarket.Point{{T: 0, Price: h.LowPrice / 2}}
		for at := simkit.Time(0); ; {
			at += simkit.Time(1+rng.Intn(90)) * simkit.Minute
			if rng.Intn(3) == 0 {
				at += simkit.Time(rng.Intn(60)) * simkit.Second
			}
			if at >= end {
				break
			}
			pts = append(pts, spotmarket.Point{T: at, Price: cloud.USD(0.005 + 0.1*rng.Float64())})
		}
		tr, err := spotmarket.NewTrace(pts, end)
		if err != nil {
			t.Fatal(err)
		}
		traces[key] = tr
	}
	sched := simkit.NewScheduler()
	p, ticks := h.Replay(t, sched, traces)
	seen := map[spotmarket.MarketKey]float64{}
	ask := func(k spotmarket.MarketKey, at simkit.Time) {
		t.Helper()
		tr := traces[k]
		price, next, err := p.SpotPriceAt(k.Type, k.Zone, at)
		if err != nil || price != tr.PriceAt(at) {
			t.Fatalf("SpotPriceAt(%v, %v) at now %v = %v, %v; the trace says %v", k, at, p.Now(), price, err, tr.PriceAt(at))
		}
		want := cloud.NoChange
		if nt, ok := tr.NextChangeAfter(at); ok && nt <= p.Now() {
			want = nt
		}
		if next != want {
			t.Fatalf("SpotPriceAt(%v, %v) at now %v: next %v, want %v", k, at, p.Now(), next, want)
		}
		if ticks != nil {
			if n := ticks(k); n < seen[k] {
				t.Fatalf("price-change counter of %v fell from %v to %v", k, seen[k], n)
			} else {
				seen[k] = n
			}
		}
	}
	keys := traces.Keys()
	for stop := 0; stop < 12; stop++ {
		sched.RunUntil(sched.Now() + simkit.Time(rng.Int63n(int64(6*simkit.Hour))))
		now := p.Now()
		for _, k := range keys {
			ask(k, now)
			ask(k, now) // repeated
			for i := 0; i < 5; i++ {
				ask(k, simkit.Time(rng.Int63n(int64(now)+1))) // backward and forward
			}
			for at := now - min(now, 3*simkit.Hour); at <= now; at += 7 * simkit.Minute {
				ask(k, at) // forward walk
			}
			if _, _, err := p.SpotPriceAt(k.Type, k.Zone, now+1); err == nil {
				t.Fatalf("SpotPriceAt(%v) after now %v answered", k, now)
			}
		}
		unknown := []spotmarket.MarketKey{{Type: "no-such-type", Zone: h.SpotZone}, {Type: h.SpotType, Zone: "no-such-zone"}}
		for _, typ := range p.Catalog() {
			if k := (spotmarket.MarketKey{Type: typ.Name, Zone: h.SpotZone}); traces[k] == nil {
				unknown = append(unknown, k) // in the catalog, but untraced
			}
		}
		for _, k := range unknown {
			if _, _, err := p.SpotPriceAt(k.Type, k.Zone, now); !errors.Is(err, cloud.ErrNotFound) {
				t.Fatalf("SpotPriceAt(%v) = %v, want ErrNotFound", k, err)
			}
		}
	}
}

func launchOD(t *testing.T, p cloud.Provider, h Harness, drain func()) *cloud.Instance {
	t.Helper()
	var inst *cloud.Instance
	p.RunOnDemand(h.SpotType, h.SpotZone, func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatalf("on-demand launch: %v", err)
		}
		inst = i
	})
	drain()
	if inst == nil {
		t.Fatal("launch callback never fired")
	}
	return inst
}

func testCatalog(t *testing.T, h Harness) {
	p, drain := h.New(t)
	defer drain()
	if len(p.Catalog()) == 0 {
		t.Fatal("empty catalog")
	}
	if len(p.Zones()) == 0 {
		t.Fatal("no zones")
	}
	typ, ok := p.TypeByName(h.SpotType)
	if !ok {
		t.Fatalf("spot type %q missing from catalog", h.SpotType)
	}
	od, err := p.OnDemandPrice(h.SpotType)
	if err != nil || od <= 0 {
		t.Fatalf("on-demand price = %v, %v", od, err)
	}
	if od != typ.OnDemand {
		t.Error("OnDemandPrice disagrees with the catalog")
	}
	spot, err := p.SpotPrice(h.SpotType, h.SpotZone)
	if err != nil || spot <= 0 {
		t.Fatalf("spot price = %v, %v", spot, err)
	}
	if spot > h.LowPrice {
		t.Fatalf("market not low as promised: %v > %v", spot, h.LowPrice)
	}
}

func testOnDemand(t *testing.T, h Harness) {
	p, drain := h.New(t)
	inst := launchOD(t, p, h, drain)
	if inst.State != cloud.StateRunning {
		t.Fatalf("state = %v after launch", inst.State)
	}
	if inst.Market != cloud.MarketOnDemand {
		t.Error("market wrong")
	}
	got, err := p.Instance(inst.ID)
	if err != nil || got.ID != inst.ID {
		t.Fatalf("Instance lookup: %v, %v", got, err)
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	if inst.State != cloud.StateTerminated {
		t.Error("not terminated")
	}
	if err := p.Terminate(inst.ID, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("double terminate = %v, want ErrBadState", err)
	}
}

func testSpot(t *testing.T, h Harness) {
	p, drain := h.New(t)
	// Bid at or below market must be rejected with ErrBidTooLow.
	var lowErr error
	p.RequestSpot(h.SpotType, h.SpotZone, 0, func(_ *cloud.Instance, err error) { lowErr = err })
	drain()
	if !errors.Is(lowErr, cloud.ErrBidTooLow) {
		t.Errorf("zero bid error = %v, want ErrBidTooLow", lowErr)
	}
	// A bid above the market launches.
	var inst *cloud.Instance
	p.RequestSpot(h.SpotType, h.SpotZone, h.LowPrice*10, func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatalf("spot launch: %v", err)
		}
		inst = i
	})
	drain()
	if inst == nil || inst.State != cloud.StateRunning {
		t.Fatalf("spot instance = %+v", inst)
	}
	if inst.Market != cloud.MarketSpot || inst.Bid != h.LowPrice*10 {
		t.Errorf("market/bid wrong: %+v", inst)
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	drain()
}

func testVolumes(t *testing.T, h Harness) {
	p, drain := h.New(t)
	inst := launchOD(t, p, h, drain)
	vol, err := p.CreateVolume(8)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	if err := p.AttachVolume(vol.ID, inst.ID, func(err error) {
		if err != nil {
			t.Errorf("attach: %v", err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	drain()
	if !done || vol.AttachedTo != inst.ID {
		t.Fatalf("attach incomplete: done=%v attached=%q", done, vol.AttachedTo)
	}
	if err := p.AttachVolume(vol.ID, inst.ID, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("double attach = %v, want ErrBadState", err)
	}
	if err := p.DetachVolume(vol.ID, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	if vol.AttachedTo != "" {
		t.Error("still attached after detach")
	}
	if err := p.DeleteVolume(vol.ID); err != nil {
		t.Fatal(err)
	}
}

func testAddresses(t *testing.T, h Harness) {
	p, drain := h.New(t)
	src := launchOD(t, p, h, drain)
	dst := launchOD(t, p, h, drain)
	addr, err := p.AllocateIP()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.AssignIP(src.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	if !src.HasIP(addr) {
		t.Fatal("address not assigned")
	}
	// The migration contract: unassign from source, reassign to
	// destination, address value preserved.
	if err := p.UnassignIP(src.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	if err := p.AssignIP(dst.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	if !dst.HasIP(addr) {
		t.Fatal("address did not move")
	}
	// And the contract the controller relies on after a forced kill:
	// termination must not revoke the renter's allocation.
	if err := p.Terminate(dst.ID, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	third := launchOD(t, p, h, drain)
	if err := p.AssignIP(third.ID, addr, nil); err != nil {
		t.Fatalf("allocation did not survive instance termination: %v", err)
	}
	drain()
	if !third.HasIP(addr) {
		t.Fatal("address lost after termination")
	}
}

func testErrors(t *testing.T, h Harness) {
	p, drain := h.New(t)
	defer drain()
	var err1 error
	p.RunOnDemand("no-such-type", h.SpotZone, func(_ *cloud.Instance, err error) { err1 = err })
	if !errors.Is(err1, cloud.ErrNotFound) {
		t.Errorf("unknown type = %v, want ErrNotFound", err1)
	}
	// ErrNotFound from SpotPrice is permanent — the controller's monitor
	// stops probing the pair after the first — so it must repeat.
	for call := 1; call <= 2; call++ {
		if _, err := p.SpotPrice("no-such-type", h.SpotZone); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("unknown spot market, call %d = %v, want ErrNotFound", call, err)
		}
	}
	if _, err := p.Instance("i-none"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("unknown instance = %v", err)
	}
	if _, err := p.AccruedCost("i-none"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("unknown cost = %v", err)
	}
	if err := p.DetachVolume("vol-none", nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("unknown volume = %v", err)
	}

	// Near misses: strings one edit away from an id the provider did issue —
	// a shorter or longer zero padding, a stray letter, a number past any
	// counter, another resource's id, nothing at all — name nothing, and must
	// not be taken for the id they resemble.
	inst := launchOD(t, p, h, drain)
	vol, err := p.CreateVolume(8)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.AllocateIP()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []cloud.InstanceID{
		"i-1", "i-0000001", "i-00000x", "i-99999999999999999999", cloud.InstanceID(vol.ID), "",
		inst.ID + "0", inst.ID[:len(inst.ID)-1], " " + inst.ID,
	} {
		if _, err := p.Instance(id); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("Instance(%q) = %v, want ErrNotFound", id, err)
		}
		if _, err := p.AccruedCost(id); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("AccruedCost(%q) = %v, want ErrNotFound", id, err)
		}
		if err := p.Terminate(id, nil); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("Terminate(%q) = %v, want ErrNotFound", id, err)
		}
		if err := p.AssignIP(id, addr, nil); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("AssignIP(%q) = %v, want ErrNotFound", id, err)
		}
		if err := p.AttachVolume(vol.ID, id, nil); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("AttachVolume(_, %q) = %v, want ErrNotFound", id, err)
		}
	}
	for _, id := range []cloud.VolumeID{"vol-1", "vol-0000001", "vol-00000x", cloud.VolumeID(inst.ID), "", vol.ID + "0"} {
		if err := p.AttachVolume(id, inst.ID, nil); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("AttachVolume(%q) = %v, want ErrNotFound", id, err)
		}
		if err := p.DeleteVolume(id); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("DeleteVolume(%q) = %v, want ErrNotFound", id, err)
		}
	}
	// Addresses the pool never handed out: another family, outside any
	// private block, the zero Addr.
	for _, a := range []cloud.Addr{netip.MustParseAddr("fe80::1"), netip.MustParseAddr("192.0.2.1"), {}} {
		if err := p.AssignIP(inst.ID, a, nil); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("AssignIP(_, %v) = %v, want ErrNotFound", a, err)
		}
		if err := p.ReleaseIP(a); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("ReleaseIP(%v) = %v, want ErrNotFound", a, err)
		}
	}
	if got, err := p.Instance(inst.ID); err != nil || got != inst {
		t.Errorf("the issued id stopped resolving: %v, %v", got, err)
	}
}

// testTerminated pins how a provider answers for an instance that is gone:
// the controller treats ErrBadState as having raced a termination and
// anything else as an unexpected failure, so a terminated instance must not
// look like one that never existed — and its bill must outlive it.
func testTerminated(t *testing.T, h Harness) {
	p, drain := h.New(t)
	inst := launchOD(t, p, h, drain)
	addr, err := p.AllocateIP()
	if err != nil {
		t.Fatal(err)
	}
	vol, err := p.CreateVolume(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	drain()
	ops := []struct {
		name string
		call func(cloud.InstanceID) error
	}{
		{"Terminate", func(id cloud.InstanceID) error { return p.Terminate(id, nil) }},
		{"AssignIP", func(id cloud.InstanceID) error { return p.AssignIP(id, addr, nil) }},
		{"UnassignIP", func(id cloud.InstanceID) error { return p.UnassignIP(id, addr, nil) }},
		{"AttachVolume", func(id cloud.InstanceID) error { return p.AttachVolume(vol.ID, id, nil) }},
	}
	for _, op := range ops {
		if err := op.call(inst.ID); !errors.Is(err, cloud.ErrBadState) {
			t.Errorf("%s on a terminated instance = %v, want ErrBadState", op.name, err)
		}
		if err := op.call("i-none"); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("%s on an id never issued = %v, want ErrNotFound", op.name, err)
		}
	}
	bill, err := p.AccruedCost(inst.ID)
	if err != nil || bill < 0 {
		t.Fatalf("final bill of a terminated instance = %v, %v", bill, err)
	}
	drain()
	if again, err := p.AccruedCost(inst.ID); err != nil || again != bill {
		t.Errorf("final bill moved: %v then %v, %v", bill, again, err)
	}
}

func testCost(t *testing.T, h Harness) {
	p, drain := h.New(t)
	inst := launchOD(t, p, h, drain)
	c0, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c0 < 0 {
		t.Errorf("negative cost %v", c0)
	}
	_ = simkit.Time(0) // the suite is time-agnostic; accrual over time is
	// implementation-specific and covered by the backend's own tests.
}

// testMarketOrder asks SpotPrice and RequestSpot for every traced market
// forwards, backwards, twice over and shuffled, with pairs that have no
// market in between. A provider may remember where the last question landed
// (the monitor sweeps the markets in one order every tick); no order of
// questions may change an answer, and a pair without a market stays
// ErrNotFound however often and wherever in the sweep it is asked.
func testMarketOrder(t *testing.T, h Harness) {
	if len(h.Traces) == 0 {
		t.Skip("the harness names no trace set")
	}
	p, drain := h.New(t)
	keys := h.Traces.Keys()
	unknown := []spotmarket.MarketKey{
		{Type: "no-such-type", Zone: h.SpotZone},
		{Type: h.SpotType, Zone: "no-such-zone"},
		{Type: keys[len(keys)-1].Type, Zone: "no-such-zone"},
	}
	var asks []spotmarket.MarketKey
	asks = append(asks, keys...)
	for i := len(keys) - 1; i >= 0; i-- {
		asks = append(asks, keys[i], keys[i], unknown[i%len(unknown)])
	}
	shuffled := append(append([]spotmarket.MarketKey(nil), asks...), keys...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	asks = append(append(asks, shuffled...), keys...)

	var launched []*cloud.Instance
	for i, k := range asks {
		tr, traced := h.Traces[k]
		price, err := p.SpotPrice(k.Type, k.Zone)
		var spotErr error
		if !traced {
			if !errors.Is(err, cloud.ErrNotFound) {
				t.Errorf("ask %d: SpotPrice(%v) = %v, %v; want ErrNotFound", i, k, price, err)
			}
			p.RequestSpot(k.Type, k.Zone, 1, func(_ *cloud.Instance, err error) { spotErr = err })
			if !errors.Is(spotErr, cloud.ErrNotFound) {
				t.Errorf("ask %d: RequestSpot(%v) = %v, want ErrNotFound", i, k, spotErr)
			}
			continue
		}
		want := tr.PriceAt(p.Now())
		if err != nil || price != want {
			t.Fatalf("ask %d: SpotPrice(%v) = %v, %v; its trace says %v", i, k, price, err, want)
		}
		// A bid at the market price is too low and the next float up is not:
		// RequestSpot judged it against this market's price and no other's.
		p.RequestSpot(k.Type, k.Zone, want, func(_ *cloud.Instance, err error) { spotErr = err })
		if !errors.Is(spotErr, cloud.ErrBidTooLow) {
			t.Errorf("ask %d: RequestSpot(%v) at the market price %v = %v, want ErrBidTooLow", i, k, want, spotErr)
		}
		above := cloud.USD(math.Nextafter(float64(want), math.Inf(1)))
		p.RequestSpot(k.Type, k.Zone, above, func(inst *cloud.Instance, err error) {
			if err != nil {
				t.Errorf("ask %d: RequestSpot(%v) just above the market price %v: %v", i, k, want, err)
				return
			}
			launched = append(launched, inst)
		})
	}
	drain()
	if len(launched) == 0 {
		t.Fatal("no spot launch completed")
	}
	for _, inst := range launched {
		if k := (spotmarket.MarketKey{Type: inst.Type.Name, Zone: inst.Zone}); h.Traces[k] == nil {
			t.Errorf("instance %s launched in %v, which has no market", inst.ID, k)
		}
		if inst.State != cloud.StateRunning {
			continue // a trace that moves may have revoked it meanwhile
		}
		if err := p.Terminate(inst.ID, nil); err != nil {
			t.Errorf("terminate %s: %v", inst.ID, err)
		}
	}
	drain()
}
