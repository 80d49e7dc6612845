package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

func testCtx(t *testing.T, h *History) *PlacementContext {
	t.Helper()
	r := newRig(t, nil, nil)
	if h == nil {
		h = NewHistory()
	}
	return &PlacementContext{
		Requested: mustType(t, r, cloud.M3Medium),
		Provider:  r.plat,
		History:   h,
		Rand:      rand.New(rand.NewSource(1)),
	}
}

func mustType(t *testing.T, r *testRig, name string) cloud.InstanceType {
	t.Helper()
	typ, ok := r.plat.TypeByName(name)
	if !ok {
		t.Fatalf("type %s missing", name)
	}
	return typ
}

func TestHistoryWindowStats(t *testing.T) {
	h := NewHistory()
	key := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	if h.MeanPrice(key) != 0 || h.Revocations(key) != 0 {
		t.Error("empty history should be zeros")
	}
	for _, p := range []float64{0.01, 0.02, 0.03} {
		h.ObservePrice(key, cloud.USD(p))
	}
	if m := float64(h.MeanPrice(key)); math.Abs(m-0.02) > 1e-12 {
		t.Errorf("mean = %v, want 0.02", m)
	}
	h.ObserveRevocation(key)
	h.ObserveRevocation(key)
	if h.Revocations(key) != 2 {
		t.Error("revocation count wrong")
	}
}

func TestHistoryWindowRingBuffer(t *testing.T) {
	h := NewHistory()
	key := spotmarket.MarketKey{Type: "x", Zone: "z"}
	// Fill far past the window with 1.0, then push the window full of 2.0:
	// the old samples must age out entirely.
	for i := 0; i < priceWindowCap; i++ {
		h.ObservePrice(key, 1.0)
	}
	for i := 0; i < priceWindowCap; i++ {
		h.ObservePrice(key, 2.0)
	}
	if m := float64(h.MeanPrice(key)); m != 2.0 {
		t.Errorf("mean after rollover = %v, want 2.0 (window fully replaced)", m)
	}
}

func TestRoundRobinPolicyCycles(t *testing.T) {
	markets := []spotmarket.MarketKey{
		{Type: "a", Zone: "z"}, {Type: "b", Zone: "z"},
	}
	p := NewRoundRobinPolicy("test", markets)
	ctx := testCtx(t, nil)
	var got []string
	for i := 0; i < 4; i++ {
		typ, _, err := p.Choose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, typ)
	}
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence = %v", got)
		}
	}
	if p.Name() != "test" {
		t.Error("name wrong")
	}
	empty := NewRoundRobinPolicy("empty", nil)
	if _, _, err := empty.Choose(ctx); err == nil {
		t.Error("empty policy should error")
	}
}

func TestNamedPoliciesMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, p := range NamedPolicies() {
		names[p.Name()] = true
	}
	for _, want := range []string{"1P-M", "2P-ML", "4P-ED", "4P-COST", "4P-ST"} {
		if !names[want] {
			t.Errorf("policy %s missing", want)
		}
	}
}

func TestWeightedPolicyFallsBackUniform(t *testing.T) {
	// No history: 4P-COST weights are all zero; the choice must still
	// succeed (uniform fallback) and stay within the four pools.
	p := Policy4PCOST()
	ctx := testCtx(t, nil)
	seen := map[string]bool{}
	for i := 0; i < 40; i++ {
		typ, zone, err := p.Choose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if zone != "zone-a" {
			t.Errorf("zone = %v", zone)
		}
		seen[typ] = true
	}
	if len(seen) < 3 {
		t.Errorf("uniform fallback explored only %v", seen)
	}
}

func TestWeightedPolicyPrefersCheapHistory(t *testing.T) {
	h := NewHistory()
	// Medium trades at a deep discount; the others are expensive per slot.
	h.ObservePrice(spotmarket.MarketKey{Type: cloud.M3Medium, Zone: defaultZone}, 0.001)
	h.ObservePrice(spotmarket.MarketKey{Type: cloud.M3Large, Zone: defaultZone}, 0.10)
	h.ObservePrice(spotmarket.MarketKey{Type: cloud.M3XLarge, Zone: defaultZone}, 0.25)
	h.ObservePrice(spotmarket.MarketKey{Type: cloud.M32XLarge, Zone: defaultZone}, 0.50)
	p := Policy4PCOST()
	ctx := testCtx(t, h)
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		typ, _, err := p.Choose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts[typ]++
	}
	if counts[cloud.M3Medium] < 150 {
		t.Errorf("cheap pool chosen %d/200 times, want overwhelming majority: %v", counts[cloud.M3Medium], counts)
	}
}

func TestStabilityWeightedAvoidsRevokedPools(t *testing.T) {
	h := NewHistory()
	// The medium pool has been revoked often; others never.
	for i := 0; i < 50; i++ {
		h.ObserveRevocation(spotmarket.MarketKey{Type: cloud.M3Medium, Zone: defaultZone})
	}
	p := Policy4PST()
	ctx := testCtx(t, h)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		typ, _, err := p.Choose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		counts[typ]++
	}
	// Weight 1/51 vs 1 for the others: medium should get ~2% of picks.
	if counts[cloud.M3Medium] > 30 {
		t.Errorf("revoked pool still chosen %d/300 times: %v", counts[cloud.M3Medium], counts)
	}
}

func TestGreedySkipsInfeasibleMarkets(t *testing.T) {
	// Greedy over a market list including a type too small for the
	// request: it must skip it rather than slice impossibly.
	r := newRig(t, nil, nil)
	p := NewGreedyCheapestPolicy([]spotmarket.MarketKey{
		{Type: cloud.M1Small, Zone: "zone-a"}, // cannot host a medium
		{Type: cloud.M3Medium, Zone: "zone-a"},
	})
	ctx := &PlacementContext{
		Requested: mustType(t, r, cloud.M3Medium),
		Provider:  r.plat,
		History:   NewHistory(),
		Rand:      rand.New(rand.NewSource(1)),
	}
	typ, _, err := p.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if typ != cloud.M3Medium {
		t.Errorf("greedy chose %s", typ)
	}
	if p.Name() != "greedy-cheapest" {
		t.Error("name wrong")
	}
	// All markets infeasible: error.
	bad := NewGreedyCheapestPolicy([]spotmarket.MarketKey{{Type: cloud.M1Small, Zone: "zone-a"}})
	if _, _, err := bad.Choose(ctx); err == nil {
		t.Error("infeasible market list accepted")
	}
}

func TestPoliciesFailFastOnUnknownMarket(t *testing.T) {
	// A market list naming a type outside the provider catalog is a config
	// bug (typo'd list or a list built for a different catalog). The
	// list-driven policy must fail fast with ErrUnknownMarket — not
	// silently shrink the candidate set — and name the offending market.
	ctx := testCtx(t, nil)
	markets := []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: "zone-a"},
		{Type: "m9.imaginary", Zone: "zone-a"},
	}
	_, _, err := NewGreedyCheapestPolicy(markets).Choose(ctx)
	if !errors.Is(err, ErrUnknownMarket) {
		t.Errorf("err = %v, want ErrUnknownMarket", err)
	}
	if err == nil || !strings.Contains(err.Error(), "m9.imaginary") {
		t.Errorf("error should name the market, got %v", err)
	}
}

func TestNoFeasibleErrorNamesSkippedMarkets(t *testing.T) {
	ctx := testCtx(t, nil)
	// m1.small is in the catalog but cannot host a medium (infeasible);
	// m3.medium/zone-b is a known type with no trace (price lookup fails).
	// Both skips must be diagnosable from the error text.
	p := NewGreedyCheapestPolicy([]spotmarket.MarketKey{
		{Type: cloud.M1Small, Zone: "zone-a"},
		{Type: cloud.M3Medium, Zone: "zone-b"},
	})
	_, _, err := p.Choose(ctx)
	if err == nil {
		t.Fatal("expected no-feasible error")
	}
	for _, want := range []string{"m1.small", "cannot host", "zone-b", "price:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

func TestGreedyTieBreaksLexicographically(t *testing.T) {
	// Medium at $0.01 for 1 slice and large at $0.02 for 2 slices price to
	// the same $0.01/slice. The winner must be the lexicographically
	// smallest market key (m3.large < m3.medium) in either list order.
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd),
		{Type: cloud.M3Large, Zone: "zone-a"}:  makeTrace(t, 0.02, testEnd),
	}
	r := newRig(t, traces, nil)
	ctx := &PlacementContext{
		Requested: mustType(t, r, cloud.M3Medium),
		Provider:  r.plat,
		History:   NewHistory(),
		Rand:      rand.New(rand.NewSource(1)),
	}
	markets := []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: "zone-a"},
		{Type: cloud.M3Large, Zone: "zone-a"},
	}
	for _, order := range [][]spotmarket.MarketKey{
		markets,
		{markets[1], markets[0]},
	} {
		typ, _, err := NewGreedyCheapestPolicy(order).Choose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if typ != cloud.M3Large {
			t.Errorf("order %v: tie broke to %s, want m3.large", order, typ)
		}
	}
}

// catalogRig builds a platform over the generated default catalog with flat
// traces for HVM markets in the given zones; prices vary deterministically
// per market so unit costs differ.
func catalogRig(t *testing.T, tracedZones []cloud.Zone) *cloudsim.Platform {
	t.Helper()
	cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
	if err != nil {
		t.Fatal(err)
	}
	traces := spotmarket.Set{}
	for i, typ := range cat.HVMTypes() {
		for j, zone := range tracedZones {
			price := cloud.USD(float64(typ.OnDemand) * (0.05 + 0.011*float64((i+3*j)%7)))
			traces[spotmarket.MarketKey{Type: typ.Name, Zone: zone}] = makeTrace(t, price, testEnd)
		}
	}
	plat, err := cloudsim.New(simkit.NewScheduler(), cloudsim.Config{
		Traces:    traces,
		Catalog:   cat.Types,
		Zones:     cat.Zones,
		Latencies: cloudsim.ZeroOpLatencies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return plat
}

func TestCheapestCompatibleNeverDominated(t *testing.T) {
	// Property: over the full generated catalog (zone-c untraced, so the
	// policy must tolerate price-lookup failures), the chosen market's
	// per-slice price is the minimum over every feasible market, with ties
	// resolved to the lexicographically smallest key.
	plat := catalogRig(t, []cloud.Zone{"zone-a", "zone-b"})
	req, ok := plat.TypeByName(cloud.M3Medium)
	if !ok {
		t.Fatal("m3.medium missing from generated catalog")
	}
	p := NewCheapestCompatiblePolicy(nil)
	if p.Name() != "cheapest-compatible" {
		t.Error("name wrong")
	}
	ctx := &PlacementContext{Requested: req, Provider: plat, History: NewHistory(), Rand: rand.New(rand.NewSource(1))}
	typ, zone, err := p.Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	chosen := spotmarket.MarketKey{Type: typ, Zone: zone}
	chosenType, ok := plat.TypeByName(typ)
	if !ok {
		t.Fatalf("chose unknown type %s", typ)
	}
	chosenUnits := chosenType.CompatibleUnits(req)
	if chosenUnits <= 0 {
		t.Fatalf("chose infeasible market %v", chosen)
	}
	price, err := plat.SpotPrice(typ, zone)
	if err != nil {
		t.Fatalf("chose untraced market %v: %v", chosen, err)
	}
	chosenUnit := float64(price) / float64(chosenUnits)
	feasible := 0
	for _, cand := range plat.Catalog() {
		units := cand.CompatibleUnits(req)
		if units <= 0 {
			continue
		}
		for _, z := range plat.Zones() {
			p, err := plat.SpotPrice(cand.Name, z)
			if err != nil {
				continue
			}
			feasible++
			unit := float64(p) / float64(units)
			key := spotmarket.MarketKey{Type: cand.Name, Zone: z}
			if unit < chosenUnit {
				t.Errorf("market %v at $%.6f/slice dominates chosen %v at $%.6f/slice", key, unit, chosen, chosenUnit)
			}
			if unit == chosenUnit && marketKeyLess(key, chosen) {
				t.Errorf("tie with %v should have broken away from %v", key, chosen)
			}
		}
	}
	// Sanity: the catalog sweep actually considered many markets.
	if feasible < 20 {
		t.Errorf("only %d feasible markets; catalog sweep too small to be meaningful", feasible)
	}
}

func TestCheapestCompatibleNoFeasible(t *testing.T) {
	plat := catalogRig(t, []cloud.Zone{"zone-a"})
	// Nothing in the catalog dominates a 128-vCPU monster.
	ctx := &PlacementContext{
		Requested: cloud.InstanceType{Name: "huge", VCPUs: 128, MemoryMB: 1 << 20, NetworkMBs: 10000},
		Provider:  plat,
		History:   NewHistory(),
		Rand:      rand.New(rand.NewSource(1)),
	}
	if _, _, err := NewCheapestCompatiblePolicy(nil).Choose(ctx); err == nil {
		t.Error("infeasible request accepted")
	}
}

func TestCheapestCompatibleZoneRestriction(t *testing.T) {
	plat := catalogRig(t, []cloud.Zone{"zone-a", "zone-b"})
	req, _ := plat.TypeByName(cloud.M3Medium)
	ctx := &PlacementContext{Requested: req, Provider: plat, History: NewHistory(), Rand: rand.New(rand.NewSource(1))}
	_, zone, err := NewCheapestCompatiblePolicy([]cloud.Zone{"zone-b"}).Choose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if zone != "zone-b" {
		t.Errorf("zone-restricted policy chose %v", zone)
	}
}

func TestBiddingPolicies(t *testing.T) {
	od := OnDemandBid{}
	if od.Bid(0.07) != 0.07 || od.Proactive() || od.Name() != "bid=od" {
		t.Error("OnDemandBid wrong")
	}
	m := MultipleBid{K: 1.5}
	if math.Abs(float64(m.Bid(0.07))-0.105) > 1e-12 || !m.Proactive() {
		t.Error("MultipleBid wrong")
	}
	if m.Name() != "bid=1.5x-od" {
		t.Errorf("name = %q", m.Name())
	}
}

func TestDestinationPolicyString(t *testing.T) {
	for d, want := range map[DestinationPolicy]string{
		DestOnDemand: "lazy-on-demand", DestHotSpare: "hot-spare", DestStaging: "staging",
	} {
		if d.String() != want {
			t.Errorf("%d = %q", int(d), d.String())
		}
	}
	if DestinationPolicy(9).String() != "destination(9)" {
		t.Error("unknown destination string")
	}
}

func TestZoneSpreadPolicyName(t *testing.T) {
	p := NewZoneSpreadPolicy(cloud.M3Medium, []cloud.Zone{"zone-a", "zone-b"})
	if p.Name() != "2Z-m3.medium" {
		t.Errorf("name = %q", p.Name())
	}
}

func TestMigrationReasonString(t *testing.T) {
	for r, want := range map[migrationReason]string{
		reasonRevocation: "revocation", reasonProactive: "proactive",
		reasonReturn: "return", reasonStagingHop: "staging-hop",
	} {
		if r.String() != want {
			t.Errorf("%d = %q", int(r), r.String())
		}
	}
	if migrationReason(9).String() != "reason(9)" {
		t.Error("unknown reason string")
	}
}

func TestPoolKeyString(t *testing.T) {
	k := PoolKey{Type: cloud.M3Medium, Zone: "zone-a", Market: cloud.MarketSpot}
	if k.String() != "m3.medium/zone-a/spot" {
		t.Errorf("PoolKey string = %q", k.String())
	}
}
