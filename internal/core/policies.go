package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/cloud"
	"repro/internal/spotmarket"
)

// ErrUnknownMarket reports a policy market list naming an instance type the
// provider's catalog does not carry. This is a configuration bug (a typo'd
// type or a market list built for a different catalog), so policies fail
// fast with it instead of silently shrinking their candidate set.
var ErrUnknownMarket = errors.New("core: market names a type missing from the provider catalog")

// ---------------------------------------------------------------------------
// Placement policies (Table 2 + §4.2's greedy)

// PlacementContext carries what a placement policy may consult.
type PlacementContext struct {
	// Requested is the nested VM type the customer asked for.
	Requested cloud.InstanceType
	// Provider gives catalog and current prices.
	Provider cloud.Provider
	// History gives trailing prices and revocation counts.
	History *History
	// Rand drives probabilistic policies deterministically.
	Rand *rand.Rand
}

// PlacementPolicy selects the spot market (native type + zone) that hosts a
// new nested VM.
type PlacementPolicy interface {
	Name() string
	Choose(ctx *PlacementContext) (typ string, zone cloud.Zone, err error)
}

// roundRobin cycles deterministically through markets (1P/2P/4P policies).
type roundRobin struct {
	name    string
	markets []spotmarket.MarketKey
	next    int
}

func (p *roundRobin) Name() string { return p.name }

func (p *roundRobin) Choose(*PlacementContext) (string, cloud.Zone, error) {
	if len(p.markets) == 0 {
		return "", "", fmt.Errorf("core: policy %s has no markets", p.name)
	}
	m := p.markets[p.next%len(p.markets)]
	p.next++
	return m.Type, m.Zone, nil
}

// NewRoundRobinPolicy distributes VMs equally across the given markets.
func NewRoundRobinPolicy(name string, markets []spotmarket.MarketKey) PlacementPolicy {
	return &roundRobin{name: name, markets: markets}
}

// NewZoneSpreadPolicy distributes VMs of one native type equally across
// availability zones. Prices are uncorrelated across zones (Figure 6c), so
// zone spreading reduces storm risk exactly like type spreading (§4.4:
// SpotCheck's strategies operate across types *and* zones).
func NewZoneSpreadPolicy(typ string, zones []cloud.Zone) PlacementPolicy {
	markets := make([]spotmarket.MarketKey, len(zones))
	for i, z := range zones {
		markets[i] = spotmarket.MarketKey{Type: typ, Zone: z}
	}
	return &roundRobin{name: fmt.Sprintf("%dZ-%s", len(zones), typ), markets: markets}
}

// defaultZone is the zone the named Table 2 policies use; the paper runs
// its microbenchmarks in a single availability zone.
const defaultZone = cloud.Zone("zone-a")

// Policy1PM maps all VMs to the single m3.medium pool ("1P-M").
func Policy1PM() PlacementPolicy {
	return NewRoundRobinPolicy("1P-M", []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: defaultZone},
	})
}

// Policy2PML distributes VMs equally between the m3.medium and m3.large
// pools ("2P-ML").
func Policy2PML() PlacementPolicy {
	return NewRoundRobinPolicy("2P-ML", []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: defaultZone},
		{Type: cloud.M3Large, Zone: defaultZone},
	})
}

func fourPools() []spotmarket.MarketKey {
	return []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: defaultZone},
		{Type: cloud.M3Large, Zone: defaultZone},
		{Type: cloud.M3XLarge, Zone: defaultZone},
		{Type: cloud.M32XLarge, Zone: defaultZone},
	}
}

// Policy4PED distributes VMs equally across the four m3 pools ("4P-ED").
func Policy4PED() PlacementPolicy {
	return NewRoundRobinPolicy("4P-ED", fourPools())
}

// weighted picks markets with probability proportional to a weight
// function over history (4P-COST, 4P-ST).
type weighted struct {
	name    string
	markets []spotmarket.MarketKey
	weight  func(*PlacementContext, spotmarket.MarketKey) float64
}

func (p *weighted) Name() string { return p.name }

func (p *weighted) Choose(ctx *PlacementContext) (string, cloud.Zone, error) {
	if len(p.markets) == 0 {
		return "", "", fmt.Errorf("core: policy %s has no markets", p.name)
	}
	weights := make([]float64, len(p.markets))
	var total float64
	for i, m := range p.markets {
		w := p.weight(ctx, m)
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			w = 0
		}
		weights[i] = w
		total += w
	}
	if total <= 0 {
		// No history yet: fall back to uniform.
		m := p.markets[ctx.Rand.Intn(len(p.markets))]
		return m.Type, m.Zone, nil
	}
	x := ctx.Rand.Float64() * total
	for i, m := range p.markets {
		x -= weights[i]
		if x < 0 {
			return m.Type, m.Zone, nil
		}
	}
	last := p.markets[len(p.markets)-1]
	return last.Type, last.Zone, nil
}

// Policy4PCOST weights the four pools by inverse trailing unit cost: "the
// lower the cost of the pool over a period, the higher the probability of
// mapping a VM into that pool" ("4P-COST"). Prices are normalised per slot
// of the requested type so large, sliceable servers compete fairly.
func Policy4PCOST() PlacementPolicy {
	return &weighted{
		name:    "4P-COST",
		markets: fourPools(),
		weight: func(ctx *PlacementContext, m spotmarket.MarketKey) float64 {
			mean := float64(ctx.History.MeanPrice(m))
			if mean <= 0 {
				return 0
			}
			typ, ok := ctx.Provider.TypeByName(m.Type)
			if !ok {
				return 0
			}
			units := typ.Units(ctx.Requested)
			if units <= 0 {
				return 0
			}
			return float64(units) / mean
		},
	}
}

// Policy4PST weights the four pools by inverse observed revocations: "the
// fewer the number of migrations over a period, the higher the probability
// of mapping a VM into that pool" ("4P-ST").
func Policy4PST() PlacementPolicy {
	return &weighted{
		name:    "4P-ST",
		markets: fourPools(),
		weight: func(ctx *PlacementContext, m spotmarket.MarketKey) float64 {
			return 1 / (1 + float64(ctx.History.Revocations(m)))
		},
	}
}

// marketKeyLess is the canonical (Type, Zone) order used for deterministic
// tie-breaking: equal scores resolve to the lexicographically smallest
// market, never to market-list order — so callers that build market lists
// from map iteration cannot produce order-dependent placements.
func marketKeyLess(a, b spotmarket.MarketKey) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	return a.Zone < b.Zone
}

// errNoFeasible formats a policy's empty-candidate-set failure, naming every
// market that was skipped and why, so a misconfigured market list or a
// market-wide price outage is diagnosable from the error alone.
func errNoFeasible(policy string, considered int, skipped []string) error {
	if len(skipped) == 0 {
		return fmt.Errorf("core: policy %s found no feasible market among %d candidates", policy, considered)
	}
	return fmt.Errorf("core: policy %s found no feasible market among %d candidates (skipped %s)",
		policy, considered, strings.Join(skipped, "; "))
}

// greedyCheapest implements §4.2's default acquisition: pick the market
// whose *current* spot price per slot of the requested type is lowest,
// exploiting non-proportional size-to-price ratios (arbitrage via slicing).
type greedyCheapest struct {
	markets []spotmarket.MarketKey
}

func (p *greedyCheapest) Name() string { return "greedy-cheapest" }

func (p *greedyCheapest) Choose(ctx *PlacementContext) (string, cloud.Zone, error) {
	best := -1
	bestUnit := math.Inf(1)
	var skipped []string
	for i, m := range p.markets {
		typ, ok := ctx.Provider.TypeByName(m.Type)
		if !ok {
			// A typo'd market list would otherwise silently shrink the
			// candidate set; unknown types are config bugs, not markets to
			// skip.
			return "", "", fmt.Errorf("%w: %v", ErrUnknownMarket, m)
		}
		units := typ.Units(ctx.Requested)
		if units <= 0 {
			skipped = append(skipped, fmt.Sprintf("%v: cannot host %s", m, ctx.Requested.Name))
			continue
		}
		price, err := ctx.Provider.SpotPrice(m.Type, m.Zone)
		if err != nil {
			// Transient lookup failure: record and move on.
			skipped = append(skipped, fmt.Sprintf("%v: price: %v", m, err))
			continue
		}
		unit := float64(price) / float64(units)
		if unit < bestUnit || (unit == bestUnit && best >= 0 && marketKeyLess(m, p.markets[best])) {
			bestUnit = unit
			best = i
		}
	}
	if best < 0 {
		return "", "", errNoFeasible(p.Name(), len(p.markets), skipped)
	}
	return p.markets[best].Type, p.markets[best].Zone, nil
}

// NewGreedyCheapestPolicy returns the cheapest-per-slot policy over the
// given markets (defaults to the four m3 pools when markets is nil).
func NewGreedyCheapestPolicy(markets []spotmarket.MarketKey) PlacementPolicy {
	if markets == nil {
		markets = fourPools()
	}
	return &greedyCheapest{markets: markets}
}

// cheapestCompatible extends greedy-cheapest from a fixed market list to the
// provider's whole catalog: any HVM type that dominates the requested
// baseline (vCPU, memory, and per-slice network — cloud.CompatibleUnits) in
// any zone is a candidate, and the policy buys the one whose current spot
// price per slice is lowest. This is the market-diversification acquisition
// a derivative cloud at scale wants: tens of independent markets instead of
// four, so one market's spike neither strands capacity nor forces a
// correlated revocation storm.
type cheapestCompatible struct {
	zones []cloud.Zone
}

func (p *cheapestCompatible) Name() string { return "cheapest-compatible" }

func (p *cheapestCompatible) Choose(ctx *PlacementContext) (string, cloud.Zone, error) {
	zones := p.zones
	if zones == nil {
		zones = ctx.Provider.Zones()
	}
	var (
		bestKey  spotmarket.MarketKey
		bestUnit float64
		found    bool
		total    int
		skipped  []string
	)
	for _, typ := range ctx.Provider.Catalog() {
		// Feasibility: HVM (the nested hypervisor requirement) and
		// dominating the baseline on every axis after slicing.
		units := typ.CompatibleUnits(ctx.Requested)
		if units <= 0 {
			continue
		}
		for _, zone := range zones {
			total++
			key := spotmarket.MarketKey{Type: typ.Name, Zone: zone}
			price, err := ctx.Provider.SpotPrice(typ.Name, zone)
			if err != nil {
				// Catalog × zones may exceed the traced markets (or a
				// lookup may transiently fail); record and move on.
				skipped = append(skipped, fmt.Sprintf("%v: price: %v", key, err))
				continue
			}
			unit := float64(price) / float64(units)
			if !found || unit < bestUnit || (unit == bestUnit && marketKeyLess(key, bestKey)) {
				found, bestUnit, bestKey = true, unit, key
			}
		}
	}
	if !found {
		return "", "", errNoFeasible(p.Name(), total, skipped)
	}
	return bestKey.Type, bestKey.Zone, nil
}

// NewCheapestCompatiblePolicy returns the catalog-wide cheapest-compatible
// acquisition policy. zones restricts the search; nil means every zone the
// provider reports. Ties on per-slice price resolve to the lexicographically
// smallest market key, so placements are deterministic however the catalog
// is ordered.
func NewCheapestCompatiblePolicy(zones []cloud.Zone) PlacementPolicy {
	return &cheapestCompatible{zones: zones}
}

// ---------------------------------------------------------------------------
// Bidding policies (§4.3)

// BiddingPolicy determines the bid for every server in a spot pool.
type BiddingPolicy interface {
	Name() string
	// Bid maps the equivalent on-demand price to the pool's bid.
	Bid(onDemand cloud.USD) cloud.USD
	// Proactive reports whether the controller should live-migrate off a
	// spot pool as soon as its price exceeds the on-demand price (feasible
	// only when the bid leaves headroom above the on-demand price).
	Proactive() bool
}

// OnDemandBid bids exactly the on-demand price: revocations then coincide
// with the moments on-demand capacity becomes the cheaper option, which the
// paper observes approximates bidding at the knee of the availability-bid
// curve.
type OnDemandBid struct{}

// Name implements BiddingPolicy.
func (OnDemandBid) Name() string { return "bid=od" }

// Bid implements BiddingPolicy.
func (OnDemandBid) Bid(od cloud.USD) cloud.USD { return od }

// Proactive implements BiddingPolicy.
func (OnDemandBid) Proactive() bool { return false }

// MultipleBid bids K times the on-demand price (K > 1) and migrates
// proactively once the price crosses the on-demand price, trading a higher
// worst-case hourly cost for fewer forced revocations.
type MultipleBid struct{ K float64 }

// Name implements BiddingPolicy.
func (m MultipleBid) Name() string { return fmt.Sprintf("bid=%gx-od", m.K) }

// Bid implements BiddingPolicy.
func (m MultipleBid) Bid(od cloud.USD) cloud.USD { return cloud.USD(m.K * float64(od)) }

// Proactive implements BiddingPolicy.
func (m MultipleBid) Proactive() bool { return true }

// ---------------------------------------------------------------------------
// Destination policies (§4.3)

// DestinationPolicy selects where revoked nested VMs are re-hosted.
type DestinationPolicy int

const (
	// DestOnDemand lazily requests fresh on-demand servers on each
	// revocation. Feasible because on-demand startup (~62 s) fits inside
	// the 120 s warning.
	DestOnDemand DestinationPolicy = iota
	// DestHotSpare keeps pre-launched idle on-demand servers and migrates
	// into them instantly, replenishing the spare pool afterwards.
	DestHotSpare
	// DestStaging parks revoked VMs in spare slots on existing hosts in
	// other pools, then performs a second (live) migration to a fresh
	// server — reducing risk without standing spare cost, at the price of
	// doubled migrations.
	DestStaging
)

func (d DestinationPolicy) String() string {
	switch d {
	case DestOnDemand:
		return "lazy-on-demand"
	case DestHotSpare:
		return "hot-spare"
	case DestStaging:
		return "staging"
	default:
		return fmt.Sprintf("destination(%d)", int(d))
	}
}
