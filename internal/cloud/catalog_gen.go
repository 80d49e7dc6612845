package cloud

import (
	"fmt"
	"math"
	"math/rand"
)

// This file generates large instance-type catalogs. The paper evaluates
// SpotCheck over four fixed m3 pools; a derivative cloud serving heavy
// traffic wants to buy *any* spot type at least as powerful as the
// requested baseline and cheapest right now (market diversification, per
// Cloud Index Tracking and heterogeneous spot provisioning). GenerateCatalog
// produces the substrate for that: parameterized families × sizes × zones,
// tens of types with realistic vCPU/memory/network/price scaling,
// deterministic from a seed.

// FamilySpec parameterises one instance family (m3-like, c3-like, ...).
// Sizes double vCPU, memory and the on-demand anchor price per step;
// network bandwidth scales by NetworkScale per step (sub-linear in real
// clouds: bigger boxes share NICs less favourably than they share cores).
type FamilySpec struct {
	// Name is the family prefix ("m3" renders types "m3.medium", ...).
	Name string
	// Sizes is how many doubling steps the family offers (>= 1).
	Sizes int
	// FirstSize indexes the smallest size's name: 0 = "small",
	// 1 = "medium", 2 = "large", 3 = "xlarge", then "2xlarge", "4xlarge"...
	FirstSize int
	// Base* describe the smallest size.
	BaseVCPUs      int
	BaseMemoryMB   int
	BaseOnDemand   USD
	BaseNetworkMBs float64
	// NetworkScale multiplies network bandwidth per doubling step.
	// Values <= 0 default to 1.7.
	NetworkScale float64
	// HVM marks the family hardware-virtualization-capable; only HVM
	// types can run the XenBlanket nested hypervisor.
	HVM bool
}

// CatalogSpec parameterises GenerateCatalog.
type CatalogSpec struct {
	Families []FamilySpec
	// Zones is the number of availability zones (>= 1): "zone-a", ...
	Zones int
	// Seed drives the per-type price perturbation. The same spec and seed
	// always generate byte-identical catalogs.
	Seed int64
	// PriceJitter is the maximum fractional deviation of a non-base size's
	// on-demand price from perfect 2x scaling (e.g. 0.10 = ±10%). Base
	// sizes keep their published anchor exactly. The jitter is what makes
	// size-to-price ratios non-proportional — the arbitrage that slicing
	// and cheapest-compatible acquisition exploit (§4.2).
	PriceJitter float64
}

// Catalog is a generated instance-type catalog plus its zones.
type Catalog struct {
	Types []InstanceType
	Zones []Zone
}

// Validate reports specification errors before generation.
func (s CatalogSpec) Validate() error {
	if len(s.Families) == 0 {
		return fmt.Errorf("cloud: catalog spec needs at least one family")
	}
	if s.Zones < 1 {
		return fmt.Errorf("cloud: catalog spec needs at least one zone, got %d", s.Zones)
	}
	if s.Zones > 26 {
		return fmt.Errorf("cloud: catalog spec supports at most 26 zones, got %d", s.Zones)
	}
	if !(s.PriceJitter >= 0 && s.PriceJitter < 1) {
		return fmt.Errorf("cloud: PriceJitter must be in [0,1), got %v", s.PriceJitter)
	}
	seen := map[string]bool{}
	for _, f := range s.Families {
		switch {
		case f.Name == "":
			return fmt.Errorf("cloud: family needs a name")
		case seen[f.Name]:
			return fmt.Errorf("cloud: duplicate family %q", f.Name)
		case f.Sizes < 1:
			return fmt.Errorf("cloud: family %s needs at least one size", f.Name)
		case f.FirstSize < 0 || f.FirstSize > maxSizeIndex:
			return fmt.Errorf("cloud: family %s FirstSize must be in [0,%d], got %d", f.Name, maxSizeIndex, f.FirstSize)
		case f.Sizes > maxSizeIndex+1-f.FirstSize:
			return fmt.Errorf("cloud: family %s runs past the largest size, %s", f.Name, sizeName(maxSizeIndex))
		case f.BaseVCPUs < 1 || f.BaseMemoryMB < 1:
			return fmt.Errorf("cloud: family %s needs positive base resources", f.Name)
		case f.BaseVCPUs > math.MaxInt>>(f.Sizes-1) || f.BaseMemoryMB > math.MaxInt>>(f.Sizes-1):
			return fmt.Errorf("cloud: family %s's largest size overflows its vCPU or memory count", f.Name)
		case !finitePositive(float64(f.BaseOnDemand)):
			return fmt.Errorf("cloud: family %s needs a finite positive base price, got %v", f.Name, f.BaseOnDemand)
		case !finitePositive(f.BaseNetworkMBs):
			return fmt.Errorf("cloud: family %s needs finite positive base network bandwidth, got %v", f.Name, f.BaseNetworkMBs)
		case math.IsNaN(f.NetworkScale) || math.IsInf(f.NetworkScale, 0):
			return fmt.Errorf("cloud: family %s needs a finite NetworkScale, got %v", f.Name, f.NetworkScale)
		}
		// Walk the ladder with the jitter at both extremes: rounding is
		// monotone, so every price GenerateCatalog can draw lies between
		// lo and hi, and every bandwidth is one of net's steps.
		lo, hi, net := float64(f.BaseOnDemand), float64(f.BaseOnDemand), f.BaseNetworkMBs
		for i, scale := 1, f.networkScale(); i < f.Sizes; i++ {
			lo *= 2 * (1 - s.PriceJitter)
			hi *= 2 * (1 + s.PriceJitter)
			net *= scale
		}
		if !finitePositive(lo) || !finitePositive(hi) || !finitePositive(net) {
			return fmt.Errorf("cloud: family %s's largest size has a price or bandwidth out of float range", f.Name)
		}
		seen[f.Name] = true
	}
	return nil
}

// maxSizeIndex is the largest rung of the size ladder, 1073741824xlarge:
// the multiplier sizeName renders, 1<<30, fits an int on every platform.
const maxSizeIndex = 33

func finitePositive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// networkScale is the family's NetworkScale with its default applied.
func (f FamilySpec) networkScale() float64 {
	if f.NetworkScale <= 0 {
		return 1.7
	}
	return f.NetworkScale
}

// sizeName renders the canonical size ladder: small, medium, large, xlarge,
// 2xlarge, 4xlarge, ... (powers of two past xlarge).
func sizeName(idx int) string {
	switch idx {
	case 0:
		return "small"
	case 1:
		return "medium"
	case 2:
		return "large"
	case 3:
		return "xlarge"
	default:
		return fmt.Sprintf("%dxlarge", 1<<(idx-3))
	}
}

// zoneName renders "zone-a" ... "zone-z".
func zoneName(i int) Zone { return Zone(fmt.Sprintf("zone-%c", 'a'+rune(i))) }

// GenerateCatalog expands a spec into a concrete catalog. Generation is
// deterministic: families in spec order, sizes ascending, with one seeded
// RNG stream drawing the price jitter — the same (spec, seed) always yields
// the same catalog, so experiments and their traces are reproducible.
func GenerateCatalog(spec CatalogSpec) (Catalog, error) {
	if err := spec.Validate(); err != nil {
		return Catalog{}, err
	}
	r := rand.New(rand.NewSource(spec.Seed))
	var types []InstanceType
	for _, f := range spec.Families {
		netScale := f.networkScale()
		vcpus, mem, net := f.BaseVCPUs, f.BaseMemoryMB, f.BaseNetworkMBs
		od := float64(f.BaseOnDemand)
		for i := 0; i < f.Sizes; i++ {
			price := od
			if i > 0 {
				// Non-base sizes deviate from perfect doubling by a
				// seeded jitter; base sizes keep the published anchor.
				price *= 1 + spec.PriceJitter*(2*r.Float64()-1)
			}
			types = append(types, InstanceType{
				Name:       fmt.Sprintf("%s.%s", f.Name, sizeName(f.FirstSize+i)),
				VCPUs:      vcpus,
				MemoryMB:   mem,
				OnDemand:   USD(price),
				HVM:        f.HVM,
				NetworkMBs: net,
			})
			vcpus *= 2
			mem *= 2
			od = price * 2
			net *= netScale
		}
	}
	zones := make([]Zone, spec.Zones)
	for i := range zones {
		zones[i] = zoneName(i)
	}
	return Catalog{Types: types, Zones: zones}, nil
}

// HVMTypes returns the catalog's HVM-capable types — the ones SpotCheck can
// actually rent as nested-VM hosts.
func (c Catalog) HVMTypes() []InstanceType {
	out := make([]InstanceType, 0, len(c.Types))
	for _, t := range c.Types {
		if t.HVM {
			out = append(out, t)
		}
	}
	return out
}

// DefaultCatalogSpec is the evaluation catalog: five 2014-era families
// (four HVM, one paravirtual) × three to five sizes × three zones — 21
// types, 18 of them HVM, 54 spot markets. The m3 family's base reproduces
// the paper's m3.medium exactly, and the m1 family's base reproduces
// Figure 1's m1.small, so the paper-era fixed-type policies run unchanged
// over the generated catalog.
func DefaultCatalogSpec() CatalogSpec {
	return CatalogSpec{
		Zones:       3,
		Seed:        1,
		PriceJitter: 0.10,
		Families: []FamilySpec{
			{Name: "m3", Sizes: 4, FirstSize: 1, BaseVCPUs: 1, BaseMemoryMB: 3840, BaseOnDemand: 0.07, BaseNetworkMBs: 60, NetworkScale: 1.7, HVM: true},
			{Name: "c3", Sizes: 5, FirstSize: 2, BaseVCPUs: 2, BaseMemoryMB: 3840, BaseOnDemand: 0.105, BaseNetworkMBs: 65, NetworkScale: 1.7, HVM: true},
			{Name: "r3", Sizes: 5, FirstSize: 2, BaseVCPUs: 2, BaseMemoryMB: 15360, BaseOnDemand: 0.175, BaseNetworkMBs: 55, NetworkScale: 1.6, HVM: true},
			{Name: "i2", Sizes: 4, FirstSize: 3, BaseVCPUs: 4, BaseMemoryMB: 30720, BaseOnDemand: 0.853, BaseNetworkMBs: 95, NetworkScale: 1.5, HVM: true},
			{Name: "m1", Sizes: 3, FirstSize: 0, BaseVCPUs: 1, BaseMemoryMB: 1700, BaseOnDemand: 0.06, BaseNetworkMBs: 60, NetworkScale: 1.5, HVM: false},
		},
	}
}
