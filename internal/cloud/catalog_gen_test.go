package cloud

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestGenerateCatalogDeterministicPerSeed(t *testing.T) {
	spec := DefaultCatalogSpec()
	a, err := GenerateCatalog(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCatalog(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same spec and seed must generate identical catalogs")
	}
	spec.Seed++
	c, err := GenerateCatalog(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Types, c.Types) {
		t.Error("different seeds should perturb non-base prices differently")
	}
	// The jitter only moves prices: names, resources and zones are seed-free.
	for i := range a.Types {
		x, y := a.Types[i], c.Types[i]
		y.OnDemand = x.OnDemand
		if !reflect.DeepEqual(x, y) {
			t.Errorf("seed changed more than the price of %s", x.Name)
		}
	}
}

func TestGenerateCatalogDefaultShape(t *testing.T) {
	cat, err := GenerateCatalog(DefaultCatalogSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cat.Types); got != 21 {
		t.Errorf("default catalog has %d types, want 21", got)
	}
	if got := len(cat.HVMTypes()); got != 18 {
		t.Errorf("default catalog has %d HVM types, want 18", got)
	}
	if got := len(cat.Zones); got != 3 {
		t.Errorf("default catalog has %d zones, want 3", got)
	}
	seen := map[string]InstanceType{}
	for _, typ := range cat.Types {
		if _, dup := seen[typ.Name]; dup {
			t.Errorf("duplicate type %q", typ.Name)
		}
		seen[typ.Name] = typ
	}
	// The generated m3.medium must reproduce the paper's type exactly so
	// fixed-type policies run unchanged over the generated catalog.
	gen, ok := seen[M3Medium]
	if !ok {
		t.Fatal("generated catalog lacks m3.medium")
	}
	if want := typeByName(t, M3Medium); gen != want {
		t.Errorf("generated m3.medium = %+v, want paper type %+v", gen, want)
	}
}

func TestGenerateCatalogResourceScaling(t *testing.T) {
	cat, err := GenerateCatalog(DefaultCatalogSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Within a family, each size doubles vCPU and memory, grows network
	// bandwidth, and Units against the family base is monotone in host size.
	for _, fam := range DefaultCatalogSpec().Families {
		var sizes []InstanceType
		for _, typ := range cat.Types {
			if strings.HasPrefix(typ.Name, fam.Name+".") {
				sizes = append(sizes, typ)
			}
		}
		if len(sizes) != fam.Sizes {
			t.Fatalf("family %s has %d sizes, want %d", fam.Name, len(sizes), fam.Sizes)
		}
		base := sizes[0]
		prevUnits := base.Units(base)
		for i := 1; i < len(sizes); i++ {
			p, q := sizes[i-1], sizes[i]
			if q.VCPUs != 2*p.VCPUs || q.MemoryMB != 2*p.MemoryMB {
				t.Errorf("%s should double %s's vCPU/memory", q.Name, p.Name)
			}
			if q.NetworkMBs <= p.NetworkMBs {
				t.Errorf("%s network %v should exceed %s's %v", q.Name, q.NetworkMBs, p.Name, p.NetworkMBs)
			}
			units := q.Units(base)
			if units < prevUnits {
				t.Errorf("Units(%s) not monotone: %s holds %d < %d", base.Name, q.Name, units, prevUnits)
			}
			prevUnits = units
			if !fam.HVM && units != 0 {
				t.Errorf("non-HVM %s must hold 0 units, got %d", q.Name, units)
			}
			// Jitter bounds: non-base prices stay within ±10% of doubling.
			lo := 2 * float64(p.OnDemand) * (1 - 0.10)
			hi := 2 * float64(p.OnDemand) * (1 + 0.10)
			if f := float64(q.OnDemand); f < lo || f > hi {
				t.Errorf("%s price %v outside jitter band [%v, %v]", q.Name, f, lo, hi)
			}
		}
	}
}

func TestCatalogSpecValidate(t *testing.T) {
	ok := DefaultCatalogSpec()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
	fam := func(mutate func(*FamilySpec)) CatalogSpec {
		s := CatalogSpec{Zones: 1, Families: []FamilySpec{{
			Name: "x", Sizes: 1, BaseVCPUs: 1, BaseMemoryMB: 1024,
			BaseOnDemand: 0.1, BaseNetworkMBs: 10,
		}}}
		mutate(&s.Families[0])
		return s
	}
	cases := map[string]CatalogSpec{
		"no families":   {Zones: 1},
		"zero zones":    {Families: ok.Families},
		"too may zones": {Families: ok.Families, Zones: 27},
		"bad jitter":    {Families: ok.Families, Zones: 1, PriceJitter: 1},
		"unnamed":       fam(func(f *FamilySpec) { f.Name = "" }),
		"no sizes":      fam(func(f *FamilySpec) { f.Sizes = 0 }),
		"neg first":     fam(func(f *FamilySpec) { f.FirstSize = -1 }),
		"no vcpus":      fam(func(f *FamilySpec) { f.BaseVCPUs = 0 }),
		"free":          fam(func(f *FamilySpec) { f.BaseOnDemand = 0 }),
		"no network":    fam(func(f *FamilySpec) { f.BaseNetworkMBs = 0 }),
		// Each row below was accepted before Validate checked it.
		"nan jitter":             {Families: ok.Families, Zones: 1, PriceJitter: math.NaN()},
		"nan price":              fam(func(f *FamilySpec) { f.BaseOnDemand = USD(math.NaN()) }),
		"inf price":              fam(func(f *FamilySpec) { f.BaseOnDemand = USD(math.Inf(1)) }),
		"nan network":            fam(func(f *FamilySpec) { f.BaseNetworkMBs = math.NaN() }),
		"inf network":            fam(func(f *FamilySpec) { f.BaseNetworkMBs = math.Inf(1) }),
		"nan network scale":      fam(func(f *FamilySpec) { f.NetworkScale = math.NaN() }),
		"inf network scale":      fam(func(f *FamilySpec) { f.Sizes, f.NetworkScale = 2, math.Inf(1) }),
		"top price overflows":    fam(func(f *FamilySpec) { f.Sizes, f.BaseOnDemand = 3, 1e308 }),
		"top network underflows": fam(func(f *FamilySpec) { f.Sizes, f.NetworkScale = 3, 1e-300 }),
		"first size wraps name":  fam(func(f *FamilySpec) { f.FirstSize, f.Sizes = 67, 2 }),
		"sizes overflow vcpus":   fam(func(f *FamilySpec) { f.Sizes = 64 }),
		"vcpus overflow":         fam(func(f *FamilySpec) { f.Sizes, f.BaseVCPUs = 2, math.MaxInt }),
		"dup family": {Zones: 1, Families: []FamilySpec{
			fam(func(*FamilySpec) {}).Families[0],
			fam(func(*FamilySpec) {}).Families[0],
		}},
	}
	for name, spec := range cases {
		if _, err := GenerateCatalog(spec); err == nil {
			t.Errorf("%s: GenerateCatalog accepted invalid spec", name)
		}
	}
}

func TestSizeAndZoneNames(t *testing.T) {
	wants := []string{"small", "medium", "large", "xlarge", "2xlarge", "4xlarge", "8xlarge"}
	for i, want := range wants {
		if got := sizeName(i); got != want {
			t.Errorf("sizeName(%d) = %q, want %q", i, got, want)
		}
	}
	if z := zoneName(2); z != Zone("zone-c") {
		t.Errorf("zoneName(2) = %q, want zone-c", z)
	}
}
