package cloud

import (
	"math"
	"testing"
)

// FuzzGenerateCatalog checks Validate against what GenerateCatalog makes of
// the spec: any spec it accepts — one fuzzed family beside the default m3
// family — must yield one type per size, unique names, finite positive
// prices and bandwidths, and positive vCPU and memory counts.
func FuzzGenerateCatalog(f *testing.F) {
	for _, fam := range DefaultCatalogSpec().Families[1:] {
		f.Add(fam.Name, fam.Sizes, fam.FirstSize, fam.BaseVCPUs, fam.BaseMemoryMB,
			float64(fam.BaseOnDemand), fam.BaseNetworkMBs, fam.NetworkScale, uint8(3), 0.10, int64(1))
	}
	// Inputs Validate used to accept (TestCatalogSpecValidate has a row
	// for each), and one at the edge of the price range.
	f.Add("x", 1, 0, 1, 1024, 0.1, 10.0, 0.0, uint8(1), math.NaN(), int64(0))
	f.Add("x", 1, 0, 1, 1024, math.NaN(), 10.0, 0.0, uint8(1), 0.0, int64(0))
	f.Add("x", 1, 0, 1, 1024, 0.1, math.Inf(1), 0.0, uint8(1), 0.0, int64(0))
	f.Add("x", 2, 0, 1, 1024, 0.1, 10.0, math.NaN(), uint8(1), 0.0, int64(0))
	f.Add("x", 2, 67, 1, 1024, 0.1, 10.0, 0.0, uint8(1), 0.0, int64(0))
	f.Add("x", 64, 0, 1, 1, 0.1, 10.0, 0.0, uint8(1), 0.0, int64(0))
	f.Add("x", 3, 0, 1, 1024, 1e308, 10.0, 0.0, uint8(1), 0.0, int64(0))
	f.Add("x", 34, 0, 1, 1, 1e-300, 1e-300, 0.5, uint8(1), 0.999999, int64(7))
	f.Fuzz(func(t *testing.T, name string, sizes, first, vcpus, mem int, od, net, scale float64, zones uint8, jitter float64, seed int64) {
		spec := DefaultCatalogSpec()
		spec.Families = []FamilySpec{spec.Families[0], {
			Name: name, Sizes: sizes, FirstSize: first, BaseVCPUs: vcpus, BaseMemoryMB: mem,
			BaseOnDemand: USD(od), BaseNetworkMBs: net, NetworkScale: scale, HVM: true,
		}}
		spec.Zones, spec.PriceJitter, spec.Seed = int(zones), jitter, seed
		cat, err := GenerateCatalog(spec)
		if err != nil {
			return
		}
		if want := spec.Families[0].Sizes + sizes; len(cat.Types) != want {
			t.Fatalf("%d types, want %d", len(cat.Types), want)
		}
		if len(cat.Zones) != int(zones) {
			t.Fatalf("%d zones, want %d", len(cat.Zones), zones)
		}
		seen := map[string]bool{}
		for _, typ := range cat.Types {
			if seen[typ.Name] {
				t.Fatalf("duplicate type %q", typ.Name)
			}
			seen[typ.Name] = true
			if !finitePositive(float64(typ.OnDemand)) || !finitePositive(typ.NetworkMBs) {
				t.Fatalf("%s: price %v, network %v", typ.Name, typ.OnDemand, typ.NetworkMBs)
			}
			if typ.VCPUs < 1 || typ.MemoryMB < 1 {
				t.Fatalf("%s: %d vCPUs, %d MB", typ.Name, typ.VCPUs, typ.MemoryMB)
			}
		}
	})
}
