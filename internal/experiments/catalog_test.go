package experiments

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

func TestCatalogTracesCoverHVMMarkets(t *testing.T) {
	cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
	if err != nil {
		t.Fatal(err)
	}
	traces, err := CatalogTraces(cat, 2*simkit.Day, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cat.HVMTypes()) * len(cat.Zones); len(traces) != want {
		t.Fatalf("trace set has %d markets, want %d", len(traces), want)
	}
	hvm := map[string]bool{}
	for _, typ := range cat.HVMTypes() {
		hvm[typ.Name] = true
	}
	for key := range traces {
		if !hvm[key.Type] {
			t.Errorf("trace generated for %s, not an HVM type of the catalog", key.Type)
		}
	}
	// Parallel generation must be byte-identical to sequential.
	seq, err := CatalogTraces(cat, 2*simkit.Day, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := CatalogTraces(cat, 2*simkit.Day, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("trace set depends on worker count")
	}
}

func TestCatalogVolatilityLadder(t *testing.T) {
	cases := map[int]spotmarket.Volatility{
		1: spotmarket.VolatilityLow,
		2: spotmarket.VolatilityMedium,
		4: spotmarket.VolatilityHigh,
		8: spotmarket.VolatilityExtreme,
	}
	for vcpus, want := range cases {
		if got := catalogVolatility(cloud.InstanceType{VCPUs: vcpus}); got != want {
			t.Errorf("catalogVolatility(%d vCPUs) = %v, want %v", vcpus, got, want)
		}
	}
}

func TestCatalogComparisonSmoke(t *testing.T) {
	const vms = 4
	horizon := 5 * simkit.Day
	rows, err := CatalogComparison(vms, horizon, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantPolicies := []string{"1P-M", "4P-ED", "greedy-4pool", "cheapest-compatible"}
	if len(rows) != len(wantPolicies) {
		t.Fatalf("got %d rows, want %d", len(rows), len(wantPolicies))
	}
	for i, row := range rows {
		if row.Policy != wantPolicies[i] {
			t.Errorf("row %d policy = %s, want %s", i, row.Policy, wantPolicies[i])
		}
		if row.CostPerVMHour <= 0 {
			t.Errorf("%s: cost per VM-hour = %v, want > 0", row.Policy, row.CostPerVMHour)
		}
		if row.AvailabilityPct <= 0 || row.AvailabilityPct > 100 {
			t.Errorf("%s: availability = %v%%, want (0, 100]", row.Policy, row.AvailabilityPct)
		}
		if row.Revocations < 0 || row.Migrations < 0 {
			t.Errorf("%s: negative counters: %+v", row.Policy, row)
		}
	}
	if rows[0].Markets != 1 || rows[1].Markets != 4 {
		t.Errorf("fixed-type arms report %d/%d markets, want 1/4", rows[0].Markets, rows[1].Markets)
	}
	if rows[3].Markets != 54 {
		t.Errorf("cheapest-compatible spans %d markets, want 54", rows[3].Markets)
	}
	// The whole point of market diversification: spending the entire catalog
	// must not cost more than the single fixed medium pool.
	if rows[3].CostPerVMHour > rows[0].CostPerVMHour {
		t.Errorf("cheapest-compatible ($%.4f/VM-hour) costs more than 1P-M ($%.4f/VM-hour)",
			rows[3].CostPerVMHour, rows[0].CostPerVMHour)
	}
	// Determinism: the sweep must not depend on the worker count.
	par, err := CatalogComparison(vms, horizon, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, par) {
		t.Errorf("catalog comparison depends on worker count:\nseq: %+v\npar: %+v", rows, par)
	}

	table := CatalogComparisonTable(rows, vms).String()
	for _, want := range []string{"Catalog comparison", "cheapest-compatible", "$/VM-hour", "Availability(%)"} {
		if !strings.Contains(table, want) {
			t.Errorf("rendered table missing %q:\n%s", want, table)
		}
	}
}

// largeCatalogChoose returns one cheapest-compatible placement decision over
// the full generated catalog (18 HVM types × 3 zones = 54 spot markets) —
// the catalog scan, feasibility filter and per-slice price comparison that
// run on every acquisition at scale — and the number of markets it scans.
func largeCatalogChoose(tb testing.TB) (choose func() error, markets int) {
	cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
	if err != nil {
		tb.Fatal(err)
	}
	traces, err := CatalogTraces(cat, 2*simkit.Day, 42)
	if err != nil {
		tb.Fatal(err)
	}
	plat, err := cloudsim.New(simkit.NewScheduler(), cloudsim.Config{
		Traces:    traces,
		Catalog:   cat.Types,
		Zones:     cat.Zones,
		Latencies: cloudsim.ZeroOpLatencies(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	req, ok := plat.TypeByName(cloud.M3Medium)
	if !ok {
		tb.Fatal("m3.medium missing from generated catalog")
	}
	ctx := &core.PlacementContext{
		Requested: req,
		Provider:  plat,
		History:   core.NewHistory(),
		Rand:      rand.New(rand.NewSource(42)),
	}
	policy := core.NewCheapestCompatiblePolicy(nil)
	return func() error {
		_, _, err := policy.Choose(ctx)
		return err
	}, len(traces)
}

// BenchmarkChooseCompatibleLargeCatalog measures largeCatalogChoose.
func BenchmarkChooseCompatibleLargeCatalog(b *testing.B) {
	choose, markets := largeCatalogChoose(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := choose(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(markets), "markets")
}

// The decision runs on every acquisition, so what it allocates must not
// grow with the markets scanned: only the provider's copies of its catalog
// and zone list.
func TestChooseCompatibleLargeCatalogAllocs(t *testing.T) {
	choose, _ := largeCatalogChoose(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := choose(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Choose over the 54-market catalog allocates %.1f allocs/op, want <= 2", allocs)
	}
}
