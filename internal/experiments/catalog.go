package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// This file holds the generated-catalog comparison: the paper's acquisition
// policies pick among four fixed m3 pools, while a derivative cloud at
// scale buys any spot type at least as powerful as the baseline and
// cheapest right now (cheapest-compatible, market diversification). The
// experiment runs both families over the same generated catalog and trace
// set and reports cost, revocations and availability side by side.

// catalogVolatility buckets a generated type's market by vCPU count —
// larger types see busier markets, mirroring evalVolatilities' m3 ladder
// (medium=low ... 2xlarge=extreme) so the fixed-type arms behave like the
// paper's pools.
func catalogVolatility(typ cloud.InstanceType) spotmarket.Volatility {
	switch {
	case typ.VCPUs <= 1:
		return spotmarket.VolatilityLow
	case typ.VCPUs <= 2:
		return spotmarket.VolatilityMedium
	case typ.VCPUs <= 4:
		return spotmarket.VolatilityHigh
	default:
		return spotmarket.VolatilityExtreme
	}
}

// CatalogTraces generates one spot price trace per HVM market of the
// catalog (types × zones) on PR 5's parallel GenerateSet: markets fan out
// across a bounded worker pool with per-market RNG streams, so the set is
// byte-identical at every worker count. The optional trailing argument
// bounds the pool (absent or <= 0 means GOMAXPROCS).
func CatalogTraces(cat cloud.Catalog, horizon simkit.Time, seed int64, workers ...int) (spotmarket.Set, error) {
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range cat.HVMTypes() {
		cfg := spotmarket.DefaultConfig(typ.OnDemand, catalogVolatility(typ))
		for _, zone := range cat.Zones {
			configs[spotmarket.MarketKey{Type: typ.Name, Zone: zone}] = cfg
		}
	}
	return spotmarket.GenerateSet(configs, horizon, seed, workers...)
}

// CatalogComparisonRow is one policy's outcome over the generated catalog.
type CatalogComparisonRow struct {
	Policy          string
	Markets         int // spot markets the policy may buy in
	CostPerVMHour   float64
	Revocations     int
	AvailabilityPct float64
	Migrations      int
}

// CatalogComparison runs the paper's fixed-type policies and the
// catalog-wide cheapest-compatible policy over the same generated catalog
// (cloud.DefaultCatalogSpec: 18 HVM types × 3 zones = 54 markets) and
// trace set, with network-aware slicing on in every arm so capacities are
// comparable. The four simulations fan out across the sweep engine; the
// optional trailing argument bounds the worker count.
func CatalogComparison(vms int, horizon simkit.Time, seed int64, workers ...int) ([]CatalogComparisonRow, error) {
	return NewSession(sweepWorkers(workers)).CatalogComparison(vms, horizon, seed)
}

// CatalogComparison is the package-level CatalogComparison on the session.
func (s *Session) CatalogComparison(vms int, horizon simkit.Time, seed int64) ([]CatalogComparisonRow, error) {
	cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())
	if err != nil {
		return nil, err
	}
	traces, err := CatalogTraces(cat, horizon, seed, s.workers)
	if err != nil {
		return nil, err
	}
	arms := []struct {
		name    string
		markets int
		factory PolicyFactory
	}{
		{"1P-M", 1, PolicyFactory{Name: "1P-M", New: core.Policy1PM}},
		{"4P-ED", 4, PolicyFactory{Name: "4P-ED", New: core.Policy4PED}},
		{"greedy-4pool", 4, PolicyFactory{Name: "greedy-4pool", New: func() core.PlacementPolicy {
			return core.NewGreedyCheapestPolicy(nil)
		}}},
		{"cheapest-compatible", len(traces), PolicyFactory{Name: "cheapest-compatible", New: func() core.PlacementPolicy {
			return core.NewCheapestCompatiblePolicy(nil)
		}}},
	}
	specs := make([]RunSpec, len(arms))
	for i, arm := range arms {
		specs[i] = RunSpec{ID: "catalog-" + arm.name, Cfg: PolicyRunConfig{
			Policy:              arm.factory,
			Mechanism:           migration.SpotCheckLazy,
			VMs:                 vms,
			Horizon:             horizon,
			Seed:                seed,
			Traces:              traces,
			Catalog:             cat.Types,
			Zones:               cat.Zones,
			NetworkAwareSlicing: true,
		}}
	}
	results, err := s.Sweep(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]CatalogComparisonRow, len(results))
	for i, res := range results {
		rows[i] = CatalogComparisonRow{
			Policy:          arms[i].name,
			Markets:         arms[i].markets,
			CostPerVMHour:   res.CostPerHour(),
			Revocations:     int(res.Metric("spotcheck_revocation_warnings_total")),
			AvailabilityPct: 100 * res.Report.Availability,
			Migrations:      res.Migrations(),
		}
	}
	return rows, nil
}

// CatalogComparisonTable renders the comparison.
func CatalogComparisonTable(rows []CatalogComparisonRow, vms int) *analysis.Table {
	t := analysis.NewTable(
		fmt.Sprintf("Catalog comparison: fixed-type vs cheapest-compatible (N=%d VMs, generated catalog)", vms),
		"Policy", "Markets", "$/VM-hour", "Revocations", "Availability(%)", "Migrations")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Markets, r.CostPerVMHour, r.Revocations, r.AvailabilityPct, r.Migrations)
	}
	return t
}
