// Package experiments reproduces every table and figure of the paper's
// evaluation (§6): price statistics (Figures 1, 6a-d), control-plane
// latencies (Table 1), backup-server microbenchmarks (Figures 7-9), and
// the six-month policy simulations (Figures 10-12, Table 3). Each harness
// returns structured rows/series rendered by internal/analysis, so
// cmd/spotsim, bench and the Example tests print the same artifacts the
// paper reports.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// SixMonths is the paper's evaluation window (April-October 2014).
const SixMonths = 182 * simkit.Day

// MonthsHorizon converts a horizon given in 30-day months to virtual time.
// It rejects a count that is not positive or whose horizon does not fit in
// virtual time; the error reads after the flag's name ("-months " + err).
func MonthsHorizon(months float64) (simkit.Time, error) {
	h := float64(30*simkit.Day) * months
	if !(months > 0) || h >= math.MaxInt64 {
		return 0, fmt.Errorf("must be positive and at most %.0f (got %v)", math.MaxInt64/float64(30*simkit.Day), months)
	}
	return simkit.Time(h), nil
}

// EvalZone is the availability zone the single-zone experiments use.
const EvalZone = cloud.Zone("zone-a")

// evalVolatilities maps the four m3 pools to spike frequencies. The
// m3.medium market is the calm one (its 1P-M policy reaches 99.9989%
// availability); larger types are progressively stormier, consistent with
// the paper's observation that different types see different supply and
// demand.
func evalVolatilities() map[string]spotmarket.Volatility {
	return map[string]spotmarket.Volatility{
		cloud.M3Medium:  spotmarket.VolatilityLow,
		cloud.M3Large:   spotmarket.VolatilityMedium,
		cloud.M3XLarge:  spotmarket.VolatilityHigh,
		cloud.M32XLarge: spotmarket.VolatilityExtreme,
	}
}

// EvalTraces generates the four-market trace set used by the policy
// simulations and the Figure 6a/6b statistics. The optional trailing
// argument bounds GenerateSet's worker pool (absent or <= 0 means
// GOMAXPROCS); traces are byte-identical at every worker count.
func EvalTraces(horizon simkit.Time, seed int64, workers ...int) (spotmarket.Set, error) {
	vols := evalVolatilities()
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range cloud.DefaultCatalog() {
		vol, ok := vols[typ.Name]
		if !ok {
			continue
		}
		key := spotmarket.MarketKey{Type: typ.Name, Zone: EvalZone}
		configs[key] = spotmarket.DefaultConfig(typ.OnDemand, vol)
	}
	return spotmarket.GenerateSet(configs, horizon, seed, workers...)
}

// ZoneTraces generates n same-type markets across synthetic zones for the
// Figure 6c cross-zone correlation matrix. The optional trailing argument
// bounds GenerateSet's worker pool.
func ZoneTraces(n int, horizon simkit.Time, seed int64, workers ...int) (spotmarket.Set, []spotmarket.MarketKey, error) {
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	keys := make([]spotmarket.MarketKey, 0, n)
	for i := 1; i <= n; i++ {
		key := spotmarket.MarketKey{
			Type: cloud.M3Medium,
			Zone: cloud.Zone(fmt.Sprintf("zone-%02d", i)),
		}
		configs[key] = spotmarket.DefaultConfig(cloud.OnDemandPrice(cloud.M3Medium), spotmarket.VolatilityMedium)
		keys = append(keys, key)
	}
	set, err := spotmarket.GenerateSet(configs, horizon, seed, workers...)
	return set, keys, err
}

// TypeTraces generates n distinct-type markets in one zone for the
// Figure 6d cross-type correlation matrix. The optional trailing argument
// bounds GenerateSet's worker pool.
func TypeTraces(n int, horizon simkit.Time, seed int64, workers ...int) (spotmarket.Set, []spotmarket.MarketKey, error) {
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	keys := make([]spotmarket.MarketKey, 0, n)
	for i := 1; i <= n; i++ {
		od := cloud.USD(0.05 + 0.05*float64(i)) // spread of on-demand anchors
		key := spotmarket.MarketKey{
			Type: fmt.Sprintf("type-%02d", i),
			Zone: EvalZone,
		}
		configs[key] = spotmarket.DefaultConfig(od, spotmarket.VolatilityMedium)
		keys = append(keys, key)
	}
	set, err := spotmarket.GenerateSet(configs, horizon, seed, workers...)
	return set, keys, err
}
