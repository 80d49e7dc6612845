package spotmarket

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cloud"
)

// benchSetConfigs builds an n-market config map shaped like the Figure 6c/6d
// correlation experiments (the paper's 18 zones / 15 types): same type
// family, independent zones, medium volatility.
func benchSetConfigs(n int) map[MarketKey]GenConfig {
	configs := make(map[MarketKey]GenConfig, n)
	for i := 1; i <= n; i++ {
		k := MarketKey{Type: cloud.M3Medium, Zone: cloud.Zone(fmt.Sprintf("zone-%02d", i))}
		configs[k] = DefaultConfig(0.07, VolatilityMedium)
	}
	return configs
}

// BenchmarkGenerateSixMonth is the single-trace hot path every experiment
// pays before simulating: one six-month medium-volatility market. The
// episode sweep must stay linear in the number of emitted points.
func BenchmarkGenerateSixMonth(b *testing.B) {
	cfg := DefaultConfig(0.07, VolatilityMedium)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := Generate(cfg, sixMonths, newRand(42))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// Generating one six-month market allocates a fixed handful of objects (the
// RNG, the pre-sized episode and point slices, the trace) however many
// points it emits; per-point allocation would show up here as thousands.
func TestGenerateSixMonthAllocs(t *testing.T) {
	cfg := DefaultConfig(0.07, VolatilityMedium)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Generate(cfg, sixMonths, newRand(42)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("Generate allocates %.0f allocs/market, want <= 6", allocs)
	}
}

// BenchmarkGenerateSetParallel generates an 18-market six-month set (the
// Figure 6c workload) at several worker counts. Markets derive independent
// RNG streams from seed ^ hashKey(k), so every worker count produces the
// same bytes; only wall-clock changes.
func BenchmarkGenerateSetParallel(b *testing.B) {
	configs := benchSetConfigs(18)
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				set, err := GenerateSet(configs, sixMonths, 11, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(set) != len(configs) {
					b.Fatal("short set")
				}
			}
		})
	}
}
