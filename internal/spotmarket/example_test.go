package spotmarket_test

import (
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// A price trace is a step function; bidding above a spike's peak buys full
// availability, bidding below it does not.
func ExampleTrace() {
	tr, err := spotmarket.NewTrace([]spotmarket.Point{
		{T: 0, Price: 0.01},
		{T: 10 * simkit.Hour, Price: 0.50}, // spike
		{T: 11 * simkit.Hour, Price: 0.01},
	}, 20*simkit.Hour)
	if err != nil {
		panic(err)
	}
	fmt.Printf("price at 10h30m: $%.2f/hr\n", float64(tr.PriceAt(10*simkit.Hour+30*simkit.Minute)))
	fmt.Printf("availability at a $0.07 bid: %.0f%%\n", 100*tr.FractionBelow(0.07, 0, tr.End()))
	fmt.Printf("revocations: %d\n", len(tr.ExcursionsAbove(0.07)))
	fmt.Printf("20h rental cost: $%.3f\n", float64(tr.Integrate(0, 20*simkit.Hour)))
	// Output:
	// price at 10h30m: $0.50/hr
	// availability at a $0.07 bid: 95%
	// revocations: 1
	// 20h rental cost: $0.690
}

// The synthetic generator is deterministic per seed and calibrated so the
// market trades at a deep discount to the on-demand price.
func ExampleGenerate() {
	cfg := spotmarket.DefaultConfig(cloud.USD(0.07), spotmarket.VolatilityLow)
	tr, err := spotmarket.Generate(cfg, 30*simkit.Day, newSeededRand(42))
	if err != nil {
		panic(err)
	}
	mean := float64(tr.MeanPrice(0, tr.End()))
	fmt.Printf("deep discount: %v\n", mean < 0.07/3)
	// Output: deep discount: true
}

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
