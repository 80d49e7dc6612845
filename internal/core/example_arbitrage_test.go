//go:build amd64

// Pinned on amd64 only, like the run digests: other architectures may fuse
// floating-point multiply-adds and move the printed decimals.

package core_test

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// Arbitrage: §4.2's greedy cheapest-first acquisition with slicing. Spot
// prices are not proportional to server size — larger servers are often
// cheaper *per slot* than the small server a customer asked for. SpotCheck
// buys the large server, slices it into nested VMs with the nested
// hypervisor, and pockets the difference.
func Example_arbitrage() {
	// Market conditions from the paper's example: the m3.large spot price
	// ($0.012/hr) is less than twice the m3.medium spot price ($0.010/hr),
	// so a large sliced into two mediums costs $0.006 per slot.
	flat := func(price cloud.USD) *spotmarket.Trace {
		tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: price}}, 1000*simkit.Hour)
		if err != nil {
			panic(err)
		}
		return tr
	}
	markets := []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: "zone-a"},
		{Type: cloud.M3Large, Zone: "zone-a"},
		{Type: cloud.M32XLarge, Zone: "zone-a"},
	}
	sched := simkit.NewScheduler()
	platform, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{
			markets[0]: flat(0.010), // $0.0100 per medium slot
			markets[1]: flat(0.012), // $0.0060 per medium slot  <- cheapest
			markets[2]: flat(0.070), // $0.00875 per medium slot
		},
		Seed: 1,
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("spot prices per m3.medium-equivalent slot:")
	for _, m := range markets {
		price, _ := platform.SpotPrice(m.Type, m.Zone)
		typ, _ := platform.TypeByName(m.Type)
		med, _ := platform.TypeByName(cloud.M3Medium)
		units := typ.Units(med)
		fmt.Printf("  %-12s $%.4f/hr, %d slots -> $%.5f per slot\n",
			m.Type, float64(price), units, float64(price)/float64(units))
	}

	controller, err := core.New(core.Config{
		Scheduler: sched,
		Provider:  platform,
		Mechanism: migration.SpotCheckLazy,
		Placement: core.NewGreedyCheapestPolicy(markets),
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("\neight customers each request an m3.medium:")
	for i := 0; i < 8; i++ {
		if _, err := controller.RequestServer(fmt.Sprintf("cust-%d", i), cloud.M3Medium); err != nil {
			panic(err)
		}
	}
	sched.RunUntil(simkit.Hour)

	for _, p := range controller.Pools() {
		if p.Hosts == 0 {
			continue
		}
		fmt.Printf("  pool %-28s hosts=%d nested VMs=%d\n", p.Key, p.Hosts, p.VMs)
	}
	fmt.Println("\nnested VM packing (two medium slices per m3.large):")
	for _, info := range controller.ListVMs() {
		fmt.Printf("  %s -> %s slice of %s\n", info.ID, info.Type, info.HostType)
	}

	sched.RunUntil(100 * simkit.Hour)
	report := controller.Report()
	direct := 0.010 // buying mediums directly
	fmt.Printf("\nafter 100 hours: host cost $%.2f for %.0f VM-hours = $%.5f per VM-hour\n",
		float64(report.HostCost), report.VMHours, float64(report.HostCost)/report.VMHours)
	fmt.Printf("buying m3.medium directly would cost $%.5f per VM-hour: slicing saves %.0f%%\n",
		direct, 100*(1-float64(report.HostCost)/report.VMHours/direct))
	fmt.Println("(the flip side: one revocation now displaces two nested VMs — §4.2)")
	// Output:
	// spot prices per m3.medium-equivalent slot:
	//   m3.medium    $0.0100/hr, 1 slots -> $0.01000 per slot
	//   m3.large     $0.0120/hr, 2 slots -> $0.00600 per slot
	//   m3.2xlarge   $0.0700/hr, 8 slots -> $0.00875 per slot
	//
	// eight customers each request an m3.medium:
	//   pool m3.large/zone-a/spot         hosts=4 nested VMs=8
	//
	// nested VM packing (two medium slices per m3.large):
	//   nvm-00001 -> m3.medium slice of m3.large
	//   nvm-00002 -> m3.medium slice of m3.large
	//   nvm-00003 -> m3.medium slice of m3.large
	//   nvm-00004 -> m3.medium slice of m3.large
	//   nvm-00005 -> m3.medium slice of m3.large
	//   nvm-00006 -> m3.medium slice of m3.large
	//   nvm-00007 -> m3.medium slice of m3.large
	//   nvm-00008 -> m3.medium slice of m3.large
	//
	// after 100 hours: host cost $4.80 for 799 VM-hours = $0.00600 per VM-hour
	// buying m3.medium directly would cost $0.01000 per VM-hour: slicing saves 40%
	// (the flip side: one revocation now displaces two nested VMs — §4.2)
}
