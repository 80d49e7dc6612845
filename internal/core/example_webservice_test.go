//go:build amd64

// Pinned on amd64 only, like the run digests: other architectures may fuse
// floating-point multiply-adds and move the printed decimals.

package core_test

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
	"repro/internal/workload"
)

// Webservice: an interactive multi-tier web application (the paper's TPC-W
// scenario) running a 24-VM fleet on SpotCheck. The intro's motivating
// claim is that interactive applications can ride revocable spot servers:
// this example subjects the fleet to a revocation storm and prints the
// response-time timeline the customers would observe.
func Example_webservice() {
	const fleet = 24
	// Two spot markets: the medium pool spikes at hour 30 (a storm that
	// revokes half the fleet at once); the large pool stays calm.
	mkTrace := func(base cloud.USD, spikeAt simkit.Time, spike cloud.USD) *spotmarket.Trace {
		pts := []spotmarket.Point{{T: 0, Price: base}}
		if spikeAt > 0 {
			pts = append(pts,
				spotmarket.Point{T: spikeAt, Price: spike},
				spotmarket.Point{T: spikeAt + 2*simkit.Hour, Price: base})
		}
		tr, err := spotmarket.NewTrace(pts, 72*simkit.Hour)
		if err != nil {
			panic(err)
		}
		return tr
	}
	sched := simkit.NewScheduler()
	platform, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{
			{Type: cloud.M3Medium, Zone: "zone-a"}: mkTrace(0.0091, 30*simkit.Hour, 0.91),
			{Type: cloud.M3Large, Zone: "zone-a"}:  mkTrace(0.0184, 0, 0),
		},
		Seed: 3,
	})
	if err != nil {
		panic(err)
	}
	controller, err := core.New(core.Config{
		Scheduler: sched,
		Provider:  platform,
		Mechanism: migration.SpotCheckLazy,
		Placement: core.Policy2PML(), // spread the web tier across two pools
		Workload:  workload.TPCW(),
	})
	if err != nil {
		panic(err)
	}

	var ids []nestedvm.ID
	for i := 0; i < fleet; i++ {
		id, err := controller.RequestServer("webshop", cloud.M3Medium)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	fmt.Printf("webshop: %d TPC-W application servers on SpotCheck (2P-ML placement)\n\n", fleet)

	tpcw := workload.TPCW()
	// Offered load follows a diurnal curve: quiet nights, busy afternoons.
	diurnalLoad := func(at simkit.Time) float64 {
		hourOfDay := math.Mod(at.Hours(), 24)
		return 0.45 + 0.35*math.Sin(2*math.Pi*(hourOfDay-9)/24)
	}
	sample := func(at simkit.Time) {
		sched.RunUntil(at)
		load := diurnalLoad(at)
		var worst, sum float64
		var down, degraded int
		for _, id := range ids {
			info, err := controller.DescribeVM(id)
			if err != nil {
				panic(err)
			}
			var rt float64
			switch info.Condition {
			case "down":
				down++
				continue // no responses while down
			case "degraded":
				degraded++
				rt = tpcw.ResponseTimeMs(workload.Conditions{LazyRestoring: true})
			default:
				rt = tpcw.ResponseTimeMs(workload.Conditions{
					Checkpointing: info.Market == "spot",
					LoadFactor:    load,
				})
			}
			sum += rt
			if rt > worst {
				worst = rt
			}
		}
		up := fleet - down
		mean := 0.0
		if up > 0 {
			mean = sum / float64(up)
		}
		bar := strings.Repeat("#", int(mean/3))
		fmt.Printf("t=%-9v load=%.2f mean=%6.2fms worst=%6.2fms  up=%2d degraded=%2d down=%2d |%s\n",
			at, load, mean, worst, up, degraded, down, bar)
	}

	fmt.Println("--- steady state (checkpointing overhead only) ---")
	for _, h := range []simkit.Time{1, 12, 29} {
		sample(h * simkit.Hour)
	}
	fmt.Println("\n--- hour 30: the medium pool's price spikes 100x; 12 servers revoked at once ---")
	for _, at := range []simkit.Time{
		30*simkit.Hour + 40*simkit.Second,
		30*simkit.Hour + 90*simkit.Second,
		30*simkit.Hour + 3*simkit.Minute,
		30*simkit.Hour + 6*simkit.Minute,
		30*simkit.Hour + 20*simkit.Minute,
	} {
		sample(at)
	}
	fmt.Println("\n--- storm over: back on spot, steady state again ---")
	for _, h := range []simkit.Time{33, 48, 71} {
		sample(h * simkit.Hour)
	}

	sched.RunUntil(72 * simkit.Hour)
	report := controller.Report()
	fmt.Println("\n--- 72-hour fleet summary ---")
	fmt.Printf("availability:       %.4f%%\n", 100*report.Availability)
	fmt.Printf("degraded fraction:  %.4f%%\n", 100*report.DegradedFraction)
	fmt.Printf("largest storm:      %d concurrent revocations (of %d VMs)\n", report.MaxStorm, fleet)
	fmt.Printf("cost per VM-hour:   $%.4f vs $0.07 on-demand (%.1fx cheaper)\n",
		float64(report.CostPerVMHour), 0.07/float64(report.CostPerVMHour))
	fmt.Printf("state lost:         %d times (SpotCheck never loses memory state)\n",
		report.Stats.VMsLostMemoryState)
	// Output:
	// webshop: 24 TPC-W application servers on SpotCheck (2P-ML placement)
	//
	// --- steady state (checkpointing overhead only) ---
	// t=1h0m0s    load=0.15 mean= 19.55ms worst= 19.55ms  up=24 degraded= 0 down= 0 |######
	// t=12h0m0s   load=0.70 mean= 55.12ms worst= 55.12ms  up=24 degraded= 0 down= 0 |##################
	// t=1d5h0m0s  load=0.15 mean= 19.55ms worst= 19.55ms  up=24 degraded= 0 down= 0 |######
	//
	// --- hour 30: the medium pool's price spikes 100x; 12 servers revoked at once ---
	// t=1d6h0m40s load=0.20 mean= 40.46ms worst= 60.00ms  up=24 degraded=12 down= 0 |#############
	// t=1d6h1m30s load=0.20 mean= 39.63ms worst= 60.00ms  up=23 degraded=11 down= 1 |#############
	// t=1d6h3m0s  load=0.21 mean= 37.02ms worst= 60.00ms  up=24 degraded=10 down= 0 |############
	// t=1d6h6m0s  load=0.21 mean= 23.18ms worst= 60.00ms  up=24 degraded= 2 down= 0 |#######
	// t=1d6h20m0s load=0.23 mean= 20.11ms worst= 21.52ms  up=24 degraded= 0 down= 0 |######
	//
	// --- storm over: back on spot, steady state again ---
	// t=1d9h0m0s  load=0.45 mean= 30.32ms worst= 30.32ms  up=24 degraded= 0 down= 0 |##########
	// t=2d0s      load=0.20 mean= 20.91ms worst= 20.91ms  up=24 degraded= 0 down= 0 |######
	// t=2d23h0m0s load=0.28 mean= 23.00ms worst= 23.00ms  up=24 degraded= 0 down= 0 |#######
	//
	// --- 72-hour fleet summary ---
	// availability:       99.9959%
	// degraded fraction:  0.0501%
	// largest storm:      12 concurrent revocations (of 24 VMs)
	// cost per VM-hour:   $0.0220 vs $0.07 on-demand (3.2x cheaper)
	// state lost:         0 times (SpotCheck never loses memory state)
}
