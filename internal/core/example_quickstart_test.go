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
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// Quickstart: bring up a SpotCheck derivative cloud on the simulated native
// IaaS platform, request a nested VM, and watch it ride through a spot
// revocation without losing state or its IP address.
func Example_quickstart() {
	// A hand-crafted spot market: $0.01/hr, spiking to $0.50/hr (far above
	// the $0.07 on-demand price) between hours 10 and 11.
	trace, err := spotmarket.NewTrace([]spotmarket.Point{
		{T: 0, Price: 0.01},
		{T: 10 * simkit.Hour, Price: 0.50},
		{T: 11 * simkit.Hour, Price: 0.01},
	}, 48*simkit.Hour)
	if err != nil {
		panic(err)
	}

	// The simulated native platform (EC2-shaped): Table-1 latencies,
	// 120 s revocation warnings.
	sched := simkit.NewScheduler()
	platform, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{
			{Type: cloud.M3Medium, Zone: "zone-a"}: trace,
		},
		Seed: 7,
	})
	if err != nil {
		panic(err)
	}

	// The SpotCheck controller: full system (ramped checkpointing + lazy
	// restoration), all VMs in the single m3.medium pool, bid = on-demand.
	controller, err := core.New(core.Config{
		Scheduler: sched,
		Provider:  platform,
		Mechanism: migration.SpotCheckLazy,
		Placement: core.Policy1PM(),
		Trace:     obs.NewTrace(0), // keeps the audit timeline printed below
	})
	if err != nil {
		panic(err)
	}

	id, err := controller.RequestServer("alice", cloud.M3Medium)
	if err != nil {
		panic(err)
	}
	fmt.Printf("requested nested VM %s for alice\n\n", id)

	show := func(at simkit.Time) {
		sched.RunUntil(at)
		info, err := controller.DescribeVM(id)
		if err != nil {
			panic(err)
		}
		spot, _ := platform.SpotPrice(cloud.M3Medium, "zone-a")
		fmt.Printf("t=%-10v spot=$%.2f/hr  phase=%-9s market=%-9s host=%-8s ip=%-9s migrations=%d\n",
			at, float64(spot), info.Phase, info.Market, info.Host, info.IP, info.Migrations)
	}

	fmt.Println("--- normal operation on a cheap spot server ---")
	show(10 * simkit.Minute)
	show(9 * simkit.Hour)

	fmt.Println("\n--- price spike: the platform revokes the spot host with a 120 s warning;")
	fmt.Println("--- SpotCheck flushes the checkpoint residue and migrates to on-demand ---")
	show(10*simkit.Hour + 30*simkit.Second)
	show(10*simkit.Hour + 5*simkit.Minute)

	fmt.Println("\n--- spike abates: SpotCheck live-migrates back to cheap spot ---")
	show(12 * simkit.Hour)

	sched.RunUntil(48 * simkit.Hour)

	fmt.Println("\n--- the VM's audit timeline ---")
	for _, e := range controller.Events(id) {
		fmt.Printf("  %s\n", e)
	}

	report := controller.Report()
	fmt.Println("\n--- 48-hour summary ---")
	fmt.Printf("availability:     %.4f%%\n", 100*report.Availability)
	fmt.Printf("degraded time:    %v (ramped flush + lazy-restore demand paging)\n", report.TotalDegraded)
	fmt.Printf("down time:        %v (EC2 re-plumbing dominates)\n", report.TotalDown)
	fmt.Printf("cost per VM-hour: $%.4f (hosts $%.2f + backup server $%.2f over %.0f VM-hours)\n",
		float64(report.CostPerVMHour), float64(report.HostCost), float64(report.BackupCost), report.VMHours)
	fmt.Println("                  (a backup server multiplexes ~40 VMs in production; with one")
	fmt.Println("                   VM it dominates — see Example_policylab or spotsim -exp all for the fleet view)")
	fmt.Printf("migrations:       %d (1 revocation + 1 return)\n", report.Stats.Migrations)
	fmt.Printf("VM state lost:    %d times\n", report.Stats.VMsLostMemoryState)
	// Output:
	// requested nested VM nvm-00001 for alice
	//
	// --- normal operation on a cheap spot server ---
	// t=10m0s      spot=$0.01/hr  phase=running   market=spot      host=i-000001 ip=10.0.0.4  migrations=0
	// t=9h0m0s     spot=$0.01/hr  phase=running   market=spot      host=i-000001 ip=10.0.0.4  migrations=0
	//
	// --- price spike: the platform revokes the spot host with a 120 s warning;
	// --- SpotCheck flushes the checkpoint residue and migrates to on-demand ---
	// t=10h0m30s   spot=$0.50/hr  phase=migrating market=spot      host=i-000001 ip=10.0.0.4  migrations=1
	// t=10h5m0s    spot=$0.50/hr  phase=running   market=on-demand host=i-000003 ip=10.0.0.4  migrations=1
	//
	// --- spike abates: SpotCheck live-migrates back to cheap spot ---
	// t=12h0m0s    spot=$0.01/hr  phase=running   market=spot      host=i-000004 ip=10.0.0.4  migrations=2
	//
	// --- the VM's audit timeline ---
	//   0s           requested       alice requested a m3.medium (stateless=false)
	//   3m43.913520616s placed          running on i-000001 (m3.medium/zone-a/spot)
	//   10h0m0s      warned          host i-000001 revoked (price $0.5000), 2m0s to deadline
	//   10h0m0s      migration-start reason=revocation host=i-000001
	//   10h0m57.495971116s paused          final flush pause (65ms)
	//   10h1m23.124436566s migrated        now on i-000003 (m3.medium/zone-a/on-demand)
	//   11h9m0s      migration-start reason=return host=i-000003
	//   11h13m44.820575056s returned        now on i-000004 (m3.medium/zone-a/spot)
	//
	// --- 48-hour summary ---
	// availability:     99.9851%
	// degraded time:    1m52.979188708s (ramped flush + lazy-restore demand paging)
	// down time:        25.62846545s (EC2 re-plumbing dominates)
	// cost per VM-hour: $0.2849 (hosts $0.57 + backup server $13.09 over 48 VM-hours)
	//                   (a backup server multiplexes ~40 VMs in production; with one
	//                    VM it dominates — see Example_policylab or spotsim -exp all for the fleet view)
	// migrations:       2 (1 revocation + 1 return)
	// VM state lost:    0 times
}
