package obs_test

import (
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/simkit"
)

// Example shows the intended lifecycle: register instruments once, update
// them on the hot path, then expose the registry as a Prometheus page and
// query a snapshot programmatically.
func Example() {
	reg := obs.NewRegistry()

	// Resolve instruments once; updates are lock-free.
	migrations := reg.Counter("spotcheck_migrations_total", obs.L("reason", "revocation"))
	occupancy := reg.Gauge("spotcheck_pool_vms", obs.L("market", "spot"))
	downtime := reg.Histogram("spotcheck_downtime_seconds", obs.DurationBuckets)
	reg.Describe("spotcheck_migrations_total", "VM migrations by reason.")

	migrations.Inc()
	migrations.Inc()
	occupancy.Set(12)
	downtime.Observe(0.4)

	// Structured event trace alongside the numeric metrics.
	trace := obs.NewTrace(16)
	trace.Add(obs.TraceEvent{
		At: 30 * simkit.Second, Scope: "vm", Subject: "vm-7",
		Kind: "migrated", Detail: "revocation",
	})

	snap := reg.Snapshot()
	fmt.Printf("migrations: %.0f\n", snap.Total("spotcheck_migrations_total"))
	if v, ok := snap.Value("spotcheck_pool_vms", obs.L("market", "spot")); ok {
		fmt.Printf("spot pool: %.0f VMs\n", v)
	}
	fmt.Printf("trace: %d event(s)\n", len(trace.Dump().Events))

	_ = reg.WritePrometheus(os.Stdout)

	// Output:
	// migrations: 2
	// spot pool: 12 VMs
	// trace: 1 event(s)
	// # HELP spotcheck_migrations_total VM migrations by reason.
	// # TYPE spotcheck_migrations_total counter
	// spotcheck_migrations_total{reason="revocation"} 2
	// # TYPE spotcheck_pool_vms gauge
	// spotcheck_pool_vms{market="spot"} 12
	// # TYPE spotcheck_downtime_seconds histogram
	// spotcheck_downtime_seconds_bucket{le="0.1"} 0
	// spotcheck_downtime_seconds_bucket{le="0.25"} 0
	// spotcheck_downtime_seconds_bucket{le="0.5"} 1
	// spotcheck_downtime_seconds_bucket{le="1"} 1
	// spotcheck_downtime_seconds_bucket{le="2"} 1
	// spotcheck_downtime_seconds_bucket{le="5"} 1
	// spotcheck_downtime_seconds_bucket{le="10"} 1
	// spotcheck_downtime_seconds_bucket{le="20"} 1
	// spotcheck_downtime_seconds_bucket{le="30"} 1
	// spotcheck_downtime_seconds_bucket{le="60"} 1
	// spotcheck_downtime_seconds_bucket{le="120"} 1
	// spotcheck_downtime_seconds_bucket{le="300"} 1
	// spotcheck_downtime_seconds_bucket{le="+Inf"} 1
	// spotcheck_downtime_seconds_sum 0.4
	// spotcheck_downtime_seconds_count 1
}
