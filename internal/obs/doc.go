// Package obs is the controller's observability layer: a lightweight,
// allocation-conscious metrics registry (counters, gauges, histograms with
// fixed bucket layouts) plus the structured event store.
//
// Everything the paper's evaluation (§6, Figures 6-12) plots is observable
// behaviour — revocation rates, migration downtime, checkpoint residue
// versus the 30 s bound, backup fan-in, cost accrual. The instrumented
// packages (internal/core, internal/migration, internal/backup,
// internal/cloudsim) record those quantities into a shared Registry as they
// happen, so experiment reports, the spotsim summary table and the
// spotcheckd /metrics endpoint all read from one source of truth instead of
// keeping private tallies.
//
// # Concurrency
//
// Instruments update via atomics and the registry interns series under an
// RWMutex, so one registry is safe both for the single-threaded simulation
// loop and for concurrent scrapes from cmd/spotcheckd's HTTP handlers while
// the simulation advances. Hot paths should resolve an instrument once
// (Registry.Counter and friends intern by name+labels) and hold the
// returned pointer; updates after that are a single atomic operation.
//
// # Exposition
//
// A Registry renders three ways:
//
//   - WritePrometheus emits Prometheus text exposition format (v0.0.4) for
//     scraping (served by spotcheckd's /metrics endpoint), appended into
//     one pooled buffer and written once; each family keeps its series in
//     signature order as they come and go, so no scrape or snapshot sorts;
//   - Snapshot returns a deterministic point-in-time copy with programmatic
//     lookups (Value, Total, BucketCounts) that internal/core's Report and
//     internal/experiments consume;
//   - Snapshot.Summary renders an aligned plain-text table (spotsim's
//     -metrics flag).
//
// Trace is the one event store and TraceEvent the one event record. Its
// ring keeps the last N structured events (migrations, warnings, flush
// pauses) with monotonic sequence numbers, overwrites the oldest entries
// and counts what it dropped; for subjects a caller Keeps (the controller
// keeps every nested VM) it also holds the subject's newest TimelineCap
// events past ring overwrites, until Forget. Both views are written by one
// Add under one mutex, so memory stays bounded on months-long simulations
// and a timeline is always a subsequence of what the ring saw.
package obs
