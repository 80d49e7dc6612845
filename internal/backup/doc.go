// Package backup models SpotCheck's backup servers: the machines that
// continuously receive checkpointed memory state from spot-hosted nested
// VMs and serve it back during restorations (§3.2 "Bounded-time VM
// Migration", §5 "SpotCheck Implementation").
//
// The model captures the two resources that produce the paper's results:
//
//   - Ingest capacity (network + disk write): a backup server absorbs the
//     sum of its VMs' dirty rates; past the workload's saturation knee
//     (workload.Profile.SaturationKnee, ~90% utilization), resident VMs
//     degrade — the ~35-40 VM knee of Figure 7 (§6.1).
//   - Restore read bandwidth: full restores stream sequentially and gain
//     from request batching; unoptimized lazy restores issue random reads
//     that gain nothing; SpotCheck's fadvise/ext4 tuning ("OptimizedIO")
//     doubles base bandwidth and recovers batching for lazy reads —
//     reproducing Figure 8's concurrency behaviour. Restore bandwidth is
//     split evenly across concurrent restorations (the per-VM tc
//     throttling of §5).
//
// A Pool auto-provisions servers and spreads VMs across them
// (AssignSpread), mirroring the controller's goal of bounding the fan-in
// any single revocation storm imposes on one backup server. When a
// Registry is attached via SetMetrics, the pool exports
// spotcheck_backup_* gauges and the fan-in histogram described in
// DESIGN.md's Observability section.
//
// Summation order: a server's ingest (IngestUtilization, and the
// spotcheck_backup_ingest_mbs gauge derived from it) is the sum of its
// streams' dirty rates taken over the stream array front to back. A
// registration appends to that array and an unregistration moves the last
// stream into the vacated slot, so the order — and with mixed dirty rates
// the last bit of the sum — depends only on the sequence of registrations
// and unregistrations, never on the run. docs/ARCHITECTURE.md ("Backup
// pool internals") describes the rest of the layout.
package backup
