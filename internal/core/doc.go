// Package core implements the SpotCheck controller — the paper's primary
// contribution (§4, §5). The controller rents spot and on-demand servers
// from a native IaaS provider, slices them into nested VMs for customers,
// maintains backup servers for bounded-time migration, and transparently
// migrates nested VMs between server pools when spot servers are revoked or
// when cheaper spot capacity reappears.
//
// The controller is single-threaded: it runs entirely on the simulation's
// event loop (exactly like the paper's centralized controller process) and
// reacts to provider callbacks and revocation warnings.
//
// # Fleet state layout
//
// Fleet state lives in index-addressed slabs, not maps of heap objects
// (docs/SCALING.md has the full capacity model):
//
//   - vmState and hostState values are allocated from chunked slabs
//     (internal/slab) whose backing arrays never move, so internal hot
//     paths hold plain pointers. The VM table (Controller.vms) is indexed
//     by the number in the VM's id (cloud.SeqID/ParseSeqID, "nvm-00042"
//     is entry 42), so an id resolves without hashing and the table's
//     walk is in id order; hostIndex translates instance ids to
//     generation-checked handles. A stale handle — one whose slot was
//     freed or reused — resolves to nil instead of aliasing the slot's
//     next occupant.
//   - Each customer has one record (customer), in name order; a VM points
//     at its customer's record, which also holds the accounting of the
//     customer's recycled VMs, so Customers sums per VM without hashing
//     names.
//   - Everything keyed by (instance type, zone) is one record in one
//     table, History (market.go): the catalog entry, the monitor's price
//     samples, the hold-down stamp, the trailing price window, the
//     revocation count and the pair's on-demand and spot pools. The table
//     covers the provider's catalog × zones grid from New (other keys grow
//     it on demand), stays sorted by (type, zone), and has one map index
//     for callers that arrive with a key. Hosts point at their pool and
//     pools at their record; a VM's home market and the slice size a host
//     is cut into (vmState.slotType) point into the table too, so no per-VM
//     or per-host record copies a pool key or a catalog entry.
//   - Hosts keep their resident VMs in an ID-sorted slice; pools keep a
//     launch-ordered host list, a free-candidate set and a vmCount, so
//     sweeps iterate in deterministic order with no per-tick sorting.
//   - A chain in flight — a new VM's placement and installation (a move
//     with no source) or a migration — is a move record on its vmState
//     (move.go): the phase it rests in, source and destination, deadline and
//     the simulated flush, pre-copy and restore results. Its timers are
//     argument-carrying events on one bound function (advance) whose
//     argument names the slot, the VM's epoch and the step, so a leftover
//     event is dropped by comparison; host acquisitions hold VM handles as
//     waiters. The chain builds no closure and hashes no key per step, every
//     chain ends in one landing (land), and a VM released while a chain holds
//     it is torn down by that chain where it has nothing in flight
//     (pendingRelease; docs/ARCHITECTURE.md, "Move record").
//   - A record's samples are stamped with the tick number they belong to;
//     the proactive, predictive and return sweeps walk the table and read
//     the records instead of re-querying per pool or per VM, and nothing is
//     cleared or copied between ticks. A pair answering cloud.ErrNotFound
//     has no spot market and is not asked again.
//
// # Monitor ticks
//
// The monitor's ticks lie on a fixed grid, tickBase + k·MonitorInterval
// from the controller's creation, and every tick counts in
// spotcheck_monitor_ticks_total, but a tick is an event — armed — only
// while a sweep could act on it: a host sits in an on-demand pool (the
// return sweep's candidates), or the run bids k×OD (proactive sweep) or
// runs the predictor. An armed tick that finds nothing to act on does not
// re-arm. An armed tick walks the return sweep's candidates only when one
// of them can go home: the controller keeps the residents of on-demand
// hosts counted by home market (market.parked), and those with no home
// (unhomed), and the tick walks when a counted home market is calm, or when
// a candidate has no home and some market is calm (returnsPossible). On
// any other tick every candidate would stop before tryReturn's placement
// call and before a migration, so the walk is skipped; the tick still
// fires, so no event moves, not even among same-instant ties. The ticks in
// between are replayed: catchUp accounts them, and a
// market record catches up only when it is read — by a sweep (spotPool,
// marketCalm) or by a policy through History.MeanPrice — from
// the provider's price history (cloud.Provider.SpotPriceAt), one question
// per price step. The replay fills price, prev, their tick stamps,
// lastAboveOD, everAboveOD and noSpot exactly as sampling every market on
// every tick would, and the trailing window takes the samples as
// (price, ticks) runs that reach the ring, slot for slot, when it is read.
//
// Same-instant rule. A read inside an event settles only the ticks strictly
// before now: a tick at this very instant is still to come, unless it is
// armed and has already fired. An arming that lands on a grid instant equal
// to now schedules that tick now, so it pops after every event already
// queued for the instant. Per-tick polling queued tick T one interval
// earlier, so the two orders differ only for an event queued within the
// interval before T for exactly T; none of the pinned runs has one (their
// same-instant pairs with a tick are all scripted long before).
//
// Settle brings the accounting up to now, ticks at now included: it counts
// the unfired ticks and asks each market not read since the last tick its
// price there, which advances the provider's price-change counters exactly
// as a per-tick sample would. Report, Customers, Stats and Shutdown
// settle first; an embedder that exposes the metrics registry between runs of the
// event loop calls Settle after each run (spotcheckd does, in advance).
//
// Fleet-wide duration sums (service time, downtime, degraded time)
// outgrow int64 nanoseconds at ~292 VM-years — under 600 VMs over a
// six-month horizon — so Report and Customers carry them in widened
// accumulators (durAcc) that are bit-identical to the narrow arithmetic
// until the sum actually overflows.
//
// A released VM keeps its state — and its answers to DescribeVM, Events
// and ListVMs — for the rest of the run, unless Config.RecycleReleased
// returns its slot to the free list after folding its final accounting
// into integer-duration aggregates; Report and Customers read the same
// either way. Retired hosts' slots and finalized rental-ledger entries are
// always folded and reused, and a rental drops its instance pointer once
// the controller has seen the instance terminated (rentalGone).
// Config.ExpectedVMs pre-sizes the slabs and tables when the scale is
// known.
//
// # Events
//
// Controller events go through one function, emit, into the store the
// caller supplied as Config.Trace (an obs.Trace: fleet-wide ring plus one
// bounded timeline per VM, read back by Events); without one, none exist.
package core
