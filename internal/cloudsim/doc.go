// Package cloudsim implements a discrete-event simulated native IaaS
// platform (EC2-shaped) behind the cloud.Provider interface: on-demand and
// spot instances, spot revocation warnings driven by price traces, EBS-like
// volumes, VPC private addresses, and control-plane latencies calibrated to
// the paper's Table 1 measurements.
//
// # Fleet state layout
//
// Live instance state is an index-addressed slab (internal/slab): records
// live in chunked, address-stable slots, and a delayed completion (a launch,
// a termination) revalidates its generation-checked handle — or holds the
// heap *cloud.Instance, which is never recycled — instead of trusting a
// pointer across simulated time.
//
// The platform hashes no id it minted itself. Instance and volume ids are a
// prefix plus a zero-padded counter (paddedID), and idSeq, its strict
// inverse, reads the counter back: the ledger (one entry per instance id
// ever issued: the live handle, or the finalized bill), the volume table
// and the VPC address table (in-use mark and holder, by offset from the
// prefix's first address) are slices indexed by it. A string that is not
// byte-for-byte a minted id — other padding, a stray character, another
// resource's prefix, a number past the counter, "" — and an address outside
// the VPC or never handed out answer cloud.ErrNotFound; a terminated
// instance answers cloud.ErrBadState; a deleted volume ErrNotFound again.
// Each of the six delayed completions (launch, terminate, attach/detach
// volume, assign/unassign address) parks an op value in a recycled entry
// and schedules the entry's index on an argument-carrying event
// (simkit.AfterArg): no closure, and on a warm platform no allocation.
//
// Everything kept per traced spot market is one market record — the trace,
// the SpotPrice cursor, the running spot instances in launch order with
// their cached minimum bid, the lazily built prefix integral and the
// price-tick counter — in the platform's one map keyed by (type, zone); a
// spot instance points at its record. A price change walks a market's
// instances only when the new price can actually underbid someone. A pair
// without a record has no spot market: SpotPrice answers cloud.ErrNotFound
// for it, always.
//
// The slab holds live instances only. Termination bills the instance once,
// keeps the bill in its ledger entry (AccruedCost answers it for the rest of
// the run) and recycles the slot; Instance(id) resolves live instances only.
// Continuous spot bills read the market's prefix integral in O(log n)
// instead of walking every price segment the instance lived through.
// Config.ExpectedInstances pre-sizes the ledger when the scale is known;
// docs/SCALING.md quantifies the result.
package cloudsim
