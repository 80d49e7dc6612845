// Package cloudsim implements a discrete-event simulated native IaaS
// platform (EC2-shaped) behind the cloud.Provider interface: on-demand and
// spot instances, spot revocation warnings driven by price traces, EBS-like
// volumes, VPC private addresses, and control-plane latencies calibrated to
// the paper's Table 1 measurements.
//
// # Fleet state layout
//
// The instance ledger is an index-addressed slab (internal/slab): instance
// records live in chunked, address-stable slots, a boundary map translates
// cloud.InstanceIDs to generation-checked handles, and deferred closures
// (launch completions, terminations) revalidate their handle — or capture
// the heap *cloud.Instance, which is never recycled — instead of trusting
// a pointer across simulated time. Everything kept per traced spot market
// is one market record — the trace, the SpotPrice cursor, the running spot
// instances in launch order with their cached minimum bid, the lazily
// built prefix integral and the price-tick counter — in the platform's one
// map keyed by (type, zone); a spot instance points at its record. A price
// change walks a market's instances only when the new price can actually
// underbid someone. A pair without a record has no spot market: SpotPrice
// answers cloud.ErrNotFound for it, always. Assigned VPC addresses are
// indexed so IP release and duplicate checks never scan the ledger.
//
// The ledger holds live instances only. Termination bills the instance
// once, keeps the bill under its id (AccruedCost answers it for the rest of
// the run) and recycles the slot; Instance(id) resolves live instances only,
// and an operation addressed to a terminated instance fails with
// cloud.ErrBadState where an id never issued fails with cloud.ErrNotFound.
// Continuous spot bills read the market's prefix integral in O(log n)
// instead of walking every price segment the instance lived through.
// Config.ExpectedInstances pre-sizes the ledger when the scale is known;
// docs/SCALING.md quantifies the result.
package cloudsim
