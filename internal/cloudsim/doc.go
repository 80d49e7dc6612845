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
// inverse, reads the counter back — an id of exactly six digits, every id
// below a million, in one 64-bit word without a general parse, since any
// six digits are a minted id: the ledger (one entry per instance id
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
// (simkit.AfterArg): no closure, and on a warm platform no allocation. A
// forced kill carries its instance's packed slab handle and a crossing its
// market's table index the same way, so the platform hands the scheduler no
// function literal at all.
//
// Everything kept per traced spot market is one market record — the trace,
// its one cursor, the running spot instances in launch order with their
// cached minimum bid, the armed crossing, the prefix integral built at the
// first spot launch with its memo of F(now), and the price-tick counter —
// in the platform's one table, a slice in canonical key order
// (spotmarket.Set.Keys, the order the controller's table walks in); a spot
// instance points at its record. Everything kept per instance type is one
// type record too — the catalog entry, the type's markets in zone order
// and, only when Config.Capacity caps the type, its launch count — found
// by a scan of the few dozen types that tries the record found last first.
// Resolving a (type, zone) pair first tries the market record after the
// one resolved last (a sweep in key order), then that one itself (the
// controller replaying one market's skipped ticks), each a string compare;
// a miss scans its type's few zones.
// No map is hashed on either path. A pair without a record has no spot
// market: SpotPrice answers cloud.ErrNotFound for it, always, wherever in
// a sweep it is asked.
//
// # Price changes
//
// A price change can only do something when it exceeds the market's lowest
// outstanding bid, so the platform does not schedule the others. A market
// arms at most one "price-change" event, its crossing: the first trace point
// after now priced above that floor (Cursor.NextAbove, a forward scan). It
// arms when its first spot instance starts running, re-arms when one bidding
// under the scanned floor joins and when the crossing fires, and disarms
// when its last instance leaves; an instance joining at or above the scanned
// floor changes nothing, and a floor that rose since the scan leaves an early
// crossing that finds nobody to warn and re-arms. A market nobody can be
// revoked from schedules nothing at all. When a crossing fires it warns, in
// launch order, every running instance the new price underbids; a launch
// that completes inside a spike is warned by the launch itself.
//
// Event order is (time, sequence of scheduling), and a crossing takes its
// sequence when it is armed. Two orders follow. Crossings of several markets
// at one instant (a zone-wide storm) are handled together, by whichever
// fires first, in the order a walk that scheduled every price change of
// every market would have reached them: the market whose previous change is
// earlier first, equal previous changes compared the same way in turn, two
// markets at their first change in table order. That is the order seeded
// runs were pinned under, and a differential test against that walk
// (walk_test.go) holds the platform to it. A crossing that shares its
// instant with an unrelated event — a launch or a termination completing on
// the very nanosecond of a price change — runs before or after it by which
// was scheduled first, the crossing counting from when it was armed. That
// order is deterministic, and for a launch immaterial (the instance is
// warned at that instant by the crossing or by the launch itself), but it
// need not be the order a per-point walk would have produced; no pinned run
// has such a tie.
//
// SpotPriceAt answers from a market's price history through the same
// cursor: the price in force at any t up to now — the cursor re-anchors by
// binary search when asked about an earlier time than its last question —
// and the first change after t if that change has already happened
// (cloud.NoChange otherwise), so a caller replaying the ticks it skipped
// takes one question per price step and learns nothing about the future.
//
// spotcheck_cloudsim_price_ticks_total{market} counts the price changes the
// platform has observed: the changes up to the latest time anybody asked
// that market's price about — SpotPrice and RequestSpot (now), SpotPriceAt
// (its t), a launch completing, a crossing. A question about an earlier time
// leaves it alone, so it never falls. The controller settles it at the end
// of a run (and spotcheckd after each advance) by asking every market at its
// last monitor tick, so it reads exactly what asking every market at every
// tick would have; between two settles it trails the trace by the changes
// nobody has asked about yet.
//
// The slab holds live instances only. Termination bills the instance once,
// keeps the bill in its ledger entry (AccruedCost answers it for the rest of
// the run) and recycles the slot; Instance(id) resolves live instances only.
// A continuous spot bill is F(end) − F(Launched) of the market's prefix
// integral, the difference PrefixIntegral.Integrate takes, instead of a walk
// of every price segment the instance lived through: F(Launched) is kept on
// the instance from its launch and F(now) is searched once per market per
// instant, so billing every running instance at one instant is one
// subtraction each.
// Config.ExpectedInstances pre-sizes the ledger when the scale is known;
// docs/SCALING.md quantifies the result.
package cloudsim
