// Package lint is spotcheck's project-invariant static-analysis suite. It
// encodes correctness properties the Go compiler cannot see but the paper's
// evaluation depends on:
//
//   - determinism: simulation packages must never consult wall-clock time or
//     global math/rand state, so a fixed seed yields byte-identical output
//     (the property the sweep engine and the byte-identity tests pin).
//   - metrichygiene: every obs metric name is a compile-time string constant
//     carrying the spotcheck_ prefix, keeping the scrape namespace unified
//     and the series cardinality bounded (no fmt.Sprintf-minted names);
//     instruments are resolved once, not looked up per record.
//   - panicdiscipline: panic is reserved for invariant guards in designated
//     packages (internal/obs registration, internal/simkit scheduling);
//     policy and migration logic must return errors.
//   - goroutines: every go statement in non-test code needs a visible
//     cancellation path (context, WaitGroup, or done channel) in its
//     enclosing function.
//   - hotpath: event code in core, cloudsim and cloudchaos hands no function
//     literal to the scheduler or the provider, spawns or defers none, never
//     drives the event loop, and cloudsim keys no map by an instance,
//     volume or address id.
//   - errdiscipline: an error value reaches a reaction — returned, wrapped
//     with %w, classified or answered — never discarded with _ or dropped
//     by an if err != nil branch that does nothing.
//   - duracc: loop-carried duration sums in the fleet-scale packages go
//     through core's widened durAcc, never a bare += on simkit.Time.
//   - lockdiscipline: fields annotated "// guarded by mu" are touched only
//     while mu is held on every path.
//
// The framework is stdlib-only (go/ast, go/parser, go/token): it walks a
// module, parses packages syntactically, and runs per-file Analyzers that
// report structured Findings. Every analyzer is an intraprocedural walk of
// the syntax tree; errdiscipline and lockdiscipline follow its statement
// structure branch by branch. There is deliberately no type checking —
// each analyzer documents the syntactic heuristic it uses, and intentional
// exceptions are written down in the source with
//
//	//lint:ignore <check> <reason>
//
// on (or immediately above) the offending line. A directive without a
// reason is itself a finding: exceptions must be justified, not waved off.
//
// Command spotlint runs the suite over package patterns and exits nonzero
// on any finding; TestRepoIsClean enforces the same zero-finding ratchet
// from go test. See docs/LINTING.md for the analyzer-by-analyzer contract.
package lint
