package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/simkit"
)

// This file holds the parallel sweep engine. The paper's evaluation is
// dominated by batches of fully independent six-month simulations — the 20
// cells of Figures 10-12, the three pool counts of Table 3, and the
// two-to-three arms of each ablation. Every run builds its own scheduler,
// platform, controller and metrics registry (the controller "replicates
// trivially" precisely because runs share nothing mutable), so a sweep fans
// them out across a bounded worker pool and merges results back in spec
// order. The only data runs share is read-only input: price traces
// (immutable after generation) and workload profiles (value types with pure
// methods), which the engine generates once per (horizon, seed) instead of
// once per cell.

// RunSpec names one cell of a sweep: an identifier used in error reports
// plus the run's full configuration.
type RunSpec struct {
	ID  string
	Cfg PolicyRunConfig
}

// RunError wraps a failed cell's error with its identifier, so a 20-cell
// sweep failure pinpoints which policy × mechanism combination broke.
type RunError struct {
	ID  string
	Err error
}

func (e *RunError) Error() string { return fmt.Sprintf("run %s: %v", e.ID, e.Err) }
func (e *RunError) Unwrap() error { return e.Err }

// forEachIndex calls fn(0..n-1) on a bounded worker pool: workers <= 0
// means GOMAXPROCS, capped at n, and 1 runs inline on the caller's
// goroutine. It is fail-fast — after the first error no further index is
// dispatched (in-flight calls drain) — and returns the failures joined in
// index order (the inline loop's single failure as-is), so the error does
// not depend on scheduling.
func forEachIndex(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errors.Join(errs...)
}

// traceKey identifies one default-trace generation: RunPolicy falls back to
// EvalTraces(horizon, seed) when no traces are supplied, so specs agreeing
// on both fields can share a single generated set.
type traceKey struct {
	horizon simkit.Time
	seed    int64
}

// sweepWorkers extracts the optional trailing worker-count argument the
// exported sweep entry points accept (0 or absent means GOMAXPROCS).
func sweepWorkers(workers []int) int {
	if len(workers) == 0 {
		return 0
	}
	return workers[0]
}
