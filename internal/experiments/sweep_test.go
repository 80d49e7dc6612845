package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cloud"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// sweepHorizon is deliberately tiny: the sweep tests exercise scheduling,
// ordering and error handling, not simulation fidelity.
const sweepHorizon = 4 * simkit.Day

func sweepSpecs(n int) []RunSpec {
	specs := make([]RunSpec, n)
	for i := range specs {
		pol := NamedPolicyFactories()[i%5]
		specs[i] = RunSpec{
			ID: fmt.Sprintf("cell-%d-%s", i, pol.Name),
			Cfg: PolicyRunConfig{
				Policy:    pol,
				Mechanism: migration.SpotCheckLazy,
				VMs:       4,
				Horizon:   sweepHorizon,
				Seed:      42,
			},
		}
	}
	return specs
}

// TestSweepDeterministicOrdering requires result slot i to hold spec i's
// run regardless of which worker finished it first, and identical results
// across worker counts.
func TestSweepDeterministicOrdering(t *testing.T) {
	specs := sweepSpecs(6)
	seq, err := NewSession(1).Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewSession(4).Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(specs) || len(par) != len(specs) {
		t.Fatalf("got %d/%d results, want %d", len(seq), len(par), len(specs))
	}
	for i := range specs {
		if seq[i].Policy != specs[i].Cfg.Policy.Name {
			t.Errorf("slot %d holds policy %s, want %s", i, seq[i].Policy, specs[i].Cfg.Policy.Name)
		}
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Errorf("slot %d: sequential and parallel reports differ:\nseq: %+v\npar: %+v",
				i, seq[i].Report, par[i].Report)
		}
	}
}

// TestSweepFailFast requires a failing cell to surface as a *RunError
// naming the cell, without dispatching the whole remaining sweep.
func TestSweepFailFast(t *testing.T) {
	specs := sweepSpecs(4)
	// An explicitly empty trace set makes cloudsim.New reject the run.
	specs[1].Cfg.Traces = spotmarket.Set{}
	specs[1].ID = "poisoned-cell"
	_, err := NewSession(2).Sweep(specs)
	if err == nil {
		t.Fatal("sweep with a failing cell returned nil error")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *RunError", err)
	}
	if re.ID != "poisoned-cell" {
		t.Errorf("RunError names %q, want poisoned-cell", re.ID)
	}
	if !strings.Contains(err.Error(), "poisoned-cell") {
		t.Errorf("aggregated error %q does not identify the failed run", err)
	}
}

// TestForEachIndex pins the pool Sweep and the shard driver share: every
// index runs exactly once at any worker count, one worker is a plain
// in-order loop that stops at the first error, and a parallel run reports
// its failures in index order whatever order they happened in.
func TestForEachIndex(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		hits := make([]int32, 10)
		if err := forEachIndex(len(hits), workers, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	if err := forEachIndex(0, 4, func(int) error { return errors.New("ran") }); err != nil {
		t.Errorf("empty range: %v", err)
	}

	var order []int
	boom := errors.New("boom")
	err := forEachIndex(6, 1, func(i int) error {
		order = append(order, i) // unsynchronised on purpose: one worker is inline
		if i == 2 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Errorf("one worker: err = %v, want the first failure as returned", err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("one worker visited %v, want [0 1 2]", order)
	}

	// Both failing indexes are in flight before either returns.
	var gate sync.WaitGroup
	gate.Add(2)
	err = forEachIndex(2, 2, func(i int) error {
		gate.Done()
		gate.Wait()
		return fmt.Errorf("fail-%d", i)
	})
	if err == nil || err.Error() != "fail-0\nfail-1" {
		t.Errorf("parallel failures = %q, want fail-0 then fail-1", err)
	}
}

// TestSweepSharedTraces verifies a session generates the default trace set
// once per (horizon, seed) and hands every matching spec the same Set,
// while leaving explicit traces and distinct seeds alone.
func TestSweepSharedTraces(t *testing.T) {
	explicit, err := EvalTraces(sweepHorizon, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(0)
	specs := sweepSpecs(4)
	specs[2].Cfg.Seed = 43 // different seed: must not share
	specs[3].Cfg.Traces = explicit
	sets := make([]spotmarket.Set, len(specs))
	for i, spec := range specs[:3] {
		if sets[i], err = s.defaultTraces(sweepHorizon, spec.Cfg.Seed); err != nil {
			t.Fatal(err)
		}
	}
	key := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: EvalZone}
	if sets[0][key] != sets[1][key] {
		t.Error("same (horizon, seed) specs did not share one trace set")
	}
	if sets[0][key] == sets[2][key] {
		t.Error("different seeds shared a trace set")
	}
	if _, shared, _ := s.shareKey(specs[3].Cfg.withDefaults()); shared {
		t.Error("a spec on explicit traces is shared as a default-trace run")
	}
}

// TestSweepDoesNotMutateCallerSpecs: Sweep must fill shared traces on its
// own copy, so a caller can reuse the spec slice.
func TestSweepDoesNotMutateCallerSpecs(t *testing.T) {
	specs := sweepSpecs(2)
	if _, err := NewSession(2).Sweep(specs); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if specs[i].Cfg.Traces != nil {
			t.Errorf("spec %d traces filled in caller's slice", i)
		}
	}
}

// TestPolicyMatrixParallelRace drives a small PolicyMatrix through the
// parallel engine with more workers than CPUs. Its real assertions come
// from the race detector (CI runs `go test -race`): concurrent RunPolicy
// invocations share only the read-only trace set, and any unsynchronized
// access in spotmarket.Trace, workload.Profile or the per-run registries
// trips -race here.
func TestPolicyMatrixParallelRace(t *testing.T) {
	matrix, err := PolicyMatrix(4, sweepHorizon, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(matrix) != 5 || len(matrix[0]) != 4 {
		t.Fatalf("matrix shape %dx%d, want 5x4", len(matrix), len(matrix[0]))
	}
	for i, row := range matrix {
		for j, res := range row {
			if res.Snapshot == nil {
				t.Errorf("cell %d/%d missing snapshot", i, j)
			}
		}
	}
}

// TestPolicyMatrixByteIdentical pins the acceptance criterion: rendered
// figure output is byte-identical for a fixed seed regardless of worker
// count.
func TestPolicyMatrixByteIdentical(t *testing.T) {
	seq, err := PolicyMatrix(4, sweepHorizon, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := PolicyMatrix(4, sweepHorizon, 42, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, render := range []func([][]PolicyRunResult) string{
		func(m [][]PolicyRunResult) string { return Fig10Bars(m).String() },
		func(m [][]PolicyRunResult) string { return Fig11Bars(m).String() },
		func(m [][]PolicyRunResult) string { return Fig12Bars(m).String() },
	} {
		if a, b := render(seq), render(par); a != b {
			t.Errorf("figure output differs across worker counts:\n--- 1 worker ---\n%s\n--- 6 workers ---\n%s", a, b)
		}
	}
}

// TestTable3Parallel checks Table3's sweep path end to end.
func TestTable3Parallel(t *testing.T) {
	seq, err := Table3(4, sweepHorizon, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table3(4, sweepHorizon, 42, 3)
	if err != nil {
		t.Fatal(err)
	}
	if Table3Render(seq, 4).String() != Table3Render(par, 4).String() {
		t.Error("Table 3 differs across worker counts")
	}
}
