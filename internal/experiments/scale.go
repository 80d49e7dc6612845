package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// This file holds the fleet-scale capacity experiment (`spotsim -exp
// scale`, docs/SCALING.md). It answers the question the figures never ask:
// how big a derivative cloud can one simulation process actually sustain?
// Each rung of the ladder runs a synthetic fleet under the full controller
// and reports the two capacity numbers `go run ./bench` tracks on its fleet
// workloads:
//
//   - ns per simulated VM-hour — wall-clock cost of simulated time, the
//     reciprocal of VM-hours/sec throughput;
//   - bytes per VM — live heap per nested VM after a full-horizon run,
//     the number that bounds fleet size by memory.

// DefaultScaleLadder is the fleet-size ladder the scale experiment climbs:
// three decades from the paper's scale to the ROADMAP's 100k north star.
func DefaultScaleLadder() []int { return []int{1_000, 10_000, 100_000} }

// ScaleConfig parameterises one rung of the scale experiment.
type ScaleConfig struct {
	// VMs is the synthetic fleet size (defaults to 10k).
	VMs int
	// Horizon defaults to SixMonths.
	Horizon simkit.Time
	Seed    int64
	// Clock returns wall-clock nanoseconds. The experiments package is
	// deterministic by lint rule (no time.Now), so the wall clock is
	// injected by the non-simulation caller: cmd/spotsim and the root
	// benchmark harness pass time.Now().UnixNano.
	Clock func() int64
	// Traces overrides the default EvalTraces set; ScaleLadder uses this
	// to generate the set once and share it across rungs, exactly as the
	// sweep engine shares traces across cells.
	Traces spotmarket.Set
	// Shards and ShardWorkers are PolicyRunConfig's: how many independent
	// event loops the fleet splits across (0 and 1 both mean one) and how
	// many of them run concurrently (<= 0 means GOMAXPROCS).
	Shards       int
	ShardWorkers int
}

// ScaleResult carries one rung's capacity measurements.
type ScaleResult struct {
	VMs int
	// Shards is the number of event loops the rung ran on (>= 1).
	Shards  int
	Horizon simkit.Time
	// WallNs is the wall-clock time of building the shards, creating the
	// fleet, running the event loops to the horizon and folding the
	// report (trace generation excluded).
	WallNs int64
	// VMHours is the simulated service time the rung bought with WallNs:
	// VMs × horizon hours.
	VMHours float64
	// NsPerVMHour = WallNs / VMHours — the tracked throughput metric.
	NsPerVMHour float64
	// LiveHeapBytes is the post-run, post-GC growth of the live heap over
	// the pre-construction baseline: traces excluded, every slab, index,
	// ledger and accumulator included.
	LiveHeapBytes uint64
	// BytesPerVM = LiveHeapBytes / VMs — the tracked footprint metric.
	BytesPerVM float64

	// Sanity tails from the run's report: the capacity numbers only count
	// if the simulation still behaves.
	CostPerVMHour float64
	Availability  float64
}

// RunScale runs one rung: a synthetic fleet of cfg.VMs m3.medium nested
// VMs under the 1P-M policy and lazy-restore SpotCheck migration — the
// paper's headline configuration.
//
// Measurement protocol: the live heap is sampled (after a forced GC)
// before the shards are built and again after the run with every shard's
// object graph still reachable, so the delta is the simulation's true live
// footprint rather than allocation traffic. The wall clock covers shard
// construction, fleet creation, the event loops and the report fold; trace
// generation happens before it starts.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	if cfg.VMs <= 0 {
		cfg.VMs = 10_000
	}
	if cfg.Clock == nil {
		return ScaleResult{}, fmt.Errorf("experiments: ScaleConfig.Clock is required (the deterministic simulation packages cannot read the wall clock themselves)")
	}
	run, err := PolicyRunConfig{
		Policy:       PolicyFactory{Name: "1P-M", New: core.Policy1PM},
		Mechanism:    migration.SpotCheckLazy,
		VMs:          cfg.VMs,
		Horizon:      cfg.Horizon,
		Seed:         cfg.Seed,
		Traces:       cfg.Traces,
		Shards:       cfg.Shards,
		ShardWorkers: cfg.ShardWorkers,
	}.resolved()
	if err != nil {
		return ScaleResult{}, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := cfg.Clock()
	shards, err := runShards(run)
	if err != nil {
		return ScaleResult{}, err
	}
	res := foldShards(run, shards)
	wall := cfg.Clock() - start
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(shards)

	out := ScaleResult{
		VMs:           run.VMs,
		Shards:        run.Shards,
		Horizon:       run.Horizon,
		WallNs:        wall,
		VMHours:       float64(run.VMs) * run.Horizon.Hours(),
		CostPerVMHour: res.CostPerHour(),
		Availability:  res.Report.Availability,
	}
	if after.HeapAlloc > before.HeapAlloc {
		out.LiveHeapBytes = after.HeapAlloc - before.HeapAlloc
	}
	if out.VMHours > 0 {
		out.NsPerVMHour = float64(out.WallNs) / out.VMHours
	}
	out.BytesPerVM = float64(out.LiveHeapBytes) / float64(run.VMs)
	return out, nil
}

// ScaleLadder climbs the fleet-size ladder. The default trace set is
// generated once — fanned across the worker budget like any sweep — and
// shared read-only by every rung; the rungs themselves run sequentially
// because both capacity metrics are process-global measurements (wall
// clock, live heap) that concurrent rungs would contaminate. shards > 1
// runs every rung on the parallel sharded engine (concurrency inside a
// rung is fine: the rung is still the only measurement in flight).
func ScaleLadder(sizes []int, horizon simkit.Time, seed int64, clock func() int64, workers, shards int) ([]ScaleResult, error) {
	if len(sizes) == 0 {
		sizes = DefaultScaleLadder()
	}
	if horizon == 0 {
		horizon = SixMonths
	}
	traces, err := EvalTraces(horizon, seed, workers)
	if err != nil {
		return nil, err
	}
	out := make([]ScaleResult, 0, len(sizes))
	for _, n := range sizes {
		res, err := RunScale(ScaleConfig{
			VMs:     n,
			Horizon: horizon,
			Seed:    seed,
			Clock:   clock,
			Traces:  traces,
			Shards:  shards,
		})
		if err != nil {
			return nil, fmt.Errorf("scale rung %d VMs: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// ScaleTable renders the ladder as the capacity table docs/SCALING.md
// reproduces.
func ScaleTable(rows []ScaleResult) *analysis.Table {
	t := analysis.NewTable(
		"Fleet capacity: simulated VM-hours vs wall clock and live heap",
		"VMs", "shards", "wall-sec", "ns/vm-hour", "MVM-hours/sec", "bytes/vm", "live-MB", "$/vm-hour", "avail-%")
	for _, r := range rows {
		perSec := 0.0
		if r.WallNs > 0 {
			perSec = r.VMHours / (float64(r.WallNs) / 1e9) / 1e6
		}
		t.AddRow(r.VMs,
			r.Shards,
			float64(r.WallNs)/1e9,
			r.NsPerVMHour,
			perSec,
			r.BytesPerVM,
			float64(r.LiveHeapBytes)/(1<<20),
			r.CostPerVMHour,
			100*r.Availability)
	}
	return t
}
