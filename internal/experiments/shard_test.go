package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cloudchaos"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
)

// shardedTestConfig is the shared scenario for the worker-count identity
// tests: big enough to populate every shard with several customers, long
// enough to cross price spikes and force migrations.
func shardedTestConfig() PolicyRunConfig {
	return PolicyRunConfig{
		Policy:             NamedPolicyFactories()[2], // 4P-ED spreads across markets
		Mechanism:          migration.SpotCheckLazy,
		VMs:                64,
		Horizon:            30 * simkit.Day,
		Seed:               42,
		Shards:             4,
		CollectVMDowntimes: true,
	}
}

// TestShardedIdenticalAcrossWorkers is the parallel engine's determinism
// pin: the merged report, metrics snapshot and downtime distribution must
// be byte-identical whether the shard event loops run sequentially, on two
// workers, or on every core — the sharded analogue of the sweep engine's
// worker-count identity guarantee.
func TestShardedIdenticalAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	var base PolicyRunResult
	for i, workers := range workerCounts {
		cfg := shardedTestConfig()
		cfg.ShardWorkers = workers
		res, err := RunPolicy(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			base = res
			continue
		}
		if !reflect.DeepEqual(base.Report, res.Report) {
			t.Errorf("workers=%d: merged report differs from sequential run\nseq: %+v\ngot: %+v",
				workers, base.Report, res.Report)
		}
		if !reflect.DeepEqual(base.Snapshot, res.Snapshot) {
			t.Errorf("workers=%d: merged snapshot differs from sequential run", workers)
		}
		if !reflect.DeepEqual(base.VMDowntimes, res.VMDowntimes) {
			t.Errorf("workers=%d: downtime distribution differs from sequential run", workers)
		}
	}
	if base.Report.VMHours <= 0 || base.Report.Availability <= 0.9 {
		t.Errorf("sharded run implausible: VMHours=%v Availability=%v",
			base.Report.VMHours, base.Report.Availability)
	}
	if base.Report.Stats.Revocations == 0 && base.Report.Stats.Migrations == 0 {
		t.Error("sharded run saw no market churn; the identity check is vacuous")
	}
}

// TestShardedChaosIdenticalAcrossWorkers extends the identity pin to chaos
// campaigns: per-shard chaos streams are seeded seed^shard, so fault
// injection stays deterministic at every worker count too.
func TestShardedChaosIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) PolicyRunResult {
		cfg := shardedTestConfig()
		cfg.Horizon = 10 * simkit.Day
		cfg.ShardWorkers = workers
		cfg.Chaos = &cloudchaos.Config{Seed: 7, FailProb: 0.05}
		res, err := RunPolicy(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	seq, par := run(1), run(runtime.GOMAXPROCS(0))
	if !reflect.DeepEqual(seq.Report, par.Report) {
		t.Errorf("chaos run differs across worker counts:\nseq: %+v\ngot: %+v", seq.Report, par.Report)
	}
	if !reflect.DeepEqual(seq.Snapshot, par.Snapshot) {
		t.Error("chaos snapshot differs across worker counts")
	}
	if seq.Metric("spotcheck_chaos_injected_total") == 0 {
		t.Error("no faults injected; the chaos identity check is vacuous")
	}
}

// TestShardedOneShardIsSingleLoop is the differential pin behind "the
// single loop is Shards=1": for every named policy, plus one chaos +
// arrival-curve + downtime-collecting config, Shards 0 and 1 produce the
// same report, snapshot and downtime list — and that report is the lone
// shard's own controller report, not a MergeReports re-derivation (which
// moves DegradedFraction by an ulp on these inputs).
func TestShardedOneShardIsSingleLoop(t *testing.T) {
	offsets := make([]simkit.Time, 24)
	for i := range offsets {
		offsets[i] = simkit.Time(i%6) * simkit.Hour
	}
	var cfgs []PolicyRunConfig
	for _, pol := range NamedPolicyFactories() {
		cfgs = append(cfgs, PolicyRunConfig{
			Policy: pol, Mechanism: migration.SpotCheckLazy,
			VMs: 40, Horizon: 60 * simkit.Day, Seed: 42,
		})
	}
	cfgs = append(cfgs, PolicyRunConfig{
		Policy: NamedPolicyFactories()[2], Mechanism: migration.SpotCheckLazy,
		Horizon: 20 * simkit.Day, Seed: 42,
		Chaos:          &cloudchaos.Config{Seed: 7, FailProb: 0.05},
		ArrivalOffsets: offsets, CollectVMDowntimes: true,
	})
	unmergedDiffers := false
	for _, cfg := range cfgs {
		cfg.Shards = 0
		zero, err := RunPolicy(cfg)
		if err != nil {
			t.Fatalf("%s shards=0: %v", cfg.Policy.Name, err)
		}
		cfg.Shards = 1
		one, err := RunPolicy(cfg)
		if err != nil {
			t.Fatalf("%s shards=1: %v", cfg.Policy.Name, err)
		}
		if !reflect.DeepEqual(zero.Report, one.Report) {
			t.Errorf("%s: report differs between Shards 0 and 1\n0: %+v\n1: %+v", cfg.Policy.Name, zero.Report, one.Report)
		}
		if !reflect.DeepEqual(zero.Snapshot, one.Snapshot) {
			t.Errorf("%s: snapshot differs between Shards 0 and 1", cfg.Policy.Name)
		}
		if !reflect.DeepEqual(zero.VMDowntimes, one.VMDowntimes) {
			t.Errorf("%s: downtime list differs between Shards 0 and 1", cfg.Policy.Name)
		}

		// The same simulation straight off the builder: what the lone
		// shard's controller reports is what RunPolicy must return.
		run, err := cfg.resolved()
		if err != nil {
			t.Fatal(err)
		}
		sh, err := buildShard(run, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh.run(run, 0, shardCustomerRing(1, 4)); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sh.report, one.Report) {
			t.Errorf("%s: RunPolicy report is not the lone shard's own report\nshard: %+v\ngot:   %+v", cfg.Policy.Name, sh.report, one.Report)
		}
		if !reflect.DeepEqual(sh.snapshot, one.Snapshot) {
			t.Errorf("%s: RunPolicy snapshot is not the lone shard's own snapshot", cfg.Policy.Name)
		}
		if !reflect.DeepEqual(core.MergeReports([]core.Report{sh.report}), sh.report) {
			unmergedDiffers = true
		}
	}
	if !unmergedDiffers {
		t.Error("MergeReports of a lone report is exact on every input; the unmerged check is vacuous")
	}
}

// TestShardCustomerRing pins the fleet-partitioning construction: every
// ring slot j holds a distinct customer whose core.ShardIndex home is
// shard j%n, so VM with global index g lands on shard g%n while keeping
// hash-consistent customer homes.
func TestShardCustomerRing(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		ring := shardCustomerRing(n, 4)
		if len(ring) != 4*n {
			t.Fatalf("n=%d: ring has %d entries, want %d", n, len(ring), 4*n)
		}
		seen := map[string]bool{}
		for j, name := range ring {
			if seen[name] {
				t.Errorf("n=%d: duplicate ring entry %q", n, name)
			}
			seen[name] = true
			if home := core.ShardIndex(name, n); home != j%n {
				t.Errorf("n=%d: ring[%d]=%q homes to shard %d, want %d", n, j, name, home, j%n)
			}
		}
		if !reflect.DeepEqual(ring, shardCustomerRing(n, 4)) {
			t.Errorf("n=%d: ring construction is not deterministic", n)
		}
	}
}

// TestShardedValidation covers the sharded dispatcher's error paths.
func TestShardedValidation(t *testing.T) {
	if _, err := RunPolicy(PolicyRunConfig{VMs: 2, Shards: 4, Horizon: simkit.Day}); err == nil {
		t.Error("accepted fewer VMs than shards")
	}
}

// TestShardedArrivalOffsets checks the arrival-curve path survives the
// fleet partitioning: offsets follow their VM to its shard.
func TestShardedArrivalOffsets(t *testing.T) {
	offsets := make([]simkit.Time, 16)
	for i := range offsets {
		offsets[i] = simkit.Time(i) * simkit.Hour
	}
	cfg := PolicyRunConfig{
		Mechanism:      migration.SpotCheckLazy,
		Horizon:        5 * simkit.Day,
		Seed:           1,
		Shards:         4,
		ShardWorkers:   1,
		ArrivalOffsets: offsets,
	}
	res, err := RunPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.VMs != 16 {
		t.Errorf("VMs = %d, want 16", res.VMs)
	}
	if created := res.Metric("spotcheck_vms_created_total"); created != 16 {
		t.Errorf("created %v VMs, want 16", created)
	}
}
