package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

func TestEstimateMigration(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd),
	}
	estimateFor := func(mech migration.Mechanism, stateless bool) MigrationEstimate {
		r := newRig(t, traces, func(c *Config) { c.Mechanism = mech })
		id, err := r.ctrl.RequestServerWithOptions(ServerOptions{
			Customer: "alice", Type: cloud.M3Medium, Stateless: stateless,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.run(t, simkit.Hour)
		est, err := r.ctrl.EstimateMigration(id)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	lazy := estimateFor(migration.SpotCheckLazy, false)
	// ~0.07 pause + 22.65 replumb + ~0.07-0.13 skeleton: well under 60 s.
	if lazy.BreaksTCP {
		t.Errorf("SpotCheck lazy estimate %v should not break TCP", lazy.TotalDowntime)
	}
	if lazy.TotalDowntime < 20*simkit.Second || lazy.TotalDowntime > 30*simkit.Second {
		t.Errorf("lazy estimate = %v, want ~23 s", lazy.TotalDowntime)
	}
	if lazy.RestoreDegraded == 0 || lazy.FlushDegraded == 0 {
		t.Error("lazy estimate missing degraded phases")
	}

	yank := estimateFor(migration.UnoptimizedFull, false)
	if !yank.BreaksTCP {
		t.Errorf("Yank estimate %v should break TCP", yank.TotalDowntime)
	}
	if yank.TotalDowntime < 100*simkit.Second {
		t.Errorf("Yank estimate = %v, want 30s flush + ~100s restore", yank.TotalDowntime)
	}

	live := estimateFor(migration.XenLive, false)
	if live.TotalDowntime > simkit.Second {
		t.Errorf("live estimate = %v, want sub-second", live.TotalDowntime)
	}

	stateless := estimateFor(migration.SpotCheckLazy, true)
	if stateless.TotalDowntime < 30*simkit.Second {
		t.Errorf("stateless estimate = %v, want boot + replumb", stateless.TotalDowntime)
	}
	if stateless.FlushPause != 0 {
		t.Error("stateless VMs do not flush")
	}

	r := newRig(t, traces, nil)
	if _, err := r.ctrl.EstimateMigration("nvm-none"); err == nil {
		t.Error("unknown VM estimated")
	}
}

// TestShardIndexStability pins the fleet-partitioning contract: a
// customer's home shard depends only on the name and the shard count —
// never on seeds or controller state — so sharded runs with different
// seeds route every customer identically.
func TestShardIndexStability(t *testing.T) {
	names := []string{"alice", "bob", "customer-0", "customer-17", ""}
	for _, n := range []int{1, 2, 3, 4, 7} {
		counts := make([]int, n)
		for i := 0; i < 1000; i++ {
			s := ShardIndex(fmt.Sprintf("customer-%d", i), n)
			if s < 0 || s >= n {
				t.Fatalf("ShardIndex(customer-%d, %d) = %d out of range", i, n, s)
			}
			counts[s]++
		}
		// FNV-1a over sequential names spreads evenly enough that no shard
		// should hold more than twice its fair share.
		for s, c := range counts {
			if c > 2*1000/n {
				t.Errorf("n=%d: shard %d holds %d of 1000 customers", n, s, c)
			}
		}
		for _, name := range names {
			if ShardIndex(name, n) != ShardIndex(name, n) {
				t.Errorf("ShardIndex(%q, %d) unstable", name, n)
			}
		}
	}
}

// TestMergeReportsFold checks the cross-shard report fold: plain sums for
// counts and costs, durAcc-widened sums for durations, and VM-hour-weighted
// availability so the merged number equals what one controller owning every
// VM would report.
func TestMergeReportsFold(t *testing.T) {
	a := Report{
		VMHours: 100, TotalCost: 2, Availability: 0.99,
		TotalDown: 10 * simkit.Hour, MaxStorm: 3, TCPBreaks: 1,
		Stats: ControllerStats{Migrations: 5, Revocations: 2},
	}
	b := Report{
		VMHours: 300, TotalCost: 3, Availability: 1.0,
		TotalDown: simkit.Hour, MaxStorm: 7, TCPBreaks: 2,
		Stats: ControllerStats{Migrations: 1, Revocations: 4},
	}
	m := MergeReports([]Report{a, b})
	if m.VMHours != 400 || m.TotalCost != 5 {
		t.Errorf("sums wrong: VMHours=%v TotalCost=%v", m.VMHours, m.TotalCost)
	}
	if m.TotalDown != 11*simkit.Hour {
		t.Errorf("TotalDown = %v, want 11h", m.TotalDown)
	}
	if m.MaxStorm != 7 || m.TCPBreaks != 3 {
		t.Errorf("MaxStorm=%d TCPBreaks=%d", m.MaxStorm, m.TCPBreaks)
	}
	if m.Stats.Migrations != 6 || m.Stats.Revocations != 6 {
		t.Errorf("stats fold wrong: %+v", m.Stats)
	}
	want := 1 - (0.01*100+0.0*300)/400
	if math.Abs(m.Availability-want) > 1e-12 {
		t.Errorf("Availability = %v, want %v (VM-hour weighted)", m.Availability, want)
	}
	if got := float64(m.CostPerVMHour); math.Abs(got-5.0/400) > 1e-12 {
		t.Errorf("CostPerVMHour = %v, want %v", got, 5.0/400)
	}

	// The duration fold must survive totals that would wrap int64 summed
	// naively: two shards near the int64 ceiling clamp instead of wrapping
	// negative.
	huge := Report{VMHours: 1, TotalDown: simkit.Time(math.MaxInt64 - 1)}
	over := MergeReports([]Report{huge, huge})
	if over.TotalDown <= 0 {
		t.Errorf("TotalDown wrapped: %v", over.TotalDown)
	}

	if empty := MergeReports(nil); empty.Availability != 1 {
		t.Errorf("empty merge availability = %v, want 1", empty.Availability)
	}
}

// TestShardedConcurrentRecycleStaleHandles drives one complete simulation
// per shard on concurrent goroutines — the parallel engine's execution
// shape — with slot recycling on, and checks stale VM handles stay inert:
// a released VM's id keeps erroring even after its slab slot has been
// recycled by later requests on the same shard. Run under -race this also
// pins that shard event loops share no mutable state.
func TestShardedConcurrentRecycleStaleHandles(t *testing.T) {
	const shards = 4
	var wg sync.WaitGroup
	errs := make([]error, shards)
	wg.Add(shards)
	for s := 0; s < shards; s++ {
		go func(s int) {
			defer wg.Done()
			errs[s] = func() error {
				sched := simkit.NewScheduler()
				traces := spotmarket.Set{
					{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd),
				}
				plat, err := cloudsim.New(sched, cloudsim.Config{
					Traces: traces, Latencies: cloudsim.ZeroOpLatencies(),
				})
				if err != nil {
					return err
				}
				ctrl, err := New(Config{
					Scheduler: sched, Provider: plat,
					Mechanism: migration.SpotCheckLazy, Placement: Policy1PM(),
					Seed: int64(s), RecycleReleased: true, ExpectedVMs: 8,
				})
				if err != nil {
					return err
				}
				var stale []nestedvm.ID
				for round := 0; round < 5; round++ {
					var live []nestedvm.ID
					for i := 0; i < 8; i++ {
						id, err := ctrl.RequestServer(fmt.Sprintf("c%d-%d", s, i), cloud.M3Medium)
						if err != nil {
							return err
						}
						live = append(live, id)
					}
					sched.RunUntil(sched.Now() + simkit.Hour)
					for _, id := range stale {
						if _, err := ctrl.DescribeVM(id); err == nil {
							return fmt.Errorf("stale handle %s resolved after recycling", id)
						}
						if err := ctrl.ReleaseServer(id); err == nil {
							return fmt.Errorf("stale handle %s released twice", id)
						}
					}
					for _, id := range live {
						if err := ctrl.ReleaseServer(id); err != nil {
							return err
						}
					}
					sched.RunUntil(sched.Now() + simkit.Hour)
					stale = append(stale, live...)
				}
				return nil
			}()
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			t.Errorf("shard %d: %v", s, err)
		}
	}
}
