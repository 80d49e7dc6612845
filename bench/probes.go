package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// The layer probes run one layer alone, through its public API, for a fixed
// op count, and report host ns per op. They fill the gaps a traced run
// cannot: a cold 100k-deep scheduler heap, one monitor tick at 10k hosts,
// AccruedCost with and without prefix integrals. They are not end-to-end
// numbers; the README says which end-to-end metric each should move.

const (
	probeCounter   = "spotcheck_bench_probe_total"
	probeHistogram = "spotcheck_bench_probe_seconds"
)

// probeRepeats is how often each probe's timed body runs; the median is
// reported.
const probeRepeats = 3

// nsPerOp times body, which performs ops operations, probeRepeats times.
// setup runs before every repeat, untimed.
func nsPerOp(ops int, setup func() error, body func() error) (float64, error) {
	var samples []float64
	for i := 0; i < probeRepeats; i++ {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		if err := body(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0))/float64(ops))
	}
	return median(samples), nil
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

type probe struct {
	name string
	run  func(quick bool) (float64, error)
}

func scale(quick bool, n int) int {
	if quick {
		return max(n/50, 10)
	}
	return n
}

func flatTraces(price cloud.USD, end simkit.Time) (spotmarket.Set, error) {
	set := spotmarket.Set{}
	for _, typ := range []string{cloud.M3Medium, cloud.M3Large, cloud.M3XLarge, cloud.M32XLarge} {
		tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: price}}, end)
		if err != nil {
			return nil, err
		}
		set[spotmarket.MarketKey{Type: typ, Zone: experiments.EvalZone}] = tr
	}
	return set, nil
}

func mediumTrace() (*spotmarket.Trace, error) {
	return spotmarket.Generate(spotmarket.DefaultConfig(0.07, spotmarket.VolatilityHigh),
		experiments.SixMonths, rand.New(rand.NewSource(marketSeed)))
}

// spotPlatform builds a platform over one m3.medium market with instant
// operations and launches n spot instances at the given bid.
func spotPlatform(tr *spotmarket.Trace, n int, bid cloud.USD, prefix bool) (*simkit.Scheduler, *cloudsim.Platform, []cloud.InstanceID, error) {
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces:        spotmarket.Set{{Type: cloud.M3Medium, Zone: experiments.EvalZone}: tr},
		Latencies:     cloudsim.ZeroOpLatencies(),
		PrefixBilling: prefix,
		Seed:          marketSeed,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ids := make([]cloud.InstanceID, 0, n)
	var launchErr error
	for i := 0; i < n; i++ {
		plat.RequestSpot(cloud.M3Medium, experiments.EvalZone, bid, func(inst *cloud.Instance, err error) {
			if err != nil {
				launchErr = err
				return
			}
			ids = append(ids, inst.ID)
		})
	}
	sched.RunUntil(sched.Now() + simkit.Second)
	if launchErr != nil {
		return nil, nil, nil, launchErr
	}
	if len(ids) != n {
		return nil, nil, nil, fmt.Errorf("probe: %d of %d spot launches completed", len(ids), n)
	}
	return sched, plat, ids, nil
}

// controllerFor builds a default-layout controller the way spotcheckd does
// (4P-ED, lazy restore) over the given traces and provisions vms VMs.
func controllerFor(traces spotmarket.Set, policy core.PlacementPolicy, vms int, settle simkit.Time) (*simkit.Scheduler, *core.Controller, *obs.Registry, []nestedvm.ID, error) {
	sched := simkit.NewScheduler()
	reg := obs.NewRegistry()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: marketSeed, Metrics: reg})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ctrl, err := core.New(core.Config{
		Scheduler: sched, Provider: plat, Mechanism: migration.SpotCheckLazy, Placement: policy,
		MonitorInterval: 10 * simkit.Minute, Seed: marketSeed, Metrics: reg,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ids := make([]nestedvm.ID, vms)
	for i := range ids {
		if ids[i], err = ctrl.RequestServer(fmt.Sprintf("cust-%d", i%16), cloud.M3Medium); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	sched.RunUntil(settle)
	return sched, ctrl, reg, ids, nil
}

func simkitProbes() []probe {
	const depth = 100_000
	fill := func(s *simkit.Scheduler, rng *rand.Rand) []simkit.Event {
		evs := make([]simkit.Event, depth)
		for i := range evs {
			evs[i] = s.After(simkit.Time(rng.Int63n(int64(simkit.Day))), "probe", func() {})
		}
		return evs
	}
	return []probe{
		{"simkit.ns_per_event", func(quick bool) (float64, error) {
			n := scale(quick, 400_000)
			var s *simkit.Scheduler
			rng := rand.New(rand.NewSource(1))
			return nsPerOp(n, func() error { s = simkit.NewScheduler(); fill(s, rng); return nil }, func() error {
				// Each fired event schedules a successor, holding the heap
				// at depth: one pop and one push per op.
				for i := 0; i < n; i++ {
					s.Step()
					s.After(simkit.Time(rng.Int63n(int64(simkit.Day))), "probe", func() {})
				}
				return nil
			})
		}},
		{"simkit.cancel_ns", func(quick bool) (float64, error) {
			var s *simkit.Scheduler
			var evs []simkit.Event
			rng := rand.New(rand.NewSource(2))
			return nsPerOp(depth, func() error { s = simkit.NewScheduler(); evs = fill(s, rng); return nil }, func() error {
				for _, ev := range evs {
					s.Cancel(ev)
				}
				return nil
			})
		}},
	}
}

func spotmarketProbes() []probe {
	return []probe{
		{"spotmarket.generate_ns_per_point", func(quick bool) (float64, error) {
			points := 0
			ns, err := nsPerOp(1, nil, func() error {
				tr, err := mediumTrace()
				if err == nil {
					points = tr.Len()
				}
				return err
			})
			return ns / float64(max(points, 1)), err
		}},
		{"spotmarket.cursor_ns_per_sample", func(quick bool) (float64, error) {
			tr, err := mediumTrace()
			if err != nil {
				return 0, err
			}
			samples := int(tr.End() / simkit.Minute)
			return nsPerOp(samples, nil, func() error {
				cur := tr.Cursor()
				for t := simkit.Time(0); t < tr.End(); t += simkit.Minute {
					sink += float64(cur.PriceAt(t))
				}
				return nil
			})
		}},
		{"spotmarket.price_at_ns", func(quick bool) (float64, error) {
			tr, err := mediumTrace()
			if err != nil {
				return 0, err
			}
			n := scale(quick, 1_000_000)
			rng := rand.New(rand.NewSource(3))
			return nsPerOp(n, nil, func() error {
				for i := 0; i < n; i++ {
					sink += float64(tr.PriceAt(simkit.Time(rng.Int63n(int64(tr.End())))))
				}
				return nil
			})
		}},
		{"spotmarket.prefix_integrate_ns", func(quick bool) (float64, error) {
			tr, err := mediumTrace()
			if err != nil {
				return 0, err
			}
			pi := tr.PrefixIntegral()
			n := scale(quick, 1_000_000)
			rng := rand.New(rand.NewSource(4))
			return nsPerOp(n, nil, func() error {
				for i := 0; i < n; i++ {
					a := simkit.Time(rng.Int63n(int64(tr.End() / 2)))
					sink += float64(pi.Integrate(a, a+tr.End()/2))
				}
				return nil
			})
		}},
	}
}

func cloudsimProbes() []probe {
	flat := func() (*spotmarket.Trace, error) {
		return spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: 0.01}}, experiments.SixMonths)
	}
	accrued := func(prefix bool) func(bool) (float64, error) {
		return func(quick bool) (float64, error) {
			tr, err := mediumTrace()
			if err != nil {
				return 0, err
			}
			n := scale(quick, 2000)
			sched, plat, ids, err := spotPlatform(tr, n, 100, prefix)
			if err != nil {
				return 0, err
			}
			// Bill three months in (the bid is above any spike, so every
			// instance is still running): the segment walk has that much
			// history to cover, the prefix form two binary searches.
			sched.RunUntil(90 * simkit.Day)
			return nsPerOp(len(ids), nil, func() error {
				for _, id := range ids {
					c, err := plat.AccruedCost(id)
					if err != nil {
						return err
					}
					sink += float64(c)
				}
				return nil
			})
		}
	}
	return []probe{
		{"cloudsim.request_spot_ns", func(quick bool) (float64, error) {
			tr, err := flat()
			if err != nil {
				return 0, err
			}
			n := scale(quick, 20_000)
			return nsPerOp(n, nil, func() error {
				_, _, _, err := spotPlatform(tr, n, 0.07, false)
				return err
			})
		}},
		{"cloudsim.accrued_cost_ns", accrued(false)},
		{"cloudsim.accrued_cost_prefix_ns", accrued(true)},
		{"cloudsim.revocation_sweep_ns_per_instance", func(quick bool) (float64, error) {
			// One price step above every bid: the sweep warns the whole market.
			tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: 0.01}, {T: simkit.Hour, Price: 1}}, simkit.Day)
			if err != nil {
				return 0, err
			}
			n := scale(quick, 20_000)
			var sched *simkit.Scheduler
			var plat *cloudsim.Platform
			ns, err := nsPerOp(n, func() (err error) {
				sched, plat, _, err = spotPlatform(tr, n, 0.07, false)
				if err == nil {
					sched.RunUntil(simkit.Hour - simkit.Second)
				}
				return err
			}, func() error {
				sched.RunUntil(simkit.Hour + simkit.Second)
				return nil
			})
			if err == nil && plat.Stats().WarningsIssued != n {
				err = fmt.Errorf("probe: sweep warned %d of %d instances", plat.Stats().WarningsIssued, n)
			}
			return ns, err
		}},
	}
}

func coreProbes() []probe {
	// One 2k-VM controller, a day in, shared by the introspection probes —
	// the state spotcheckd serves reads from.
	type fixture struct {
		ctrl *core.Controller
		reg  *obs.Registry
		ids  []nestedvm.ID
	}
	var shared *fixture
	daemonLike := func(quick bool) (*fixture, error) {
		if shared != nil {
			return shared, nil
		}
		traces, err := experiments.EvalTraces(experiments.SixMonths, marketSeed)
		if err != nil {
			return nil, err
		}
		_, ctrl, reg, ids, err := controllerFor(traces, core.Policy4PED(), scale(quick, 2000), simkit.Day)
		if err != nil {
			return nil, err
		}
		shared = &fixture{ctrl, reg, ids}
		return shared, nil
	}
	perVM := func(fn func(f *fixture, id nestedvm.ID) error) func(bool) (float64, error) {
		return func(quick bool) (float64, error) {
			f, err := daemonLike(quick)
			if err != nil {
				return 0, err
			}
			const rounds = 20
			return nsPerOp(rounds*len(f.ids), nil, func() error {
				for r := 0; r < rounds; r++ {
					for _, id := range f.ids {
						if err := fn(f, id); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}
	}
	return []probe{
		{"core.monitor_tick_ns_per_host", func(quick bool) (float64, error) {
			// A flat market far below every bid: nothing happens but the
			// monitor loop looking at 10k one-VM hosts.
			traces, err := flatTraces(0.01, experiments.SixMonths)
			if err != nil {
				return 0, err
			}
			hosts := scale(quick, 10_000)
			sched, ctrl, _, _, err := controllerFor(traces, core.Policy1PM(), hosts, simkit.Day)
			if err != nil {
				return 0, err
			}
			const ticks = 144 // one simulated day at the 10-minute interval
			ns, err := nsPerOp(ticks*hosts, nil, func() error {
				sched.RunUntil(sched.Now() + simkit.Day)
				return nil
			})
			if n := len(ctrl.Pools()); err == nil && n != 1 {
				err = fmt.Errorf("probe: expected one pool, got %d", n)
			}
			return ns, err
		}},
		{"core.list_vms_ns_per_vm", func(quick bool) (float64, error) {
			f, err := daemonLike(quick)
			if err != nil {
				return 0, err
			}
			const rounds = 20
			return nsPerOp(rounds*len(f.ids), nil, func() error {
				for r := 0; r < rounds; r++ {
					sink += float64(len(f.ctrl.ListVMs()))
				}
				return nil
			})
		}},
		{"core.describe_vm_ns", perVM(func(f *fixture, id nestedvm.ID) error {
			info, err := f.ctrl.DescribeVM(id)
			sink += info.Availability
			return err
		})},
		{"core.estimate_ns", perVM(func(f *fixture, id nestedvm.ID) error {
			est, err := f.ctrl.EstimateMigration(id)
			sink += float64(est.TotalDowntime)
			return err
		})},
		{"core.customers_ns", func(quick bool) (float64, error) {
			f, err := daemonLike(quick)
			if err != nil {
				return 0, err
			}
			const rounds = 20
			return nsPerOp(rounds, nil, func() error {
				for r := 0; r < rounds; r++ {
					sink += float64(len(f.ctrl.Customers()))
				}
				return nil
			})
		}},
		{"obs.write_prometheus_ns", func(quick bool) (float64, error) {
			f, err := daemonLike(quick)
			if err != nil {
				return 0, err
			}
			const rounds = 50
			return nsPerOp(rounds, nil, func() error {
				for r := 0; r < rounds; r++ {
					if err := f.reg.WritePrometheus(io.Discard); err != nil {
						return err
					}
				}
				return nil
			})
		}},
	}
}

func smallLayerProbes() []probe {
	return []probe{
		{"backup.assign_ns", func(quick bool) (float64, error) {
			n := scale(quick, 100_000)
			ids := make([]string, n)
			for i := range ids {
				ids[i] = fmt.Sprintf("nvm-%06d", i)
			}
			groups := []string{"m3.medium", "m3.large", "m3.xlarge", "m3.2xlarge"}
			return nsPerOp(n, nil, func() error {
				pool := backup.NewPool(backup.DefaultConfig(), nil)
				for i, id := range ids {
					if _, err := pool.AssignSpread(id, 3, groups[i%len(groups)]); err != nil {
						return err
					}
				}
				return nil
			})
		}},
		{"migration.flush_ns", func(quick bool) (float64, error) {
			n := scale(quick, 2_000_000)
			return nsPerOp(n, nil, func() error {
				for i := 0; i < n; i++ {
					res, err := migration.SimulateFlush(migration.FlushSpec{
						ResidueMB: 100 + float64(i%64), DirtyMBs: 3, BandwidthMBs: 50,
						Warning: 120 * simkit.Second, Ramped: true,
					})
					if err != nil {
						return err
					}
					sink += float64(res.Total)
				}
				return nil
			})
		}},
		{"migration.restore_ns", func(quick bool) (float64, error) {
			n := scale(quick, 2_000_000)
			return nsPerOp(n, nil, func() error {
				for i := 0; i < n; i++ {
					res, err := migration.SimulateRestore(migration.RestoreSpec{
						MemoryMB: 3750, SkeletonMB: 5, ReadMBs: 20 + float64(i%16), Lazy: true,
					})
					if err != nil {
						return err
					}
					sink += float64(res.Downtime)
				}
				return nil
			})
		}},
		{"obs.counter_inc_ns", func(quick bool) (float64, error) {
			n := scale(quick, 5_000_000)
			ctr := obs.NewRegistry().Counter(probeCounter)
			return nsPerOp(n, nil, func() error {
				for i := 0; i < n; i++ {
					ctr.Inc()
				}
				return nil
			})
		}},
		{"obs.histogram_observe_ns", func(quick bool) (float64, error) {
			n := scale(quick, 5_000_000)
			h := obs.NewRegistry().Histogram(probeHistogram, obs.CountBuckets)
			return nsPerOp(n, nil, func() error {
				for i := 0; i < n; i++ {
					h.Observe(float64(i % 100))
				}
				return nil
			})
		}},
	}
}

func allProbes() []probe {
	var ps []probe
	for _, group := range [][]probe{simkitProbes(), spotmarketProbes(), cloudsimProbes(), coreProbes(), smallLayerProbes()} {
		ps = append(ps, group...)
	}
	return ps
}

// runProbes runs every layer probe and reports each as a per-layer metric.
func runProbes(e env) (iterResult, error) {
	var r iterResult
	t0 := time.Now()
	for _, p := range allProbes() {
		v, err := p.run(e.quick)
		if err != nil {
			return r, fmt.Errorf("probe %s: %w", p.name, err)
		}
		r.setLayer(p.name, v)
	}
	r.WallS = time.Since(t0).Seconds()
	r.Attempted = len(r.Layer)
	return r, nil
}
