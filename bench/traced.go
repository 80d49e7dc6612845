package main

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/simkit"
)

// The traced runs assemble scheduler + platform [+ fault injector] +
// controller through their constructors, exactly as experiments.RunPolicy
// does, but with a timedProvider between the controller and the platform
// and the event loop driven one simulated day at a time. They are separate
// from the timed runs: end-to-end numbers are always taken without them.

// tracedSim is one hand-assembled simulation.
type tracedSim struct {
	cfg      experiments.PolicyRunConfig
	customer func(i int) string
	sched    *simkit.Scheduler
	reg      *obs.Registry
	ctrl     *core.Controller
	// inner sits next to the platform: its calls are cloudsim's. outer sits
	// between the controller and the fault injector, when there is one.
	inner, outer *timedProvider
	pendingMax   int
}

// assemble mirrors experiments.RunPolicy's single-loop construction for the
// config fields the fleet and campaign workloads use.
func assemble(cfg experiments.PolicyRunConfig, customer func(i int) string, rec *recorder) (*tracedSim, error) {
	if len(cfg.ArrivalOffsets) > 0 {
		cfg.VMs = len(cfg.ArrivalOffsets)
	}
	if cfg.MonitorInterval == 0 {
		cfg.MonitorInterval = 10 * simkit.Minute
	}
	s := &tracedSim{cfg: cfg, customer: customer, sched: simkit.NewScheduler(), reg: obs.NewRegistry()}
	platCfg := cloudsim.Config{Traces: cfg.Traces, Seed: cfg.Seed, Metrics: s.reg}
	coreCfg := core.Config{
		Scheduler:       s.sched,
		Mechanism:       cfg.Mechanism,
		Placement:       cfg.Policy.New(),
		MonitorInterval: cfg.MonitorInterval,
		Seed:            cfg.Seed,
		Metrics:         s.reg,
	}
	if cfg.FleetMode {
		platCfg.ExpectedInstances = cfg.VMs + cfg.VMs/4 + 64
		platCfg.CompactTerminated = true
		platCfg.PrefixBilling = true
		platCfg.VPC = netip.MustParsePrefix("10.0.0.0/8")
		coreCfg.ExpectedVMs = cfg.VMs
		coreCfg.RecycleReleased = true
	}
	plat, err := cloudsim.New(s.sched, platCfg)
	if err != nil {
		return nil, err
	}
	s.inner = &timedProvider{Provider: plat, rec: rec, layer: "cloudsim", cbLayer: "core.callback", warnLayer: "core.warning"}
	coreCfg.Provider = s.inner
	if cfg.Chaos != nil {
		// Decorators on both sides of the injector: what the outer one
		// sees minus what the inner one sees is the injector's own time.
		s.inner.cbLayer, s.inner.warnLayer = "cloudchaos", ""
		chaosCfg := *cfg.Chaos
		chaosCfg.Metrics = s.reg
		s.outer = &timedProvider{
			Provider: cloudchaos.Wrap(s.inner, s.sched, chaosCfg), rec: rec,
			layer: "cloudchaos", cbLayer: "core.callback", warnLayer: "core.warning",
		}
		coreCfg.Provider = s.outer
	}
	s.ctrl, err = core.New(coreCfg)
	return s, err
}

// run requests the fleet and drives the event loop day by day.
func (s *tracedSim) run(rec *recorder) error {
	var arrivalErrs []error
	request := func(i int) error {
		_, err := s.ctrl.RequestServerWithOptions(core.ServerOptions{
			Customer: s.customer(i), Type: cloud.M3Medium, Stateless: s.cfg.Stateless,
		})
		return err
	}
	rec.day = 0
	rec.begin("core.request_fleet", "core.request_fleet")
	for i := 0; i < s.cfg.VMs; i++ {
		if len(s.cfg.ArrivalOffsets) > 0 && s.cfg.ArrivalOffsets[i] > 0 {
			i := i
			s.sched.After(s.cfg.ArrivalOffsets[i], fmt.Sprintf("arrival vm-%d", i), func() {
				if err := request(i); err != nil {
					arrivalErrs = append(arrivalErrs, fmt.Errorf("arrival %d: %w", i, err))
				}
			})
			continue
		}
		if err := request(i); err != nil {
			rec.exit()
			return err
		}
	}
	rec.exit()
	for t := simkit.Time(0); t < s.cfg.Horizon; rec.day++ {
		t += simkit.Day
		if t > s.cfg.Horizon {
			t = s.cfg.Horizon
		}
		rec.begin("simkit.loop", "simkit.run_until")
		s.sched.RunUntil(t)
		rec.exit()
		if p := s.sched.Pending(); p > s.pendingMax {
			s.pendingMax = p
		}
	}
	return errors.Join(arrivalErrs...)
}

// finish takes the report and snapshot, timing both.
func (s *tracedSim) finish(rec *recorder) (core.Report, *obs.Snapshot) {
	rec.begin("core.report", "core.report")
	rep := s.ctrl.Report()
	rec.exit()
	rec.begin("obs.snapshot", "obs.snapshot")
	snap := s.reg.Snapshot()
	rec.exit()
	return rep, snap
}

// p99Downtime is the campaign's per-VM p99 total downtime, taken the way
// experiments.RunPolicy's CollectVMDowntimes and scenario do.
func (s *tracedSim) p99Downtime() simkit.Time {
	var downs []simkit.Time
	for _, info := range s.ctrl.ListVMs() {
		downs = append(downs, s.ctrl.DebugLedger(info.ID).Down)
	}
	if len(downs) == 0 {
		return 0
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i] < downs[j] })
	rank := int(0.99*float64(len(downs))+0.9999999) - 1
	if rank >= len(downs) {
		rank = len(downs) - 1
	}
	return downs[rank]
}

func defaultCustomer(i int) string { return fmt.Sprintf("customer-%d", i%4) }

// shardCustomerRing is the fleet-wide customer ring of an n-shard run: the
// first perShard names customer-k whose core.ShardIndex home is each shard,
// interleaved so ring position j belongs to shard j%n. It must name
// customers as the sharded engine does for the hand-built shards to
// reproduce its merged report.
func shardCustomerRing(n, perShard int) []string {
	byShard := make([][]string, n)
	for k, need := 0, n*perShard; need > 0; k++ {
		name := fmt.Sprintf("customer-%d", k)
		if s := core.ShardIndex(name, n); len(byShard[s]) < perShard {
			byShard[s] = append(byShard[s], name)
			need--
		}
	}
	ring := make([]string, 0, n*perShard)
	for j := 0; j < n*perShard; j++ {
		ring = append(ring, byShard[j%n][j/n])
	}
	return ring
}

// layerFromRecorder turns the recorder's self times and folded ops into
// the traced per-layer metrics.
func (r *iterResult) layerFromRecorder(rec *recorder, sims []*tracedSim) {
	var fired uint64
	var failed, warnings int64
	pendingMax := 0
	for _, s := range sims {
		fired += s.sched.Fired()
		pendingMax = max(pendingMax, s.pendingMax)
		failed += s.inner.failedCalls
		warnings += s.inner.warningsPassed
		if s.outer != nil {
			warnings += s.outer.warningsPassed
		}
	}
	r.setLayer("simkit.events_fired", float64(fired))
	r.setLayer("simkit.loop_self_s", rec.selfS("simkit.loop"))
	r.setLayer("simkit.pending_max", float64(pendingMax))
	r.setLayer("cloudsim.busy_s", rec.selfS("cloudsim"))
	r.setLayer("cloudchaos.self_s", rec.selfS("cloudchaos"))
	r.setLayer("core.request_fleet_s", rec.selfS("core.request_fleet"))
	r.setLayer("core.callback_self_s", rec.selfS("core.callback"))
	r.setLayer("core.warning_self_s", rec.selfS("core.warning"))
	r.setLayer("obs.snapshot_s", rec.selfS("obs.snapshot"))
	var calls int64
	for _, op := range opGroups {
		n, busy := rec.opTotals("cloudsim", op)
		calls += n
		r.setLayer("cloudsim."+op+".calls", float64(n))
		r.setLayer("cloudsim."+op+".busy_s", float64(busy)/1e9)
	}
	r.setLayer("cloudsim.failed_calls", float64(failed))
	r.setLayer("cloudsim.revocation_warnings", float64(warnings))
	if calls > 0 {
		r.setLayer("cloudchaos.injected_share", r.Layer["cloudchaos.injected_faults"]/float64(calls))
	}
}

// tracedFleet is the traced counterpart of fleetIter. With shards > 1 it
// builds every shard's loop by hand, one after another, then times the
// snapshot and report merges.
func tracedFleet(e env, shards int) (iterResult, error) {
	sz := sizesFor(e.quick)
	workload := "fleet"
	if shards > 1 {
		workload = "fleet-sharded"
	}
	var r iterResult
	rec := newRecorder(fmt.Sprintf("%s-seed%d", workload, e.seed))
	rec.begin("spotmarket.generate", "spotmarket.generate")
	traces, err := experiments.EvalTraces(sz.fleetHorizon, marketSeed)
	r.setLayer("spotmarket.generate_s", float64(rec.exit())/1e9)
	if err != nil {
		return r, err
	}
	base := experiments.PolicyRunConfig{
		Policy:    experiments.PolicyFactory{Name: "1P-M", New: core.Policy1PM},
		Mechanism: migration.SpotCheckLazy,
		VMs:       sz.fleetVMs, Horizon: sz.fleetHorizon, Seed: e.seed,
		Traces: traces, FleetMode: true,
	}
	n := max(shards, 1)
	ring := shardCustomerRing(n, 4)
	var (
		reports []core.Report
		snaps   []*obs.Snapshot
		sims    []*tracedSim // every shard stays alive until the merge, as in the engine
	)
	r.SetupS = time.Since(e.spawned).Seconds()
	cpu0, t0 := selfCPU(), time.Now()
	for s := 0; s < n; s++ {
		cfg, customer := base, defaultCustomer
		if n > 1 {
			var global []int
			for g := s; g < base.VMs; g += n {
				global = append(global, g)
			}
			cfg.VMs, cfg.Seed = len(global), base.Seed^int64(s)
			customer = func(i int) string { return ring[global[i]%len(ring)] }
		}
		sim, err := assemble(cfg, customer, rec)
		if err != nil {
			return r, err
		}
		if err := sim.run(rec); err != nil {
			return r, err
		}
		rep, snap := sim.finish(rec)
		reports, snaps, sims = append(reports, rep), append(snaps, snap), append(sims, sim)
	}
	rep, snap := reports[0], snaps[0]
	if n > 1 {
		rec.begin("obs.merge_snapshots", "obs.merge_snapshots")
		snap = obs.MergeSnapshots(snaps)
		rep = core.MergeReports(reports)
		r.setLayer("obs.merge_snapshots_s", float64(rec.exit())/1e9)
	}
	r.WallS, r.CPUS = time.Since(t0).Seconds(), selfCPU()-cpu0
	r.VMHours = float64(base.VMs) * base.Horizon.Hours()
	r.Attempted = rep.Stats.VMsCreated + int(snap.Total("spotcheck_migrations_started_total"))
	r.Failed = base.VMs - rep.Stats.VMsCreated + rep.Stats.VMsLostMemoryState
	r.Sim = simFromReport(rep)
	r.Sim["vms"] = float64(base.VMs)
	r.layerFromSim()
	r.layerFromSnapshot(snap)
	r.layerFromRecorder(rec, sims)
	r.setLayer("core.report_ns", float64(rec.selfNs["core.report"])/float64(n))
	return r, rec.write(e.outDir, workload)
}

// tracedCampaign runs each bench-owned scenario cell by hand.
func tracedCampaign(e env) (iterResult, error) {
	var r iterResult
	specs, err := loadCampaign(e)
	if err != nil {
		return r, err
	}
	rec := newRecorder(fmt.Sprintf("campaign-seed%d", e.seed))
	r.SetupS = time.Since(e.spawned).Seconds()
	cpu0, t0 := selfCPU(), time.Now()
	var (
		results []scenario.Result
		sims    []*tracedSim
		snaps   []*obs.Snapshot
	)
	for _, spec := range specs {
		rec.begin("scenario.cell", "scenario.cell."+spec.Name)
		rec.begin("scenario.compile", "scenario.compile")
		cell, err := scenario.Compile(spec)
		rec.exit()
		if err != nil {
			return r, err
		}
		sim, err := assemble(cell.Cfg, defaultCustomer, rec)
		if err != nil {
			return r, err
		}
		if err := sim.run(rec); err != nil {
			return r, err
		}
		rep, snap := sim.finish(rec)
		r.setLayer("scenario.cell_s."+spec.Name, float64(rec.exit())/1e9)
		results = append(results, scenario.Result{
			Spec: spec,
			Run: experiments.PolicyRunResult{
				Policy: cell.Cfg.Policy.Name, Mechanism: cell.Cfg.Mechanism, Report: rep,
				VMs: sim.cfg.VMs, Horizon: cell.Cfg.Horizon, Snapshot: snap,
			},
			P99Downtime:    sim.p99Downtime(),
			InjectedFaults: int(snap.Total("spotcheck_chaos_injected_total")),
		})
		sims, snaps = append(sims, sim), append(snaps, snap)
		r.VMHours += float64(spec.VMs) * spec.Hours
	}
	r.WallS, r.CPUS = time.Since(t0).Seconds(), selfCPU()-cpu0
	campaignSim(&r, results)
	for _, res := range results {
		for layer, key := range countLayers {
			r.setLayer(layer, r.Layer[layer]+r.Sim[res.Spec.Name+"/"+key])
		}
		r.setLayer("backup.max_fanin", max(r.Layer["backup.max_fanin"], float64(res.Run.Report.BackupVMsMax)))
	}
	// Counts only a snapshot has add up too: merging sums same-name series.
	r.layerFromSnapshot(obs.MergeSnapshots(snaps))
	r.layerFromRecorder(rec, sims)
	r.setLayer("scenario.compile_s", rec.selfS("scenario.compile"))
	r.setLayer("core.report_ns", float64(rec.selfNs["core.report"])/float64(len(specs)))
	return r, rec.write(e.outDir, "campaign")
}

// figuresStdoutPath is where the parent leaves the untraced spotsim output
// for the replay to compare itself against.
func figuresStdoutPath(e env) string { return filepath.Join(e.outDir, "figures-stdout.txt") }

// tracedFigures replays in this process the experiments calls spotsim -exp
// all makes, one span each, and checks that what it renders is what the
// binary printed.
func tracedFigures(e env) (iterResult, error) {
	sz := sizesFor(e.quick)
	var r iterResult
	rec := newRecorder("figures-replay")
	vms, seed, workers := sz.figuresVMs, int64(marketSeed), figuresWorkers
	horizon := simkit.Time(float64(30*simkit.Day) * sz.figuresMonths)
	var blocks []string
	phase := func(name string, fn func() error) error {
		rec.begin("experiments", "experiments."+name)
		err := fn()
		r.setLayer("experiments."+name+"_s", float64(rec.exit())/1e9)
		return err
	}
	r.SetupS = time.Since(e.spawned).Seconds()
	cpu0, t0 := selfCPU(), time.Now()

	var matrix [][]experiments.PolicyRunResult
	var table3 []experiments.Table3Result
	var headline experiments.Headline
	var catalog []experiments.CatalogComparisonRow
	var ablations string
	steps := []struct {
		name string
		fn   func() (err error)
	}{
		{"matrix", func() (err error) { matrix, err = experiments.PolicyMatrix(vms, horizon, seed, workers); return }},
		{"table3", func() (err error) { table3, err = experiments.Table3(vms, horizon, seed, workers); return }},
		{"headline", func() (err error) { headline, err = experiments.RunHeadline(vms, horizon, seed); return }},
		{"ablations", func() (err error) { ablations, err = experiments.RenderAblations(vms, horizon, seed, workers); return }},
		{"catalog", func() (err error) { catalog, err = experiments.CatalogComparison(vms, horizon, seed, workers); return }},
		{"render", func() error {
			blocks = []string{
				experiments.Fig10Bars(matrix).String(), experiments.Fig11Bars(matrix).String(),
				experiments.Fig12Bars(matrix).String(), experiments.Table3Render(table3, vms).String(),
				ablations, experiments.CatalogComparisonTable(catalog, vms).String(),
				fmt.Sprintf("cost per VM-hour:     $%.4f", headline.CostPerVMHour),
				fmt.Sprintf("availability:         %.4f%%", 100*headline.Availability),
				fmt.Sprintf("migrations:           %d\n", headline.Migrations),
			}
			return nil
		}},
	}
	for _, s := range steps {
		if err := phase(s.name, s.fn); err != nil {
			return r, err
		}
	}
	r.WallS, r.CPUS = time.Since(t0).Seconds(), selfCPU()-cpu0
	r.VMHours = float64(vms) * horizon.Hours()

	// Parallel efficiency of the sweep engine: the same matrix on two
	// workers, with every core (the replay itself ran under GOMAXPROCS=1).
	oneWorker := r.Layer["experiments.matrix_s"]
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	rec.begin("experiments", "experiments.matrix_two_workers")
	_, err := experiments.PolicyMatrix(vms, horizon, seed, 2)
	twoWorkers := float64(rec.exit()) / 1e9
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return r, err
	}
	if twoWorkers > 0 {
		r.setLayer("experiments.sweep_speedup", oneWorker/twoWorkers)
	}

	if stdout, err := os.ReadFile(figuresStdoutPath(e)); err != nil {
		r.problemf("figures: no untraced stdout to compare the replay with: %v", err)
	} else {
		for _, b := range blocks {
			if !strings.Contains(string(stdout), b) {
				r.problemf("figures: spotsim stdout lacks what the replay rendered: %.60q...", b)
			}
		}
	}
	const paperCost = 0.015 // $/VM-hour, the paper's headline (availability: 99.9989 %)
	r.setLayer("experiments.paper_err_pct", 100*math.Abs(headline.CostPerVMHour-paperCost)/paperCost)
	r.setLayer("sim_cost_per_vm_hour", headline.CostPerVMHour)
	r.setLayer("sim_unavail_pct", 100*(1-headline.Availability))
	snap := headline.Snapshot
	started, aborted := snap.Total("spotcheck_migrations_started_total"), snap.Total("spotcheck_migrations_aborted_total")
	returns, _ := snap.Value("spotcheck_migrations_started_total", obs.L("reason", "return"))
	r.setLayer("core.migrations", started-aborted)
	r.setLayer("core.revocations", snap.Total("spotcheck_revocation_warnings_total"))
	r.setLayer("core.return_migrations", returns-aborted)
	r.setLayer("core.hosts_acquired", snap.Total("spotcheck_hosts_acquired_total"))
	r.setLayer("core.destination_failures", snap.Total("spotcheck_destination_failures_total"))
	r.setLayer("backup.servers", snap.Total("spotcheck_backup_servers"))
	r.layerFromSnapshot(snap)
	r.Attempted = 1
	return r, rec.write(e.outDir, "figures")
}
