package experiments

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// PolicyFactory constructs a fresh (stateful) placement policy per run.
type PolicyFactory struct {
	Name string
	New  func() core.PlacementPolicy
}

// NamedPolicyFactories returns the five Table 2 policies.
func NamedPolicyFactories() []PolicyFactory {
	return []PolicyFactory{
		{Name: "1P-M", New: core.Policy1PM},
		{Name: "2P-ML", New: core.Policy2PML},
		{Name: "4P-ED", New: core.Policy4PED},
		{Name: "4P-COST", New: core.Policy4PCOST},
		{Name: "4P-ST", New: core.Policy4PST},
	}
}

// FigureMechanisms returns the four mechanisms Figures 10-12 compare.
func FigureMechanisms() []migration.Mechanism {
	return []migration.Mechanism{
		migration.XenLive,
		migration.UnoptimizedFull,
		migration.SpotCheckFull,
		migration.SpotCheckLazy,
	}
}

// PolicyRunConfig parameterises one six-month controller simulation.
type PolicyRunConfig struct {
	Policy    PolicyFactory
	Mechanism migration.Mechanism
	// VMs is the fleet size (defaults to 40, a full backup server).
	VMs int
	// Horizon defaults to SixMonths.
	Horizon simkit.Time
	Seed    int64
	// MonitorInterval defaults to 10 minutes (coarser than the
	// controller's default to keep six-month runs fast).
	MonitorInterval simkit.Time

	// The remaining knobs support the ablation studies; zero values give
	// the paper's defaults.
	Traces spotmarket.Set // custom price traces
	// Catalog and Zones replace the platform's instance-type catalog and
	// availability zones (nil keeps cloud.DefaultCatalog/DefaultZones).
	// The catalog comparison experiment runs the generated large catalog
	// through these.
	Catalog []cloud.InstanceType
	Zones   []cloud.Zone
	// NetworkAwareSlicing turns on network-capped host slicing
	// (core.Config.NetworkAwareSlicing) so packed capacity matches what
	// the cheapest-compatible policy priced.
	NetworkAwareSlicing bool
	Bidding             core.BiddingPolicy     // bid=OD vs k×OD
	Destination         core.DestinationPolicy // lazy OD / hot spares / staging
	HotSpares           int
	Stateless           bool // request every VM as stateless
	Predictive          bool
	WarningWindow       simkit.Time // shrink the platform's revocation warning
	// BillingIncrement enables 2015-era period billing on the platform.
	BillingIncrement simkit.Time

	// The next three knobs support the scenario library's chaos campaigns
	// (internal/scenario); zero values leave the paper's runs untouched.
	//
	// Chaos, when set, wraps the platform in a cloudchaos.Provider with
	// this fault configuration (the run's metrics registry is injected so
	// spotcheck_chaos_injected_total lands in the result snapshot).
	Chaos *cloudchaos.Config
	// ArrivalOffsets schedules VM i's request at the given offset from
	// the start of the run instead of requesting the whole fleet at t=0
	// (a workload arrival curve). When non-empty it overrides VMs.
	ArrivalOffsets []simkit.Time
	// CollectVMDowntimes fills PolicyRunResult.VMDowntimes with each VM's
	// total downtime, sorted ascending, for per-VM SLO percentiles.
	CollectVMDowntimes bool

	// Shards is how many independent single-threaded simulations the fleet
	// runs as (0 and 1 both mean one) — one scheduler, platform, metrics
	// registry and controller per shard, §5's "partitioning customers
	// across multiple independent controllers". Customers keep a home
	// shard (core.ShardIndex), shard s seeds its policy, platform and
	// chaos streams seed^s, and results fold in shard order, so the
	// outcome is byte-identical at every worker count.
	Shards int
	// ShardWorkers bounds how many shard event loops run concurrently
	// (<= 0 means GOMAXPROCS; 1 runs shards one after another, which
	// still flattens the capacity curve — each loop touches only its own
	// shard-sized working set).
	ShardWorkers int

	// FleetMode has no effect; deleted with the bench/ edit in Move 2.
	FleetMode bool
}

// PolicyRunResult carries one simulation's outcome.
type PolicyRunResult struct {
	Policy    string
	Mechanism migration.Mechanism
	Report    core.Report
	VMs       int
	Horizon   simkit.Time
	// Snapshot is the end-of-run state of the metrics registry shared by
	// the controller and the platform. Experiment tallies (migrations,
	// revocations, predictive hits, backup fleet size, ...) are read from
	// here rather than from private counters.
	Snapshot *obs.Snapshot
	// VMDowntimes holds each VM's total downtime sorted ascending when
	// PolicyRunConfig.CollectVMDowntimes is set (nil otherwise). The
	// scenario library derives p99-downtime SLO numbers from it.
	VMDowntimes []simkit.Time
}

// CostPerHour is the Figure 10 metric.
func (r PolicyRunResult) CostPerHour() float64 { return float64(r.Report.CostPerVMHour) }

// UnavailabilityPct is the Figure 11 metric.
func (r PolicyRunResult) UnavailabilityPct() float64 { return 100 * (1 - r.Report.Availability) }

// DegradationPct is the Figure 12 metric.
func (r PolicyRunResult) DegradationPct() float64 { return 100 * r.Report.DegradedFraction }

// Metric sums the snapshot series of one metric family (0 when absent).
func (r PolicyRunResult) Metric(name string) float64 {
	if r.Snapshot == nil {
		return 0
	}
	return r.Snapshot.Total(name)
}

// MetricValue reads one labelled series from the snapshot (0 when absent).
func (r PolicyRunResult) MetricValue(name string, labels ...obs.Label) float64 {
	if r.Snapshot == nil {
		return 0
	}
	v, _ := r.Snapshot.Value(name, labels...)
	return v
}

// Migrations derives completed migrations from the snapshot: every started
// migration minus the return-path aborts that never left the source host.
func (r PolicyRunResult) Migrations() int {
	return int(r.Metric("spotcheck_migrations_started_total") -
		r.Metric("spotcheck_migrations_aborted_total"))
}

// RunPolicy executes one policy × mechanism simulation: the run driver
// plus the fold of its shards into one fleet view.
func RunPolicy(cfg PolicyRunConfig) (PolicyRunResult, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return PolicyRunResult{}, err
	}
	shards, err := runShards(cfg)
	if err != nil {
		return PolicyRunResult{}, err
	}
	return foldShards(cfg, shards), nil
}

// resolved fills the zero-value defaults and the trace set, once per run;
// everything downstream reads the config as given.
func (cfg PolicyRunConfig) resolved() (PolicyRunConfig, error) {
	cfg = cfg.withDefaults()
	if cfg.VMs < cfg.Shards {
		return cfg, fmt.Errorf("experiments: %d VMs cannot fill %d shards", cfg.VMs, cfg.Shards)
	}
	if cfg.Traces == nil {
		var err error
		cfg.Traces, err = EvalTraces(cfg.Horizon, cfg.Seed)
		if err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// withDefaults fills the zero-value defaults other than the trace set. A
// nil Bidding becomes the controller's own default, bid = on-demand, so a
// spec that leaves it out is the same run as one that names it.
func (cfg PolicyRunConfig) withDefaults() PolicyRunConfig {
	if len(cfg.ArrivalOffsets) > 0 {
		cfg.VMs = len(cfg.ArrivalOffsets)
	}
	if cfg.VMs == 0 {
		cfg.VMs = 40
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = SixMonths
	}
	if cfg.MonitorInterval == 0 {
		cfg.MonitorInterval = 10 * simkit.Minute
	}
	if cfg.Policy.New == nil {
		cfg.Policy = NamedPolicyFactories()[0]
	}
	if cfg.Bidding == nil {
		cfg.Bidding = core.OnDemandBid{}
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	return cfg
}

// shard is one complete single-threaded simulation — scheduler, metrics
// registry, platform (chaos-wrapped when configured) and controller — and,
// once run, its outcome. Holding a shard keeps its whole object graph
// reachable, which is what RunScale's live-heap sample needs.
type shard struct {
	sched *simkit.Scheduler
	reg   *obs.Registry
	ctrl  *core.Controller

	report    core.Report
	snapshot  *obs.Snapshot
	downtimes []simkit.Time
}

// buildShard assembles shard s of a resolved config. Shard streams are
// seeded seed^s, so shards are independent of each other and shard 0 of a
// one-shard run is the plain seed.
func buildShard(cfg PolicyRunConfig, s int) (*shard, error) {
	seed := cfg.Seed ^ int64(s)
	vms := (cfg.VMs - s + cfg.Shards - 1) / cfg.Shards // indexes s, s+n, ... below cfg.VMs
	sched := simkit.NewScheduler()
	// One registry shared by the platform and controller, so a single
	// snapshot carries both spotcheck_* and spotcheck_cloudsim_* families.
	reg := obs.NewRegistry()
	platCfg := cloudsim.Config{
		Catalog:          cfg.Catalog,
		Zones:            cfg.Zones,
		Traces:           cfg.Traces,
		Seed:             seed,
		WarningWindow:    cfg.WarningWindow,
		BillingIncrement: cfg.BillingIncrement,
		Metrics:          reg,
		// Peak live instances stay below the nested-VM count (hosts are
		// sliced, backups multiplexed), so VMs + slack pre-sizes both
		// ledgers even through revocation churn — terminated slots are
		// recycled before the fleet can outgrow them.
		ExpectedInstances: vms + vms/4 + 64,
	}
	coreCfg := core.Config{
		Scheduler:           sched,
		Mechanism:           cfg.Mechanism,
		Placement:           cfg.Policy.New(),
		Bidding:             cfg.Bidding,
		Destination:         cfg.Destination,
		HotSpares:           cfg.HotSpares,
		Predictive:          cfg.Predictive,
		MonitorInterval:     cfg.MonitorInterval,
		NetworkAwareSlicing: cfg.NetworkAwareSlicing,
		Seed:                seed,
		Metrics:             reg,
		ExpectedVMs:         vms,
		// A batch run releases no VM and has no per-VM reader after one.
		RecycleReleased: true,
	}
	plat, err := cloudsim.New(sched, platCfg)
	if err != nil {
		return nil, err
	}
	coreCfg.Provider = plat
	if cfg.Chaos != nil {
		// The chaos wrapper shares the run's registry so injected-fault
		// counts surface in the result snapshot next to everything else.
		chaosCfg := *cfg.Chaos
		chaosCfg.Seed ^= int64(s)
		chaosCfg.Metrics = reg
		coreCfg.Provider = cloudchaos.Wrap(plat, sched, chaosCfg)
	}
	ctrl, err := core.New(coreCfg)
	if err != nil {
		return nil, err
	}
	return &shard{sched: sched, reg: reg, ctrl: ctrl}, nil
}

// run requests the shard's slice of the fleet — global VM indexes s, s+n,
// s+2n, ... of cfg.VMs, each owned by ring[g%len(ring)] — drives the event
// loop to the horizon and records the outcome.
func (sh *shard) run(cfg PolicyRunConfig, s int, ring []string) error {
	// Request errors raised inside scheduled arrival events cannot return
	// through the event loop; they are collected and joined after the run.
	var arrivalErrs []error
	request := func(g int) error {
		_, err := sh.ctrl.RequestServerWithOptions(core.ServerOptions{
			Customer:  ring[g%len(ring)],
			Type:      cloud.M3Medium,
			Stateless: cfg.Stateless,
		})
		return err
	}
	for g := s; g < cfg.VMs; g += cfg.Shards {
		if len(cfg.ArrivalOffsets) > 0 && cfg.ArrivalOffsets[g] > 0 {
			sh.sched.After(cfg.ArrivalOffsets[g], "arrival", func() {
				if err := request(g); err != nil {
					arrivalErrs = append(arrivalErrs, fmt.Errorf("arrival %d: %w", g, err))
				}
			})
			continue
		}
		if err := request(g); err != nil {
			return err
		}
	}
	sh.sched.RunUntil(cfg.Horizon)
	if len(arrivalErrs) > 0 {
		return errors.Join(arrivalErrs...)
	}
	sh.report = sh.ctrl.Report()
	sh.snapshot = sh.reg.Snapshot()
	if cfg.CollectVMDowntimes {
		for _, info := range sh.ctrl.ListVMs() {
			sh.downtimes = append(sh.downtimes, sh.ctrl.DebugLedger(info.ID).Down)
		}
	}
	return nil
}

// shardCustomerRing builds the fleet-wide customer ring for an n-shard run:
// the first perShard customer names (scanning customer-0, customer-1, ...)
// whose core.ShardIndex home is each shard, interleaved so ring position j
// belongs to shard j%n. VM with global index g is owned by
// ring[g%len(ring)], so VM g lands on shard g%n — every customer keeps its
// hash-derived home shard AND the fleet splits evenly, with each shard
// seeing perShard distinct customers. One shard's ring is customer-0 ..
// customer-(perShard-1). The scan is deterministic: it depends only on
// (n, perShard), never on seeds or timing.
func shardCustomerRing(n, perShard int) []string {
	byShard := make([][]string, n)
	need := n * perShard
	for k := 0; need > 0; k++ {
		name := fmt.Sprintf("customer-%d", k)
		s := core.ShardIndex(name, n)
		if len(byShard[s]) < perShard {
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

// runShards is the one run driver: it partitions a resolved config's fleet
// across cfg.Shards complete simulations over the shared read-only trace
// set and runs their event loops on a bounded pool. Every shard's outcome
// depends only on its own inputs, so the returned shards — and anything
// folded from them in index order — are identical at every worker count.
func runShards(cfg PolicyRunConfig) ([]*shard, error) {
	n := cfg.Shards
	ring := shardCustomerRing(n, 4)
	shards := make([]*shard, n)
	err := forEachIndex(n, cfg.ShardWorkers, func(s int) error {
		var err error
		shards[s], err = buildShard(cfg, s)
		if err == nil {
			err = shards[s].run(cfg, s, ring)
		}
		if err != nil && n > 1 {
			err = fmt.Errorf("shard %d: %w", s, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return shards, nil
}

// foldShards assembles the fleet view. A lone shard's report and snapshot
// are the fleet's as they stand; merging would re-derive ratios the
// controller already computed (and move DegradedFraction by an ulp).
func foldShards(cfg PolicyRunConfig, shards []*shard) PolicyRunResult {
	res := PolicyRunResult{
		Policy:    cfg.Policy.Name,
		Mechanism: cfg.Mechanism,
		Report:    shards[0].report,
		VMs:       cfg.VMs,
		Horizon:   cfg.Horizon,
		Snapshot:  shards[0].snapshot,
	}
	if len(shards) > 1 {
		reports := make([]core.Report, len(shards))
		snaps := make([]*obs.Snapshot, len(shards))
		for s, sh := range shards {
			reports[s], snaps[s] = sh.report, sh.snapshot
		}
		res.Report = core.MergeReports(reports)
		res.Snapshot = obs.MergeSnapshots(snaps)
	}
	for _, sh := range shards {
		res.VMDowntimes = append(res.VMDowntimes, sh.downtimes...)
	}
	sort.Slice(res.VMDowntimes, func(i, j int) bool { return res.VMDowntimes[i] < res.VMDowntimes[j] })
	return res
}

// PolicyMatrix runs every named policy against every figure mechanism —
// the 20 simulations behind Figures 10, 11 and 12 — on the parallel sweep
// engine. The optional trailing argument bounds the worker count (0 or
// absent means GOMAXPROCS; 1 runs sequentially); the matrix is identical
// regardless of the worker count.
func PolicyMatrix(vms int, horizon simkit.Time, seed int64, workers ...int) ([][]PolicyRunResult, error) {
	return NewSession(sweepWorkers(workers)).PolicyMatrix(vms, horizon, seed)
}

// PolicyMatrix is the package-level PolicyMatrix on the session.
func (s *Session) PolicyMatrix(vms int, horizon simkit.Time, seed int64) ([][]PolicyRunResult, error) {
	policies := NamedPolicyFactories()
	mechs := FigureMechanisms()
	specs := make([]RunSpec, 0, len(policies)*len(mechs))
	for _, pol := range policies {
		for _, mech := range mechs {
			specs = append(specs, RunSpec{
				ID: fmt.Sprintf("%s/%v", pol.Name, mech),
				Cfg: PolicyRunConfig{
					Policy:    pol,
					Mechanism: mech,
					VMs:       vms,
					Horizon:   horizon,
					Seed:      seed,
				},
			})
		}
	}
	flat, err := s.Sweep(specs)
	if err != nil {
		return nil, err
	}
	out := make([][]PolicyRunResult, len(policies))
	for i := range policies {
		out[i] = flat[i*len(mechs) : (i+1)*len(mechs)]
	}
	return out, nil
}

// matrixBars renders a metric of the policy × mechanism matrix.
func matrixBars(title string, matrix [][]PolicyRunResult, metric func(PolicyRunResult) float64) analysis.Bars {
	bars := analysis.Bars{Title: title}
	for _, mech := range FigureMechanisms() {
		bars.Labels = append(bars.Labels, mech.String())
	}
	for _, row := range matrix {
		if len(row) == 0 {
			continue
		}
		bars.Groups = append(bars.Groups, row[0].Policy)
		vals := make([]float64, len(row))
		for j, res := range row {
			vals[j] = metric(res)
		}
		bars.Values = append(bars.Values, vals)
	}
	return bars
}

// Fig10Bars renders Figure 10 (average cost per VM-hour, $).
func Fig10Bars(matrix [][]PolicyRunResult) analysis.Bars {
	return matrixBars("Fig 10: average cost per VM-hour ($)", matrix, PolicyRunResult.CostPerHour)
}

// Fig11Bars renders Figure 11 (unavailability, %).
func Fig11Bars(matrix [][]PolicyRunResult) analysis.Bars {
	return matrixBars("Fig 11: unavailability (%)", matrix, PolicyRunResult.UnavailabilityPct)
}

// Fig12Bars renders Figure 12 (performance degradation, %).
func Fig12Bars(matrix [][]PolicyRunResult) analysis.Bars {
	return matrixBars("Fig 12: performance degradation (%)", matrix, PolicyRunResult.DegradationPct)
}

// Table3Result is one pool-count row of Table 3.
type Table3Result struct {
	Policy string
	Probs  []float64 // P(storm >= N/4), N/2, 3N/4, N per hour buckets
}

// Table3Fractions are the paper's storm-size buckets.
func Table3Fractions() []float64 { return []float64{0.25, 0.5, 0.75, 1.0} }

// Table3 runs the 1-pool, 2-pool and 4-pool policies under the full system
// and reports the probability of concurrent revocation storms by size. The
// three simulations fan out across the sweep engine; the optional trailing
// argument bounds the worker count as in PolicyMatrix.
func Table3(vms int, horizon simkit.Time, seed int64, workers ...int) ([]Table3Result, error) {
	return NewSession(sweepWorkers(workers)).Table3(vms, horizon, seed)
}

// Table3 is the package-level Table3 on the session. Its pools run under the
// matrix's policy names, so a session that ran the matrix runs nothing here.
func (s *Session) Table3(vms int, horizon simkit.Time, seed int64) ([]Table3Result, error) {
	labels := []string{"1-Pool", "2-Pool", "4-Pool"} // 1P-M, 2P-ML, 4P-ED
	policies := NamedPolicyFactories()[:len(labels)]
	specs := make([]RunSpec, len(policies))
	for i, pol := range policies {
		specs[i] = RunSpec{
			ID: labels[i],
			Cfg: PolicyRunConfig{
				Policy:    pol,
				Mechanism: migration.SpotCheckLazy,
				VMs:       vms,
				Horizon:   horizon,
				Seed:      seed,
			},
		}
	}
	results, err := s.Sweep(specs)
	if err != nil {
		return nil, err
	}
	out := make([]Table3Result, len(results))
	for i, res := range results {
		probs := core.StormTable(res.Report.StormSizes, vms, Table3Fractions(), horizon.Hours())
		out[i] = Table3Result{Policy: labels[i], Probs: probs}
	}
	return out, nil
}

// Table3Render renders Table 3.
func Table3Render(rows []Table3Result, vms int) *analysis.Table {
	t := analysis.NewTable(
		fmt.Sprintf("Table 3: probability of max concurrent revocations (N=%d VMs, per hour)", vms),
		"Pools", "N/4", "N/2", "3N/4", "N")
	for _, r := range rows {
		t.AddRow(r.Policy, r.Probs[0], r.Probs[1], r.Probs[2], r.Probs[3])
	}
	return t
}

// Headline summarises the paper's abstract-level claims from the 1P-M
// SpotCheckLazy run: cost savings vs on-demand and availability.
type Headline struct {
	CostPerVMHour   float64
	OnDemandPerHour float64
	Savings         float64
	Availability    float64
	Migrations      int
	VMsLost         int
	// Snapshot is the run's end-of-simulation metrics state; spotsim's
	// -metrics flag renders it as a summary table.
	Snapshot *obs.Snapshot
}

// RunHeadline computes the headline comparison.
func RunHeadline(vms int, horizon simkit.Time, seed int64) (Headline, error) {
	return NewSession(0).RunHeadline(vms, horizon, seed)
}

// RunHeadline is the package-level RunHeadline on the session: the matrix's
// 1P-M SpotCheck-lazy cell.
func (s *Session) RunHeadline(vms int, horizon simkit.Time, seed int64) (Headline, error) {
	results, err := s.Sweep([]RunSpec{{ID: "headline", Cfg: PolicyRunConfig{
		Policy:    NamedPolicyFactories()[0],
		Mechanism: migration.SpotCheckLazy,
		VMs:       vms,
		Horizon:   horizon,
		Seed:      seed,
	}}})
	if err != nil {
		return Headline{}, err
	}
	res := results[0]
	od := float64(cloud.OnDemandPrice(cloud.M3Medium))
	return Headline{
		CostPerVMHour:   res.CostPerHour(),
		OnDemandPerHour: od,
		Savings:         od / res.CostPerHour(),
		Availability:    res.Report.Availability,
		Migrations:      res.Migrations(),
		VMsLost:         int(res.Metric("spotcheck_vms_lost_memory_state_total")),
		Snapshot:        res.Snapshot,
	}, nil
}
