package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// This file holds the ablation studies DESIGN.md §5 calls out: each design
// choice the paper makes is run against its alternative so the benefit is
// measurable in isolation.

// ---------------------------------------------------------------------------
// Ablation 1: ramped checkpoint frequency (SpotCheck) vs fixed (Yank)

// FlushAblationRow compares the final-flush behaviour at one residue size.
type FlushAblationRow struct {
	ResidueMB       float64
	YankDowntimeSec float64
	RampedDownSec   float64
	RampedDegrSec   float64
}

// AblationFlush sweeps the dirty residue at warning time and reports how
// SpotCheck's rising checkpoint frequency converts Yank's pause into a
// degraded-but-running drain.
func AblationFlush(residues []float64) ([]FlushAblationRow, error) {
	if residues == nil {
		residues = []float64{150, 300, 600, 900, 1200}
	}
	const (
		dirty = 2.8
		bw    = 40.0
	)
	var rows []FlushAblationRow
	for _, res := range residues {
		yank, err := migration.SimulateFlush(migration.FlushSpec{
			ResidueMB: res, DirtyMBs: dirty, BandwidthMBs: bw,
			Warning: cloud.WarningWindow,
		})
		if err != nil {
			return nil, err
		}
		ramped, err := migration.SimulateFlush(migration.FlushSpec{
			ResidueMB: res, DirtyMBs: dirty, BandwidthMBs: bw,
			Warning: cloud.WarningWindow, Ramped: true,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, FlushAblationRow{
			ResidueMB:       res,
			YankDowntimeSec: yank.Downtime.Seconds(),
			RampedDownSec:   ramped.Downtime.Seconds(),
			RampedDegrSec:   ramped.DegradedTime.Seconds(),
		})
	}
	return rows, nil
}

// AblationFlushTable renders the flush ablation.
func AblationFlushTable(rows []FlushAblationRow) *analysis.Table {
	t := analysis.NewTable("Ablation: ramped vs fixed checkpointing at warning (seconds)",
		"Residue(MB)", "Yank pause", "SpotCheck pause", "SpotCheck degraded")
	for _, r := range rows {
		t.AddRow(r.ResidueMB, r.YankDowntimeSec, r.RampedDownSec, r.RampedDegrSec)
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablation 2: greedy slicing vs direct purchase (§4.2)

// SlicingAblation compares acquiring large sliced hosts against buying the
// requested type directly, on a market where the large server is cheaper
// per slot, and reports both the saving and the blast-radius cost.
type SlicingAblation struct {
	DirectCostPerHour float64
	SlicedCostPerHour float64
	SavingsPct        float64
	DirectMaxStorm    int
	SlicedMaxStorm    int
}

// ablationSlicing runs the comparison.
func (s *Session) ablationSlicing(vms int, horizon simkit.Time, seed int64) (SlicingAblation, error) {
	// A market where m3.large costs 1.2x m3.medium (i.e. 0.6x per slot),
	// both spiking together so storms are comparable. Generated once: both
	// arms read the same immutable trace set.
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{
		{Type: cloud.M3Medium, Zone: EvalZone}: spotmarket.DefaultConfig(cloud.OnDemandPrice(cloud.M3Medium), spotmarket.VolatilityMedium),
		{Type: cloud.M3Large, Zone: EvalZone}:  spotmarket.DefaultConfig(cloud.OnDemandPrice(cloud.M3Large), spotmarket.VolatilityMedium),
	}
	// Make the large market structurally cheaper per slot.
	c := configs[spotmarket.MarketKey{Type: cloud.M3Large, Zone: EvalZone}]
	c.BaseRatio = 0.06 // large trades at 6% of OD => 0.0084/2 slots = 0.0042
	configs[spotmarket.MarketKey{Type: cloud.M3Large, Zone: EvalZone}] = c
	traces, err := spotmarket.GenerateSet(configs, horizon, seed, s.workers)
	if err != nil {
		return SlicingAblation{}, err
	}
	markets := []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: EvalZone},
		{Type: cloud.M3Large, Zone: EvalZone},
	}
	spec := func(policy core.PlacementPolicy, name string) RunSpec {
		return RunSpec{ID: name, Cfg: PolicyRunConfig{
			Policy:    PolicyFactory{Name: name, New: func() core.PlacementPolicy { return policy }},
			Mechanism: migration.SpotCheckLazy,
			VMs:       vms,
			Horizon:   horizon,
			Seed:      seed,
			Traces:    traces,
		}}
	}
	results, err := s.Sweep([]RunSpec{
		spec(core.NewRoundRobinPolicy("direct", markets[:1]), "direct"),
		spec(core.NewGreedyCheapestPolicy(markets), "greedy-sliced"),
	})
	if err != nil {
		return SlicingAblation{}, err
	}
	direct, sliced := results[0], results[1]
	out := SlicingAblation{
		DirectCostPerHour: direct.CostPerHour(),
		SlicedCostPerHour: sliced.CostPerHour(),
		DirectMaxStorm:    direct.Report.MaxStorm,
		SlicedMaxStorm:    sliced.Report.MaxStorm,
	}
	if out.DirectCostPerHour > 0 {
		out.SavingsPct = 100 * (1 - out.SlicedCostPerHour/out.DirectCostPerHour)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablation 3: bidding policies (§4.3)

// BiddingAblationRow compares one bidding policy.
type BiddingAblationRow struct {
	Policy            string
	CostPerHour       float64
	Revocations       int
	Proactive         int
	UnavailabilityPct float64
}

// ablationBidding compares bid=OD against k×OD (with proactive migration)
// on the stormy 4-pool placement.
func (s *Session) ablationBidding(vms int, horizon simkit.Time, seed int64) ([]BiddingAblationRow, error) {
	policies := []struct {
		name string
		bid  core.BiddingPolicy
	}{
		{"bid=od", core.OnDemandBid{}},
		{"bid=1.5x-od", core.MultipleBid{K: 1.5}},
		{"bid=2x-od", core.MultipleBid{K: 2}},
	}
	specs := make([]RunSpec, len(policies))
	for i, p := range policies {
		specs[i] = RunSpec{ID: p.name, Cfg: PolicyRunConfig{
			Policy:    PolicyFactory{Name: "4P-ED", New: core.Policy4PED},
			Mechanism: migration.SpotCheckLazy,
			VMs:       vms,
			Horizon:   horizon,
			Seed:      seed,
			Bidding:   p.bid,
		}}
	}
	results, err := s.Sweep(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]BiddingAblationRow, len(results))
	for i, res := range results {
		rows[i] = BiddingAblationRow{
			Policy:            policies[i].name,
			CostPerHour:       res.CostPerHour(),
			Revocations:       int(res.Metric("spotcheck_revocation_warnings_total")),
			Proactive:         int(res.MetricValue("spotcheck_migrations_started_total", obs.L("reason", "proactive"))),
			UnavailabilityPct: res.UnavailabilityPct(),
		}
	}
	return rows, nil
}

// AblationBiddingTable renders the bidding ablation.
func AblationBiddingTable(rows []BiddingAblationRow) *analysis.Table {
	t := analysis.NewTable("Ablation: bidding policy (4P-ED, SpotCheck lazy)",
		"Bid", "$/VM-hour", "Revocations", "Proactive migrations", "Unavailability(%)")
	for _, r := range rows {
		t.AddRow(r.Policy, r.CostPerHour, r.Revocations, r.Proactive, r.UnavailabilityPct)
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablation 4: destination policies (§4.3)

// DestinationAblationRow compares one destination policy.
type DestinationAblationRow struct {
	Policy            string
	CostPerHour       float64
	UnavailabilityPct float64
	Migrations        int
	SpareCost         float64
}

// ablationDestination compares lazy on-demand acquisition, hot spares and
// staging servers under the stormy 4-pool placement — with the revocation
// warning shrunk to 45 s, *below* the ~62 s on-demand startup latency.
// This is exactly the regime §4.3 motivates spares with: "requesting new
// servers in a lazy fashion ... is only feasible if the latency to obtain
// them is smaller than the warning period". (With EC2's full 120 s window,
// lazy acquisition hides the startup behind the degraded drain and spares
// buy nothing — the paper's own observation.)
func (s *Session) ablationDestination(vms int, horizon simkit.Time, seed int64) ([]DestinationAblationRow, error) {
	configs := []struct {
		name   string
		dest   core.DestinationPolicy
		spares int
	}{
		{"lazy-on-demand", core.DestOnDemand, 0},
		{"hot-spare", core.DestHotSpare, 4},
		{"staging", core.DestStaging, 0},
	}
	specs := make([]RunSpec, len(configs))
	for i, cfg := range configs {
		specs[i] = RunSpec{ID: cfg.name, Cfg: PolicyRunConfig{
			Policy:        PolicyFactory{Name: "4P-ED", New: core.Policy4PED},
			Mechanism:     migration.SpotCheckLazy,
			VMs:           vms,
			Horizon:       horizon,
			Seed:          seed,
			Destination:   cfg.dest,
			HotSpares:     cfg.spares,
			WarningWindow: 45 * simkit.Second,
		}}
	}
	results, err := s.Sweep(specs)
	if err != nil {
		return nil, err
	}
	rows := make([]DestinationAblationRow, len(results))
	for i, res := range results {
		rows[i] = DestinationAblationRow{
			Policy:            configs[i].name,
			CostPerHour:       res.CostPerHour(),
			UnavailabilityPct: res.UnavailabilityPct(),
			Migrations:        res.Migrations(),
			SpareCost:         float64(res.Report.SpareCost),
		}
	}
	return rows, nil
}

// AblationDestinationTable renders the destination ablation.
func AblationDestinationTable(rows []DestinationAblationRow) *analysis.Table {
	t := analysis.NewTable("Ablation: destination policy (4P-ED, SpotCheck lazy)",
		"Destination", "$/VM-hour", "Unavailability(%)", "Migrations", "Spare cost ($)")
	for _, r := range rows {
		t.AddRow(r.Policy, r.CostPerHour, r.UnavailabilityPct, r.Migrations, r.SpareCost)
	}
	return t
}

// ---------------------------------------------------------------------------
// Ablation 5: stateless mode (§4.2)

// StatelessAblation compares a stateful fleet against a stateless one.
type StatelessAblation struct {
	StatefulCostPerHour  float64
	StatelessCostPerHour float64
	StatefulUnavailPct   float64
	StatelessUnavailPct  float64
	BackupServersSaved   int
}

// ablationStateless runs the comparison on the calm 1P-M pool.
func (s *Session) ablationStateless(vms int, horizon simkit.Time, seed int64) (StatelessAblation, error) {
	spec := func(name string, stateless bool) RunSpec {
		return RunSpec{ID: name, Cfg: PolicyRunConfig{
			Policy:    PolicyFactory{Name: "1P-M", New: core.Policy1PM},
			Mechanism: migration.SpotCheckLazy,
			VMs:       vms,
			Horizon:   horizon,
			Seed:      seed,
			Stateless: stateless,
		}}
	}
	results, err := s.Sweep([]RunSpec{
		spec("stateful", false),
		spec("stateless", true),
	})
	if err != nil {
		return StatelessAblation{}, err
	}
	stateful, stateless := results[0], results[1]
	return StatelessAblation{
		StatefulCostPerHour:  stateful.CostPerHour(),
		StatelessCostPerHour: stateless.CostPerHour(),
		StatefulUnavailPct:   stateful.UnavailabilityPct(),
		StatelessUnavailPct:  stateless.UnavailabilityPct(),
		BackupServersSaved: int(stateful.Metric("spotcheck_backup_servers") -
			stateless.Metric("spotcheck_backup_servers")),
	}, nil
}

// ---------------------------------------------------------------------------
// Ablation 6: predictive migration (§3.2)

// PredictiveAblation compares the predictor off vs on.
type PredictiveAblation struct {
	OffRevocations int
	OnRevocations  int
	OnPredictive   int
	OnMisses       int
	OffUnavailPct  float64
	OnUnavailPct   float64
	OffCostPerHour float64
	OnCostPerHour  float64
}

// ablationPredictive runs the comparison on the stormy pools. Synthetic
// spikes are near-instantaneous, so the trend predictor catches only
// spikes whose onset straddles a monitor tick — the honest result the
// paper hints at: trend prediction is hard without high-frequency signals.
func (s *Session) ablationPredictive(vms int, horizon simkit.Time, seed int64) (PredictiveAblation, error) {
	spec := func(name string, pred bool) RunSpec {
		return RunSpec{ID: name, Cfg: PolicyRunConfig{
			Policy:     PolicyFactory{Name: "4P-ED", New: core.Policy4PED},
			Mechanism:  migration.SpotCheckLazy,
			VMs:        vms,
			Horizon:    horizon,
			Seed:       seed,
			Predictive: pred,
		}}
	}
	results, err := s.Sweep([]RunSpec{
		spec("predictive-off", false),
		spec("predictive-on", true),
	})
	if err != nil {
		return PredictiveAblation{}, err
	}
	off, on := results[0], results[1]
	return PredictiveAblation{
		OffRevocations: int(off.Metric("spotcheck_revocation_warnings_total")),
		OnRevocations:  int(on.Metric("spotcheck_revocation_warnings_total")),
		OnPredictive:   int(on.Metric("spotcheck_predictive_migrations_total")),
		OnMisses:       int(on.Metric("spotcheck_predictive_misses_total")),
		OffUnavailPct:  off.UnavailabilityPct(),
		OnUnavailPct:   on.UnavailabilityPct(),
		OffCostPerHour: off.CostPerHour(),
		OnCostPerHour:  on.CostPerHour(),
	}, nil
}

// ---------------------------------------------------------------------------
// Ablation 7: zone spreading

// ZoneSpreadAblation compares single-zone against three-zone placement.
type ZoneSpreadAblation struct {
	OneZoneMaxStorm     int
	ThreeZoneMaxStorm   int
	OneZoneUnavailPct   float64
	ThreeZoneUnavailPct float64
}

// ablationZoneSpread compares storm sizes with and without zone spreading
// of the medium pool across three zones with independent prices.
func (s *Session) ablationZoneSpread(vms int, horizon simkit.Time, seed int64) (ZoneSpreadAblation, error) {
	zones := []cloud.Zone{"zone-a", "zone-b", "zone-c"}
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, z := range zones {
		configs[spotmarket.MarketKey{Type: cloud.M3Medium, Zone: z}] =
			spotmarket.DefaultConfig(cloud.OnDemandPrice(cloud.M3Medium), spotmarket.VolatilityHigh)
	}
	// One generation, shared read-only by both arms.
	traces, err := spotmarket.GenerateSet(configs, horizon, seed, s.workers)
	if err != nil {
		return ZoneSpreadAblation{}, err
	}
	spec := func(policy core.PlacementPolicy, name string) RunSpec {
		return RunSpec{ID: name, Cfg: PolicyRunConfig{
			Policy:    PolicyFactory{Name: name, New: func() core.PlacementPolicy { return policy }},
			Mechanism: migration.SpotCheckLazy,
			VMs:       vms,
			Horizon:   horizon,
			Seed:      seed,
			Traces:    traces,
		}}
	}
	results, err := s.Sweep([]RunSpec{
		spec(core.NewZoneSpreadPolicy(cloud.M3Medium, zones[:1]), "1-zone"),
		spec(core.NewZoneSpreadPolicy(cloud.M3Medium, zones), "3-zone"),
	})
	if err != nil {
		return ZoneSpreadAblation{}, err
	}
	one, three := results[0], results[1]
	return ZoneSpreadAblation{
		OneZoneMaxStorm:     one.Report.MaxStorm,
		ThreeZoneMaxStorm:   three.Report.MaxStorm,
		OneZoneUnavailPct:   one.UnavailabilityPct(),
		ThreeZoneUnavailPct: three.UnavailabilityPct(),
	}, nil
}

// RenderAblations runs every ablation at the given scale and renders them.
// The optional trailing argument bounds each ablation's sweep worker count
// (0 or absent means GOMAXPROCS; 1 runs sequentially).
func RenderAblations(vms int, horizon simkit.Time, seed int64, workers ...int) (string, error) {
	return NewSession(sweepWorkers(workers)).RenderAblations(vms, horizon, seed)
}

// RenderAblations is the package-level RenderAblations on the session: the
// control arms that are policy-matrix cells run only if the session has not
// run them yet.
func (s *Session) RenderAblations(vms int, horizon simkit.Time, seed int64) (string, error) {
	var out string
	flush, err := AblationFlush(nil)
	if err != nil {
		return "", err
	}
	out += AblationFlushTable(flush).String() + "\n"

	slicing, err := s.ablationSlicing(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("Ablation: slicing — direct $%.4f/hr vs sliced $%.4f/hr (%.0f%% saved); max storm %d -> %d\n\n",
		slicing.DirectCostPerHour, slicing.SlicedCostPerHour, slicing.SavingsPct,
		slicing.DirectMaxStorm, slicing.SlicedMaxStorm)

	bidding, err := s.ablationBidding(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += AblationBiddingTable(bidding).String() + "\n"

	dest, err := s.ablationDestination(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += AblationDestinationTable(dest).String() + "\n"

	sl, err := s.ablationStateless(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("Ablation: stateless — stateful $%.4f/hr (unavail %.4f%%) vs stateless $%.4f/hr (unavail %.4f%%), %d backup servers saved\n\n",
		sl.StatefulCostPerHour, sl.StatefulUnavailPct, sl.StatelessCostPerHour, sl.StatelessUnavailPct, sl.BackupServersSaved)

	pred, err := s.ablationPredictive(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("Ablation: predictive — off: %d revocations, %.4f%% unavail, $%.4f/hr; on: %d revocations, %d predictive (%d misses), %.4f%% unavail, $%.4f/hr\n\n",
		pred.OffRevocations, pred.OffUnavailPct, pred.OffCostPerHour,
		pred.OnRevocations, pred.OnPredictive, pred.OnMisses, pred.OnUnavailPct, pred.OnCostPerHour)

	zs, err := s.ablationZoneSpread(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("Ablation: zone spread — 1 zone: max storm %d (unavail %.4f%%); 3 zones: max storm %d (unavail %.4f%%)\n\n",
		zs.OneZoneMaxStorm, zs.OneZoneUnavailPct, zs.ThreeZoneMaxStorm, zs.ThreeZoneUnavailPct)

	bill, err := s.ablationBilling(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("Ablation: billing — continuous $%.4f/hr vs 2015-era hourly $%.4f/hr (%+.1f%%; started hours round up, reclaimed partial hours free)\n\n",
		bill.ContinuousCostPerHour, bill.HourlyCostPerHour, bill.DeltaPct)

	tm, err := s.ablationTraceModel(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	out += AblationTraceModelTable(tm).String()
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablation 8: billing granularity

// BillingAblation compares continuous billing against 2015-era hourly
// billing (every started hour charged at its opening price; the final
// partial hour of a platform-reclaimed spot instance free).
type BillingAblation struct {
	ContinuousCostPerHour float64
	HourlyCostPerHour     float64
	// DeltaPct is the hourly-billing cost change relative to continuous
	// (positive = hourly billing costs more).
	DeltaPct float64
}

// ablationBilling runs the comparison on the stormy 4-pool placement,
// where frequent revocations make both hourly rounding (more cost) and
// free reclaimed hours (less cost) matter.
func (s *Session) ablationBilling(vms int, horizon simkit.Time, seed int64) (BillingAblation, error) {
	spec := func(name string, increment simkit.Time) RunSpec {
		return RunSpec{ID: name, Cfg: PolicyRunConfig{
			Policy:           PolicyFactory{Name: "4P-ED", New: core.Policy4PED},
			Mechanism:        migration.SpotCheckLazy,
			VMs:              vms,
			Horizon:          horizon,
			Seed:             seed,
			BillingIncrement: increment,
		}}
	}
	results, err := s.Sweep([]RunSpec{
		spec("billing-continuous", 0),
		spec("billing-hourly", simkit.Hour),
	})
	if err != nil {
		return BillingAblation{}, err
	}
	continuous, hourly := results[0], results[1]
	out := BillingAblation{
		ContinuousCostPerHour: continuous.CostPerHour(),
		HourlyCostPerHour:     hourly.CostPerHour(),
	}
	if out.ContinuousCostPerHour > 0 {
		out.DeltaPct = 100 * (out.HourlyCostPerHour/out.ContinuousCostPerHour - 1)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Ablation 9: trace-model sensitivity

// TraceModelAblation compares the headline metrics across price-process
// models. If the paper's conclusions held only under one synthetic model,
// the reproduction would be fragile; this ablation shows they do not.
type TraceModelAblation struct {
	Model        string
	CostPerHour  float64
	Availability float64
	Savings      float64
}

// ablationTraceModel runs the 1P-M SpotCheck-lazy headline under three
// different m3.medium price processes: the calibrated overlay generator,
// the two-state Markov model, and a generate→fit→regenerate round trip.
func (s *Session) ablationTraceModel(vms int, horizon simkit.Time, seed int64) ([]TraceModelAblation, error) {
	od := cloud.OnDemandPrice(cloud.M3Medium)
	mediumKey := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: EvalZone}

	overlayTrace, err := spotmarket.Generate(
		spotmarket.DefaultConfig(od, spotmarket.VolatilityMedium), horizon, newRand(seed))
	if err != nil {
		return nil, err
	}
	markovTrace, err := spotmarket.GenerateMarkov(
		spotmarket.DefaultMarkovConfig(od), horizon, newRand(seed))
	if err != nil {
		return nil, err
	}
	fittedCfg, err := spotmarket.FitConfig(overlayTrace, od)
	if err != nil {
		return nil, err
	}
	refittedTrace, err := spotmarket.Generate(fittedCfg, horizon, newRand(seed+1))
	if err != nil {
		return nil, err
	}

	models := []struct {
		name  string
		trace *spotmarket.Trace
	}{
		{"overlay", overlayTrace},
		{"markov", markovTrace},
		{"fit-regenerate", refittedTrace},
	}
	specs := make([]RunSpec, len(models))
	for i, m := range models {
		specs[i] = RunSpec{ID: "trace-model-" + m.name, Cfg: PolicyRunConfig{
			Policy:    PolicyFactory{Name: "1P-M", New: core.Policy1PM},
			Mechanism: migration.SpotCheckLazy,
			VMs:       vms,
			Horizon:   horizon,
			Seed:      seed,
			Traces:    spotmarket.Set{mediumKey: m.trace},
		}}
	}
	results, err := s.Sweep(specs)
	if err != nil {
		return nil, err
	}
	out := make([]TraceModelAblation, len(results))
	for i, res := range results {
		out[i] = TraceModelAblation{
			Model:        models[i].name,
			CostPerHour:  res.CostPerHour(),
			Availability: res.Report.Availability,
			Savings:      float64(od) / res.CostPerHour(),
		}
	}
	return out, nil
}

// AblationTraceModelTable renders the trace-model sensitivity ablation.
func AblationTraceModelTable(rows []TraceModelAblation) *analysis.Table {
	t := analysis.NewTable("Ablation: price-process sensitivity (1P-M, SpotCheck lazy)",
		"Model", "$/VM-hour", "Availability(%)", "Savings(x)")
	for _, r := range rows {
		t.AddRow(r.Model, r.CostPerHour, 100*r.Availability, r.Savings)
	}
	return t
}
