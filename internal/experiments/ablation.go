package experiments

import (
	"fmt"
	"strings"

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
// measurable in isolation. The flush ablation is analytic; every other one
// is an ablation value, and RenderAblations runs all of their arms in one
// sweep.

// flushResidues are the dirty residues (MB) left at the warning that the
// flush ablation sweeps.
var flushResidues = [...]float64{150, 300, 600, 900, 1200}

// flushArms flushes one residue at the warning under Yank's fixed
// checkpointing and under SpotCheck's ramped one.
func flushArms(residueMB float64) (yank, ramped migration.FlushResult, err error) {
	spec := migration.FlushSpec{ResidueMB: residueMB, DirtyMBs: 2.8, BandwidthMBs: 40, Warning: cloud.WarningWindow}
	if yank, err = migration.SimulateFlush(spec); err != nil {
		return yank, ramped, err
	}
	spec.Ramped = true
	ramped, err = migration.SimulateFlush(spec)
	return yank, ramped, err
}

// flushTable renders ramped against fixed checkpointing (§3.2): SpotCheck's
// rising checkpoint frequency converts Yank's pause into a
// degraded-but-running drain.
func flushTable() (string, error) {
	t := analysis.NewTable("Ablation: ramped vs fixed checkpointing at warning (seconds)",
		"Residue(MB)", "Yank pause", "SpotCheck pause", "SpotCheck degraded")
	for _, res := range flushResidues {
		yank, ramped, err := flushArms(res)
		if err != nil {
			return "", err
		}
		t.AddRow(res, yank.Downtime.Seconds(), ramped.Downtime.Seconds(), ramped.DegradedTime.Seconds())
	}
	return t.String(), nil
}

// An ablation is one simulated design choice: each arm is the full system
// (SpotCheck lazy restore at the run's vms, horizon and seed) with one
// change, and render turns the arms' results, in arm order, into the
// ablation's section of the output.
type ablation struct {
	name   string
	arms   []RunSpec
	render func(arms []RunSpec, res []PolicyRunResult) string
}

// armTable returns a render that prints one table row per arm: its ID,
// then the cells row reads off its result.
func armTable(title string, headers []string, row func(PolicyRunResult) []any) func([]RunSpec, []PolicyRunResult) string {
	return func(arms []RunSpec, res []PolicyRunResult) string {
		t := analysis.NewTable(title, headers...)
		for i, r := range res {
			t.AddRow(append([]any{arms[i].ID}, row(r)...)...)
		}
		return t.String()
	}
}

// ablations builds every simulated ablation at the given scale, in output
// order. The control arms on 4P-ED and 1P-M are policy-matrix cells, so a
// session that ran the matrix does not run them again.
func (s *Session) ablations(vms int, horizon simkit.Time, seed int64) ([]ablation, error) {
	arm := func(id string, cfg PolicyRunConfig) RunSpec {
		cfg.Mechanism, cfg.VMs, cfg.Horizon, cfg.Seed = migration.SpotCheckLazy, vms, horizon, seed
		return RunSpec{ID: id, Cfg: cfg}
	}
	// own names a placement built over an ablation's own markets.
	own := func(name string, p core.PlacementPolicy) PolicyFactory {
		return PolicyFactory{Name: name, New: func() core.PlacementPolicy { return p }}
	}
	ed4 := PolicyFactory{Name: "4P-ED", New: core.Policy4PED}
	m1 := PolicyFactory{Name: "1P-M", New: core.Policy1PM}
	medium := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: EvalZone}
	large := spotmarket.MarketKey{Type: cloud.M3Large, Zone: EvalZone}
	od := cloud.OnDemandPrice(cloud.M3Medium)

	// Slicing's market: m3.large trades at 6% of on-demand, i.e. 1.2x
	// m3.medium (0.6x per slot), both spiking together so storms are
	// comparable. Both arms read the one generated set.
	largeCfg := spotmarket.DefaultConfig(cloud.OnDemandPrice(cloud.M3Large), spotmarket.VolatilityMedium)
	largeCfg.BaseRatio = 0.06
	sliceTraces, err := spotmarket.GenerateSet(map[spotmarket.MarketKey]spotmarket.GenConfig{
		medium: spotmarket.DefaultConfig(od, spotmarket.VolatilityMedium),
		large:  largeCfg,
	}, horizon, seed, s.workers)
	if err != nil {
		return nil, err
	}

	// Zone spread's markets: the medium pool in three zones with
	// independent prices.
	zones := []cloud.Zone{"zone-a", "zone-b", "zone-c"}
	zoneCfgs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, z := range zones {
		zoneCfgs[spotmarket.MarketKey{Type: cloud.M3Medium, Zone: z}] = spotmarket.DefaultConfig(od, spotmarket.VolatilityHigh)
	}
	zoneTraces, err := spotmarket.GenerateSet(zoneCfgs, horizon, seed, s.workers)
	if err != nil {
		return nil, err
	}

	// The trace models: the calibrated overlay generator, the two-state
	// Markov model, and a generate→fit→regenerate round trip.
	overlay, err := spotmarket.Generate(spotmarket.DefaultConfig(od, spotmarket.VolatilityMedium), horizon, newRand(seed))
	if err != nil {
		return nil, err
	}
	markov, err := spotmarket.GenerateMarkov(spotmarket.DefaultMarkovConfig(od), horizon, newRand(seed))
	if err != nil {
		return nil, err
	}
	fitted, err := spotmarket.FitConfig(overlay, od)
	if err != nil {
		return nil, err
	}
	refitted, err := spotmarket.Generate(fitted, horizon, newRand(seed+1))
	if err != nil {
		return nil, err
	}

	// The destination arms shrink the warning to 45 s, below the ~62 s
	// on-demand startup latency: the regime §4.3 motivates spares with,
	// "requesting new servers in a lazy fashion ... is only feasible if the
	// latency to obtain them is smaller than the warning period". (With
	// EC2's full 120 s, lazy acquisition hides the startup behind the
	// degraded drain and spares buy nothing — the paper's own observation.)
	dest := func(id string, d core.DestinationPolicy, spares int) RunSpec {
		return arm(id, PolicyRunConfig{Policy: ed4, Destination: d, HotSpares: spares, WarningWindow: 45 * simkit.Second})
	}
	model := func(id string, tr *spotmarket.Trace) RunSpec {
		return arm(id, PolicyRunConfig{Policy: m1, Traces: spotmarket.Set{medium: tr}})
	}
	revocations := func(r PolicyRunResult) int { return int(r.Metric("spotcheck_revocation_warnings_total")) }

	return []ablation{{
		// Greedy slicing of large hosts vs buying the requested type
		// directly (§4.2): the saving and the blast-radius cost.
		name: "slicing",
		arms: []RunSpec{
			arm("direct", PolicyRunConfig{Policy: own("direct", core.NewRoundRobinPolicy("direct", []spotmarket.MarketKey{medium})), Traces: sliceTraces}),
			arm("greedy-sliced", PolicyRunConfig{Policy: own("greedy-sliced", core.NewGreedyCheapestPolicy([]spotmarket.MarketKey{medium, large})), Traces: sliceTraces}),
		},
		render: func(_ []RunSpec, r []PolicyRunResult) string {
			direct, sliced := r[0].CostPerHour(), r[1].CostPerHour()
			var saved float64
			if direct > 0 {
				saved = 100 * (1 - sliced/direct)
			}
			return fmt.Sprintf("Ablation: slicing — direct $%.4f/hr vs sliced $%.4f/hr (%.0f%% saved); max storm %d -> %d\n",
				direct, sliced, saved, r[0].Report.MaxStorm, r[1].Report.MaxStorm)
		},
	}, {
		// Bid = on-demand vs k×OD with proactive migration (§4.3).
		name: "bidding",
		arms: []RunSpec{
			arm("bid=od", PolicyRunConfig{Policy: ed4, Bidding: core.OnDemandBid{}}),
			arm("bid=1.5x-od", PolicyRunConfig{Policy: ed4, Bidding: core.MultipleBid{K: 1.5}}),
			arm("bid=2x-od", PolicyRunConfig{Policy: ed4, Bidding: core.MultipleBid{K: 2}}),
		},
		render: armTable("Ablation: bidding policy (4P-ED, SpotCheck lazy)",
			[]string{"Bid", "$/VM-hour", "Revocations", "Proactive migrations", "Unavailability(%)"},
			func(r PolicyRunResult) []any {
				proactive := int(r.MetricValue("spotcheck_migrations_started_total", obs.L("reason", "proactive")))
				return []any{r.CostPerHour(), revocations(r), proactive, r.UnavailabilityPct()}
			}),
	}, {
		// Lazy on-demand acquisition vs hot spares vs staging (§4.3).
		name: "destination",
		arms: []RunSpec{
			dest("lazy-on-demand", core.DestOnDemand, 0),
			dest("hot-spare", core.DestHotSpare, 4),
			dest("staging", core.DestStaging, 0),
		},
		render: armTable("Ablation: destination policy (4P-ED, SpotCheck lazy)",
			[]string{"Destination", "$/VM-hour", "Unavailability(%)", "Migrations", "Spare cost ($)"},
			func(r PolicyRunResult) []any {
				return []any{r.CostPerHour(), r.UnavailabilityPct(), r.Migrations(), float64(r.Report.SpareCost)}
			}),
	}, {
		// Stateful vs stateless VMs on the calm pool (§4.2).
		name: "stateless",
		arms: []RunSpec{
			arm("stateful", PolicyRunConfig{Policy: m1}),
			arm("stateless", PolicyRunConfig{Policy: m1, Stateless: true}),
		},
		render: func(_ []RunSpec, r []PolicyRunResult) string {
			saved := int(r[0].Metric("spotcheck_backup_servers") - r[1].Metric("spotcheck_backup_servers"))
			return fmt.Sprintf("Ablation: stateless — stateful $%.4f/hr (unavail %.4f%%) vs stateless $%.4f/hr (unavail %.4f%%), %d backup servers saved\n",
				r[0].CostPerHour(), r[0].UnavailabilityPct(), r[1].CostPerHour(), r[1].UnavailabilityPct(), saved)
		},
	}, {
		// The predictor off vs on, on the stormy pools (§3.2). Synthetic
		// spikes are near-instantaneous, so the trend predictor catches
		// only spikes whose onset straddles a monitor tick — the honest
		// result the paper hints at: trend prediction is hard without
		// high-frequency signals.
		name: "predictive",
		arms: []RunSpec{
			arm("predictive-off", PolicyRunConfig{Policy: ed4}),
			arm("predictive-on", PolicyRunConfig{Policy: ed4, Predictive: true}),
		},
		render: func(_ []RunSpec, r []PolicyRunResult) string {
			off, on := r[0], r[1]
			return fmt.Sprintf("Ablation: predictive — off: %d revocations, %.4f%% unavail, $%.4f/hr; on: %d revocations, %d predictive (%d misses), %.4f%% unavail, $%.4f/hr\n",
				revocations(off), off.UnavailabilityPct(), off.CostPerHour(),
				revocations(on), int(on.Metric("spotcheck_predictive_migrations_total")),
				int(on.Metric("spotcheck_predictive_misses_total")), on.UnavailabilityPct(), on.CostPerHour())
		},
	}, {
		// One zone vs the medium pool spread over three.
		name: "zone spread",
		arms: []RunSpec{
			arm("1-zone", PolicyRunConfig{Policy: own("1-zone", core.NewZoneSpreadPolicy(cloud.M3Medium, zones[:1])), Traces: zoneTraces}),
			arm("3-zone", PolicyRunConfig{Policy: own("3-zone", core.NewZoneSpreadPolicy(cloud.M3Medium, zones)), Traces: zoneTraces}),
		},
		render: func(_ []RunSpec, r []PolicyRunResult) string {
			return fmt.Sprintf("Ablation: zone spread — 1 zone: max storm %d (unavail %.4f%%); 3 zones: max storm %d (unavail %.4f%%)\n",
				r[0].Report.MaxStorm, r[0].UnavailabilityPct(), r[1].Report.MaxStorm, r[1].UnavailabilityPct())
		},
	}, {
		// Continuous billing vs 2015-era hourly billing (every started hour
		// at its opening price, a reclaimed spot instance's last partial
		// hour free) on the stormy pools, where revocations make both
		// matter.
		name: "billing",
		arms: []RunSpec{
			arm("billing-continuous", PolicyRunConfig{Policy: ed4}),
			arm("billing-hourly", PolicyRunConfig{Policy: ed4, BillingIncrement: simkit.Hour}),
		},
		render: func(_ []RunSpec, r []PolicyRunResult) string {
			continuous, hourly := r[0].CostPerHour(), r[1].CostPerHour()
			var delta float64
			if continuous > 0 {
				delta = 100 * (hourly/continuous - 1)
			}
			return fmt.Sprintf("Ablation: billing — continuous $%.4f/hr vs 2015-era hourly $%.4f/hr (%+.1f%%; started hours round up, reclaimed partial hours free)\n",
				continuous, hourly, delta)
		},
	}, {
		// The 1P-M headline under three m3.medium price processes: a
		// conclusion that held under one synthetic model only would be
		// fragile.
		name: "trace model",
		arms: []RunSpec{
			model("overlay", overlay),
			model("markov", markov),
			model("fit-regenerate", refitted),
		},
		render: armTable("Ablation: price-process sensitivity (1P-M, SpotCheck lazy)",
			[]string{"Model", "$/VM-hour", "Availability(%)", "Savings(x)"},
			func(r PolicyRunResult) []any {
				return []any{r.CostPerHour(), 100 * r.Report.Availability, float64(od) / r.CostPerHour()}
			}),
	}}, nil
}

// RenderAblations runs every ablation at the given scale and renders them.
// The optional trailing argument bounds the sweep's worker count (0 or
// absent means GOMAXPROCS; 1 runs sequentially).
func RenderAblations(vms int, horizon simkit.Time, seed int64, workers ...int) (string, error) {
	return NewSession(sweepWorkers(workers)).RenderAblations(vms, horizon, seed)
}

// RenderAblations is the package-level RenderAblations on the session: the
// arms of every ablation run in one sweep, and those that are policy-matrix
// cells only if the session has not run them yet.
func (s *Session) RenderAblations(vms int, horizon simkit.Time, seed int64) (string, error) {
	flush, err := flushTable()
	if err != nil {
		return "", err
	}
	abls, err := s.ablations(vms, horizon, seed)
	if err != nil {
		return "", err
	}
	var specs []RunSpec
	for _, a := range abls {
		specs = append(specs, a.arms...)
	}
	res, err := s.Sweep(specs)
	if err != nil {
		return "", err
	}
	sections := []string{flush}
	for _, a := range abls {
		sections = append(sections, a.render(a.arms, res[:len(a.arms)]))
		res = res[len(a.arms):]
	}
	return strings.Join(sections, "\n"), nil
}
