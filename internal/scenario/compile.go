package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/experiments"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// policyByName resolves a Table 2 policy name ("" means 4P-ED).
func policyByName(name string) (experiments.PolicyFactory, error) {
	if name == "" {
		name = "4P-ED"
	}
	for _, pf := range experiments.NamedPolicyFactories() {
		if pf.Name == name {
			return pf, nil
		}
	}
	return experiments.PolicyFactory{}, fmt.Errorf("unknown policy %q", name)
}

// mechanismByName resolves a migration mechanism token ("" means
// spotcheck-lazy).
func mechanismByName(name string) (migration.Mechanism, error) {
	switch name {
	case "", "spotcheck-lazy":
		return migration.SpotCheckLazy, nil
	case "spotcheck-full":
		return migration.SpotCheckFull, nil
	case "unoptimized-lazy":
		return migration.UnoptimizedLazy, nil
	case "unoptimized-full":
		return migration.UnoptimizedFull, nil
	case "xen-live":
		return migration.XenLive, nil
	default:
		return 0, fmt.Errorf("unknown mechanism %q", name)
	}
}

// Compile turns a validated spec into one sweep cell. Traces are generated
// here (explicitly, so the sweep engine's shared-trace fallback never
// substitutes the paper's market for a scenario regime) and arrival shapes
// are rendered to concrete per-VM offsets; both are pure functions of the
// spec, so a compiled campaign inherits the sweep engine's worker-count
// determinism.
func Compile(s Spec) (experiments.RunSpec, error) {
	if err := s.Validate(); err != nil {
		return experiments.RunSpec{}, err
	}
	pol, err := policyByName(s.Policy)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	mech, err := mechanismByName(s.Mechanism)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	horizon := simkit.Hours(s.Hours)
	traces, err := regimeTraces(s, horizon)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	cfg := experiments.PolicyRunConfig{
		Policy:             pol,
		Mechanism:          mech,
		VMs:                s.VMs,
		Horizon:            horizon,
		Seed:               s.Seed,
		Traces:             traces,
		Stateless:          s.Stateless,
		ArrivalOffsets:     arrivalOffsets(s, horizon),
		CollectVMDowntimes: true,
	}
	if s.Faults.FailProb > 0 || s.Faults.ExtraLatencySeconds > 0 {
		chaosSeed := s.Faults.Seed
		if chaosSeed == 0 {
			chaosSeed = s.Seed + 1
		}
		cfg.Chaos = &cloudchaos.Config{
			FailProb:     s.Faults.FailProb,
			ExtraLatency: simkit.Seconds(s.Faults.ExtraLatencySeconds),
			Seed:         chaosSeed,
		}
	}
	return experiments.RunSpec{ID: s.Name, Cfg: cfg}, nil
}

// regimeTraces builds the spec's market history.
func regimeTraces(s Spec, horizon simkit.Time) (spotmarket.Set, error) {
	switch s.Market.Regime {
	case "", "paper":
		return experiments.EvalTraces(horizon, s.Seed)
	case "storm":
		set, err := experiments.EvalTraces(horizon, s.Seed)
		if err != nil {
			return nil, err
		}
		return overlayStorms(set, horizon, s.Market)
	case "price-war":
		return priceWarTraces(horizon, s.Seed)
	case "replay":
		set, err := spotmarket.ReadCSV(strings.NewReader(s.Market.ReplayCSV))
		if err != nil {
			return nil, err
		}
		for k, tr := range set {
			if tr.End() < horizon {
				return nil, fmt.Errorf("scenario %s: replay trace %v ends at %v, before the %v horizon",
					s.Name, k, tr.End(), horizon)
			}
		}
		return set, nil
	default:
		return nil, fmt.Errorf("scenario %s: unknown market regime %q", s.Name, s.Market.Regime)
	}
}

// overlayStorms splices coordinated price spikes into every market of the
// set at once: storm i covers [horizon·(i+1)/(n+1), +StormHours) at
// StormMultiple × the market's on-demand anchor. The paper's generator
// draws each market independently (cross-market correlation ~0, Figs.
// 6c/6d); a storm is the adversarial opposite — one zone-wide event that
// revokes every pool's spot capacity simultaneously, which is exactly what
// multi-pool placement policies exist to survive.
func overlayStorms(set spotmarket.Set, horizon simkit.Time, m Market) (spotmarket.Set, error) {
	storms := m.Storms
	if storms == 0 {
		storms = 2
	}
	dur := simkit.Hours(m.StormHours)
	if dur == 0 {
		dur = simkit.Hour
	}
	mult := m.StormMultiple
	if mult == 0 {
		mult = 10
	}
	type window struct{ start, end simkit.Time }
	windows := make([]window, 0, storms)
	for i := 0; i < storms; i++ {
		start := horizon / simkit.Time(storms+1) * simkit.Time(i+1)
		end := start + dur
		if end > horizon {
			end = horizon
		}
		windows = append(windows, window{start, end})
	}
	od := map[string]cloud.USD{}
	for _, typ := range cloud.DefaultCatalog() {
		od[typ.Name] = typ.OnDemand
	}
	out := spotmarket.Set{}
	for _, k := range set.Keys() {
		tr := set[k]
		anchor := od[k.Type]
		if anchor == 0 {
			// Unknown type: anchor on the trace's own opening price.
			anchor = tr.PointAt(0).Price
		}
		stormPrice := cloud.USD(mult) * anchor
		// Merge the original change times with the storm boundaries, then
		// re-evaluate the price at every boundary: storm price inside a
		// window, the underlying trace outside.
		times := make([]simkit.Time, 0, tr.Len()+2*len(windows))
		for i := 0; i < tr.Len(); i++ {
			times = append(times, tr.PointAt(i).T)
		}
		for _, w := range windows {
			times = append(times, w.start)
			if w.end < horizon {
				times = append(times, w.end)
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		inStorm := func(t simkit.Time) bool {
			for _, w := range windows {
				if t >= w.start && t < w.end {
					return true
				}
			}
			return false
		}
		points := make([]spotmarket.Point, 0, len(times))
		for _, t := range times {
			price := tr.PriceAt(t)
			if inStorm(t) {
				price = stormPrice
			}
			if n := len(points); n > 0 {
				if points[n-1].T == t || points[n-1].Price == price {
					continue
				}
			}
			points = append(points, spotmarket.Point{T: t, Price: price})
		}
		merged, err := spotmarket.NewTrace(points, tr.End())
		if err != nil {
			return nil, fmt.Errorf("scenario: storm overlay on %v: %w", k, err)
		}
		out[k] = merged
	}
	return out, nil
}

// priceWarTraces generates a sustained sellers' war across the four
// evaluation markets: normal-regime prices at ~4× the paper's base ratio,
// surges brushing the on-demand price every day or two, and above-on-demand
// spikes every ~20 hours. Spot is still cheaper than on-demand on average,
// but the cushion between the bid and the market is thin and revocations
// are routine rather than rare.
func priceWarTraces(horizon simkit.Time, seed int64) (spotmarket.Set, error) {
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range []string{cloud.M3Medium, cloud.M3Large, cloud.M3XLarge, cloud.M32XLarge} {
		cfg := spotmarket.DefaultConfig(cloud.OnDemandPrice(typ), spotmarket.VolatilityExtreme)
		cfg.BaseRatio = 0.55
		cfg.Jitter = 0.2
		cfg.SurgeMeanInterval = 30 * simkit.Hour
		cfg.SurgeDuration = 4 * simkit.Hour
		cfg.SurgeRatio = simkit.Clamped{Inner: simkit.Uniform{Lo: 0.7, Hi: 0.98}, Lo: 0.6, Hi: 0.99}
		cfg.SpikeMeanInterval = 20 * simkit.Hour
		cfg.SpikeDuration = 2 * simkit.Hour
		cfg.FloorRatio = 0.3
		configs[spotmarket.MarketKey{Type: typ, Zone: experiments.EvalZone}] = cfg
	}
	return spotmarket.GenerateSet(configs, horizon, seed)
}

// arrivalOffsets renders the spec's arrival shape to one offset per VM.
func arrivalOffsets(s Spec, horizon simkit.Time) []simkit.Time {
	window := simkit.Hours(s.Arrival.WindowHours)
	if window == 0 {
		window = 24 * simkit.Hour
	}
	if window > horizon {
		window = horizon
	}
	switch s.Arrival.Shape {
	case "", "flat":
		return nil
	case "burst":
		offsets := make([]simkit.Time, s.VMs)
		for i := range offsets {
			offsets[i] = window * simkit.Time(i) / simkit.Time(s.VMs)
		}
		return offsets
	case "diurnal":
		return diurnalOffsets(s.VMs, window, s.Arrival)
	default:
		return nil
	}
}

// diurnalOffsets places VM i at the i-th rate-weighted quantile of the
// traffic curve rate(h) = 1 + (Surge-1)·½(1+cos(2π(h-PeakHour)/24)),
// integrated on a minute grid over the window. The inversion is a pure
// deterministic function — no RNG — so arrivals are reproducible and the
// lint determinism contract holds; heavy traffic clusters around PeakHour
// each simulated day.
func diurnalOffsets(vms int, window simkit.Time, a Arrival) []simkit.Time {
	peak := a.PeakHour
	if peak == 0 {
		peak = 14
	}
	surge := a.Surge
	if surge == 0 {
		surge = 6
	}
	minutes := int(window / simkit.Minute)
	if minutes < 1 {
		minutes = 1
	}
	cum := make([]float64, minutes+1)
	for m := 0; m < minutes; m++ {
		h := math.Mod(float64(m)/60, 24)
		rate := 1 + (surge-1)*0.5*(1+math.Cos(2*math.Pi*(h-peak)/24))
		cum[m+1] = cum[m] + rate
	}
	total := cum[minutes]
	offsets := make([]simkit.Time, vms)
	for i := range offsets {
		target := total * (float64(i) + 0.5) / float64(vms)
		m := sort.SearchFloat64s(cum, target)
		if m > 0 {
			m--
		}
		offsets[i] = simkit.Time(m) * simkit.Minute
	}
	return offsets
}
