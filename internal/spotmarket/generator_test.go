package spotmarket

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func quickCfg(n int) *quick.Config { return &quick.Config{MaxCount: n} }

const sixMonths = 182 * simkit.Day

func genTrace(t *testing.T, vol Volatility, seed int64) *Trace {
	t.Helper()
	cfg := DefaultConfig(0.07, vol)
	tr, err := Generate(cfg, sixMonths, newRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateValidation(t *testing.T) {
	good := DefaultConfig(0.07, VolatilityLow)
	if _, err := Generate(good, 0, newRand(1)); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := good
	bad.OnDemand = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero on-demand accepted")
	}
	bad = good
	bad.BaseRatio = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("BaseRatio >= 1 accepted")
	}
	bad = good
	bad.StepMean = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero StepMean accepted")
	}
	bad = good
	bad.FloorRatio = 0.99
	if err := bad.Validate(); err == nil {
		t.Error("FloorRatio > BaseRatio accepted")
	}
	bad = good
	bad.SpikeHeight = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil SpikeHeight accepted")
	}
	bad = good
	bad.SpikeMeanInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero spike interval accepted")
	}
	bad = good
	bad.SpikeDuration = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero spike duration accepted")
	}
}

// The paper's Figure 6a: spot prices are extremely low on average compared
// to on-demand, with availability at the on-demand bid well above 90%.
func TestGeneratedTraceMatchesPaperShape(t *testing.T) {
	od := cloud.USD(0.07)
	tr := genTrace(t, VolatilityLow, 42)

	mean := float64(tr.MeanPrice(0, tr.End()))
	if ratio := mean / float64(od); ratio < 0.05 || ratio > 0.35 {
		t.Errorf("mean price ratio = %.3f, want deep discount (0.05..0.35)", ratio)
	}
	avail := tr.FractionBelow(od, 0, tr.End())
	if avail < 0.99 {
		t.Errorf("availability at on-demand bid = %.4f, want >= 0.99 for a low-volatility market", avail)
	}
	// Spikes exist and exceed the on-demand price (they cause revocations).
	exc := tr.ExcursionsAbove(od)
	if len(exc) == 0 {
		t.Fatal("no price spikes above on-demand in 6 months; revocations would never occur")
	}
	if len(exc) > 40 {
		t.Errorf("%d spikes in 6 months is too stormy for the low-volatility market", len(exc))
	}
	// Knee: availability flattens near the on-demand price — bidding 2x
	// on-demand buys little extra availability.
	a2 := tr.FractionBelow(2*od, 0, tr.End())
	if a2-avail > 0.02 {
		t.Errorf("availability gain from doubling bid = %.4f, want < 0.02 (knee below OD)", a2-avail)
	}
	// But bidding far below the base price forfeits most availability.
	aLow := tr.FractionBelow(od/20, 0, tr.End())
	if aLow > 0.6 {
		t.Errorf("availability at 5%% bid = %.3f, should lose most availability", aLow)
	}
}

func TestVolatilityOrdering(t *testing.T) {
	od := cloud.USD(0.07)
	var prevSpikes int
	for i, vol := range []Volatility{VolatilityLow, VolatilityMedium, VolatilityHigh, VolatilityExtreme} {
		// Average spike counts across seeds to avoid flaky ordering.
		var spikes int
		for seed := int64(0); seed < 5; seed++ {
			tr := genTrace(t, vol, 100+seed)
			spikes += len(tr.ExcursionsAbove(od))
		}
		if i > 0 && spikes <= prevSpikes {
			t.Errorf("volatility %v spikes (%d) not above previous (%d)", vol, spikes, prevSpikes)
		}
		prevSpikes = spikes
	}
}

func TestVolatilityString(t *testing.T) {
	for v, want := range map[Volatility]string{
		VolatilityLow: "low", VolatilityMedium: "medium",
		VolatilityHigh: "high", VolatilityExtreme: "extreme",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", int(v), v.String())
		}
	}
	if Volatility(42).String() != "volatility(42)" {
		t.Error("unknown volatility string")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTrace(t, VolatilityMedium, 7)
	b := genTrace(t, VolatilityMedium, 7)
	if a.Len() != b.Len() {
		t.Fatalf("same seed, different lengths: %d vs %d", a.Len(), b.Len())
	}
	pa, pb := a.points, b.points
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same seed, different point %d", i)
		}
	}
}

func TestGenerateSetIndependence(t *testing.T) {
	configs := map[MarketKey]GenConfig{}
	var keys []MarketKey
	for _, typ := range []string{cloud.M3Medium, cloud.M3Large, cloud.M3XLarge, cloud.M32XLarge} {
		k := MarketKey{Type: typ, Zone: "zone-a"}
		keys = append(keys, k)
		configs[k] = DefaultConfig(0.07, VolatilityHigh)
	}
	set, err := GenerateSet(configs, sixMonths, 11)
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*Trace, len(keys))
	for i, k := range keys {
		traces[i] = set[k]
	}
	m := CorrelationMatrix(traces)
	meanAbs, maxAbs := OffDiagonalStats(m)
	if meanAbs > 0.12 {
		t.Errorf("mean |off-diagonal correlation| = %.3f, want ~0 (independent markets)", meanAbs)
	}
	if maxAbs > 0.35 {
		t.Errorf("max |off-diagonal correlation| = %.3f, want small", maxAbs)
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal[%d] = %v, want 1", i, m[i][i])
		}
	}
}

func TestGenerateSetStablePerMarket(t *testing.T) {
	// Adding a market must not perturb existing markets' traces.
	k1 := MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	k2 := MarketKey{Type: cloud.M3Large, Zone: "zone-b"}
	small, err := GenerateSet(map[MarketKey]GenConfig{k1: DefaultConfig(0.07, VolatilityLow)}, 30*simkit.Day, 5)
	if err != nil {
		t.Fatal(err)
	}
	big, err := GenerateSet(map[MarketKey]GenConfig{
		k1: DefaultConfig(0.07, VolatilityLow),
		k2: DefaultConfig(0.14, VolatilityLow),
	}, 30*simkit.Day, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, b := small[k1].points, big[k1].points
	if len(a) != len(b) {
		t.Fatalf("adding a market changed another market's trace length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("adding a market changed another market's trace")
		}
	}
}

func TestGenerateSetError(t *testing.T) {
	k := MarketKey{Type: "x", Zone: "z"}
	bad := DefaultConfig(0.07, VolatilityLow)
	bad.OnDemand = -1
	if _, err := GenerateSet(map[MarketKey]GenConfig{k: bad}, simkit.Day, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSetKeysSorted(t *testing.T) {
	s := Set{
		{Type: "b", Zone: "z2"}: nil,
		{Type: "a", Zone: "z9"}: nil,
		{Type: "b", Zone: "z1"}: nil,
	}
	keys := s.Keys()
	want := []MarketKey{{Type: "a", Zone: "z9"}, {Type: "b", Zone: "z1"}, {Type: "b", Zone: "z2"}}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", keys, want)
		}
	}
	if want[0].String() != "a/z9" {
		t.Error("MarketKey.String wrong")
	}
}

// Property: generated traces always respect the price floor and start at 0.
func TestGeneratorInvariants(t *testing.T) {
	f := func(seed int64, volRaw uint8) bool {
		vol := Volatility(volRaw % 4)
		cfg := DefaultConfig(0.07, vol)
		tr, err := Generate(cfg, 20*simkit.Day, newRand(seed))
		if err != nil {
			return false
		}
		pts := tr.points
		if pts[0].T != 0 {
			return false
		}
		floor := cloud.USD(float64(cfg.OnDemand) * cfg.FloorRatio)
		for i, p := range pts {
			if p.Price < floor {
				return false
			}
			if i > 0 && p.T <= pts[i-1].T {
				return false
			}
			// No-op points (same price as the previous) must be elided.
			if i > 0 && p.Price == pts[i-1].Price {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(25)); err != nil {
		t.Error(err)
	}
}
