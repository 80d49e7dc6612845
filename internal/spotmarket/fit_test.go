package spotmarket

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// Round trip: generate from a known config, fit the result, and check the
// recovered parameters land near the truth.
func TestFitConfigRoundTrip(t *testing.T) {
	truth := DefaultConfig(0.07, VolatilityHigh)
	tr, err := Generate(truth, 182*simkit.Day, newRand(9))
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := FitConfig(tr, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(fitted.BaseRatio-truth.BaseRatio) / truth.BaseRatio; rel > 0.35 {
		t.Errorf("BaseRatio fitted %.3f vs truth %.3f", fitted.BaseRatio, truth.BaseRatio)
	}
	// Spike interval within a factor of ~2 (excursion counting merges
	// adjacent spikes and the overlay suppresses some).
	ratio := float64(fitted.SpikeMeanInterval) / float64(truth.SpikeMeanInterval)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("SpikeMeanInterval fitted %v vs truth %v (ratio %.2f)",
			fitted.SpikeMeanInterval, truth.SpikeMeanInterval, ratio)
	}
	// The fitted config must itself generate a statistically similar
	// market: availability at the on-demand bid within a few points.
	regen, err := Generate(fitted, 182*simkit.Day, newRand(10))
	if err != nil {
		t.Fatal(err)
	}
	a1 := tr.FractionBelow(0.07, 0, tr.End())
	a2 := regen.FractionBelow(0.07, 0, regen.End())
	if math.Abs(a1-a2) > 0.05 {
		t.Errorf("availability@od: original %.4f vs regenerated %.4f", a1, a2)
	}
	m1 := float64(tr.MeanPrice(0, tr.End()))
	m2 := float64(regen.MeanPrice(0, regen.End()))
	if math.Abs(m1-m2)/m1 > 0.6 {
		t.Errorf("mean price: original %.4f vs regenerated %.4f", m1, m2)
	}
}

func TestFitConfigFromCalmMarket(t *testing.T) {
	// A market that never spikes: the fitter must still produce a valid
	// config with a near-horizon spike interval.
	tr := mustTrace(t, []Point{{0, 0.009}, {simkit.Hour, 0.0095}, {3 * simkit.Hour, 0.009}}, 60*simkit.Day)
	cfg, err := FitConfig(tr, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SpikeMeanInterval < 30*simkit.Day {
		t.Errorf("spike interval %v too short for a calm market", cfg.SpikeMeanInterval)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("fitted config invalid: %v", err)
	}
}

func TestFitConfigErrors(t *testing.T) {
	tr := mustTrace(t, []Point{{0, 0.01}}, 48*simkit.Hour)
	if _, err := FitConfig(nil, 0.07); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := FitConfig(tr, 0); err == nil {
		t.Error("zero on-demand accepted")
	}
	short := mustTrace(t, []Point{{0, 0.01}}, 2*simkit.Hour)
	if _, err := FitConfig(short, 0.07); err == nil {
		t.Error("too-short trace accepted")
	}
	// A market pinned above on-demand is not a spot market.
	hot := mustTrace(t, []Point{{0, cloud.USD(0.2)}}, 48*simkit.Hour)
	if _, err := FitConfig(hot, 0.07); err == nil {
		t.Error("always-hot market accepted")
	}
}
