package spotmarket

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

func TestGenerateMarkovShape(t *testing.T) {
	cfg := DefaultMarkovConfig(0.07)
	tr, err := GenerateMarkov(cfg, 120*simkit.Day, newRand(5))
	if err != nil {
		t.Fatal(err)
	}
	// Spot-market essentials: deep discount on average, high availability
	// at the on-demand bid, hot episodes above it.
	mean := float64(tr.MeanPrice(0, tr.End()))
	if ratio := mean / 0.07; ratio < 0.05 || ratio > 0.5 {
		t.Errorf("mean ratio = %.3f, want a deep discount", ratio)
	}
	avail := tr.FractionBelow(0.07, 0, tr.End())
	if avail < 0.95 {
		t.Errorf("availability at od = %.4f", avail)
	}
	spikes := tr.ExcursionsAbove(0.07)
	if len(spikes) == 0 {
		t.Fatal("no hot episodes in 120 days")
	}
	// Expected roughly horizon/MeanCalm episodes.
	expect := float64(120*simkit.Day) / float64(cfg.MeanCalm)
	if f := float64(len(spikes)) / expect; f < 0.4 || f > 2.5 {
		t.Errorf("hot episodes = %d, expected ~%.0f", len(spikes), expect)
	}
}

func TestGenerateMarkovDeterministic(t *testing.T) {
	cfg := DefaultMarkovConfig(0.07)
	a, err := GenerateMarkov(cfg, 30*simkit.Day, newRand(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateMarkov(cfg, 30*simkit.Day, newRand(3))
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.points, b.points
	if len(pa) != len(pb) {
		t.Fatal("same seed diverged")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestGenerateMarkovValidation(t *testing.T) {
	good := DefaultMarkovConfig(0.07)
	if _, err := GenerateMarkov(good, 0, newRand(1)); err == nil {
		t.Error("zero horizon accepted")
	}
	mutations := []func(*MarkovConfig){
		func(c *MarkovConfig) { c.OnDemand = 0 },
		func(c *MarkovConfig) { c.CalmRatio = 1.5 },
		func(c *MarkovConfig) { c.CalmSigma = 0 },
		func(c *MarkovConfig) { c.Step = 0 },
		func(c *MarkovConfig) { c.MeanCalm = 0 },
		func(c *MarkovConfig) { c.MeanHot = 0 },
		func(c *MarkovConfig) { c.HotHeight = nil },
	}
	for i, mut := range mutations {
		bad := DefaultMarkovConfig(0.07)
		mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	_ = cloud.USD(0)
}
