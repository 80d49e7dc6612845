package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// countingProvider counts SpotPrice calls per market and answers one chosen
// market with a transient (non-ErrNotFound) error.
type countingProvider struct {
	cloud.Provider
	calls     map[spotmarket.MarketKey]int
	throttled spotmarket.MarketKey
}

func (p *countingProvider) SpotPrice(typ string, zone cloud.Zone) (cloud.USD, error) {
	key := spotmarket.MarketKey{Type: typ, Zone: zone}
	p.calls[key]++
	if key == p.throttled {
		return 0, errors.New("throttled")
	}
	return p.Provider.SpotPrice(typ, zone)
}

// TestUntracedMarketProbedOnce pins the monitor's probing contract: a pair
// whose SpotPrice answers cloud.ErrNotFound has no spot market for the
// provider's lifetime and is asked exactly once; any other error is
// transient, so that market is asked — and the failure counted — on every
// tick; non-HVM types are never asked at all.
func TestUntracedMarketProbedOnce(t *testing.T) {
	traced := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	throttled := spotmarket.MarketKey{Type: cloud.M3Large, Zone: "zone-a"}
	untraced := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-b"}
	var prov *countingProvider
	r := newRig(t, nil, func(c *Config) {
		prov = &countingProvider{Provider: c.Provider, calls: map[spotmarket.MarketKey]int{}, throttled: throttled}
		c.Provider = prov
	})
	const ticks = 100
	r.run(t, ticks*simkit.Minute)

	if got := r.ctrl.met.monitorTick.Value(); got != ticks {
		t.Fatalf("monitor ticked %v times, want %d", got, ticks)
	}
	if got := prov.calls[traced]; got != ticks {
		t.Errorf("traced market asked %d times, want every tick (%d)", got, ticks)
	}
	if got := prov.calls[untraced]; got != 1 {
		t.Errorf("untraced market asked %d times, want exactly 1", got)
	}
	if got := prov.calls[throttled]; got != ticks {
		t.Errorf("transiently failing market asked %d times, want every tick (%d)", got, ticks)
	}
	if got := r.ctrl.met.provErrs.Value(); got != ticks {
		t.Errorf("spotcheck_provider_errors_total = %v, want %d (one per failed probe, none for ErrNotFound)", got, ticks)
	}
	for key, n := range prov.calls {
		if typ, _ := prov.TypeByName(key.Type); !typ.HVM && n > 0 {
			t.Errorf("non-HVM market %v asked %d times, want 0", key, n)
		}
	}
	// Only sampled markets reach the history the policies read.
	if got := r.ctrl.History().MeanPrice(traced); math.Abs(float64(got)-0.01) > 1e-12 {
		t.Errorf("traced market mean = %v, want 0.01", got)
	}
	if got := r.ctrl.History().MeanPrice(throttled); got != 0 {
		t.Errorf("never-sampled market has mean %v", got)
	}
}

// TestHistoryGrowsOnDemand covers the table outside a controller's grid: a
// standalone History, or a key the provider's catalog × zones does not
// contain, grows a record on first use, in (type, zone) order, and a walk
// in progress keeps the snapshot it started on.
func TestHistoryGrowsOnDemand(t *testing.T) {
	h := NewHistory()
	keys := []spotmarket.MarketKey{
		{Type: "m3.large", Zone: "zone-b"},
		{Type: "c3.large", Zone: "zone-a"},
		{Type: "m3.large", Zone: "zone-a"},
	}
	for i, k := range keys {
		h.ObservePrice(k, cloud.USD(i+1))
		h.ObservePrice(k, cloud.USD(i+1))
	}
	h.ObserveRevocation(keys[1])
	if h.MeanPrice(keys[2]) != 3 || h.Volatility(keys[2]) != 0 || h.Revocations(keys[1]) != 1 {
		t.Errorf("mean %v, volatility %v, revocations %v", h.MeanPrice(keys[2]), h.Volatility(keys[2]), h.Revocations(keys[1]))
	}
	unseen := spotmarket.MarketKey{Type: "zz", Zone: "zone-a"}
	if h.MeanPrice(unseen) != 0 || h.Volatility(unseen) != 0 || h.Revocations(unseen) != 0 {
		t.Error("unobserved market is not all zeros")
	}
	if len(h.markets) != len(keys) {
		t.Fatalf("reads grew the table to %d records", len(h.markets))
	}
	for i := 1; i < len(h.markets); i++ {
		if !marketKeyLess(h.markets[i-1].key, h.markets[i].key) {
			t.Errorf("record %d (%v) out of order after %v", i, h.markets[i].key, h.markets[i-1].key)
		}
	}
	visited := 0
	for _, m := range h.markets {
		h.ObserveRevocation(spotmarket.MarketKey{Type: "a1.tiny", Zone: cloud.Zone(m.key.String())}) // sorts first
		visited++
	}
	if visited != len(keys) || len(h.markets) != 2*len(keys) {
		t.Errorf("walk visited %d records of %d while the table grew to %d", visited, len(keys), len(h.markets))
	}
}
