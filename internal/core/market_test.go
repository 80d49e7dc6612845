package core

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// countingProvider counts price-history questions per market and answers
// one chosen market with a transient (non-ErrNotFound) error. SpotPrice is
// counted too: the monitor must not ask it at all.
type countingProvider struct {
	cloud.Provider
	calls     map[spotmarket.MarketKey]int
	polls     int
	throttled spotmarket.MarketKey
}

func (p *countingProvider) SpotPrice(typ string, zone cloud.Zone) (cloud.USD, error) {
	p.polls++
	return p.Provider.SpotPrice(typ, zone)
}

func (p *countingProvider) SpotPriceAt(typ string, zone cloud.Zone, at simkit.Time) (cloud.USD, simkit.Time, error) {
	key := spotmarket.MarketKey{Type: typ, Zone: zone}
	p.calls[key]++
	if key == p.throttled {
		return 0, 0, errors.New("throttled")
	}
	return p.Provider.SpotPriceAt(typ, zone, at)
}

// TestUntracedMarketProbedOnce pins the monitor's probing contract under
// replay. A pair whose history answers cloud.ErrNotFound has no spot market
// for the provider's lifetime and costs one question, ever. Any other error
// is transient: a replay asks that market once per tick it replays and
// counts each failure. A traced market costs one question per price step a
// read crosses (plus Settle's one at the last tick), never one per tick;
// non-HVM types are never asked at all.
func TestUntracedMarketProbedOnce(t *testing.T) {
	traced := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	throttled := spotmarket.MarketKey{Type: cloud.M3Large, Zone: "zone-a"}
	untraced := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-b"}
	// Three price steps in the first 100 ticks: $0.01, a spike, $0.01 again.
	tr := makeTrace(t, 0.01, testEnd, spike{at: 30*simkit.Minute + 7*simkit.Second, dur: 20 * simkit.Minute, price: 0.05})
	var prov *countingProvider
	r := newRig(t, spotmarket.Set{traced: tr}, func(c *Config) {
		prov = &countingProvider{Provider: c.Provider, calls: map[spotmarket.MarketKey]int{}, throttled: throttled}
		c.Provider = prov
	})
	const ticks = 100
	r.run(t, ticks*simkit.Minute)
	if n := len(prov.calls); n != 0 {
		t.Fatalf("an idle monitor asked %d markets before anyone read one", n)
	}

	h := r.ctrl.History() // settles: accounts the ticks, probes each market once
	if got := r.ctrl.met.monitorTick.Value(); got != ticks {
		t.Fatalf("spotcheck_monitor_ticks_total = %v after settling, want %d", got, ticks)
	}
	mean := h.MeanPrice(traced)
	var want priceWindow
	for k := uint64(2); k <= ticks+1; k++ {
		want.add(float64(tr.PriceAt(r.ctrl.tickAt(k))))
	}
	if mean != cloud.USD(want.mean()) {
		t.Errorf("traced market mean = %v, want %v", mean, want.mean())
	}
	if got := prov.calls[traced]; got != 1+3 {
		t.Errorf("traced market asked %d times, want 4 (Settle's one + one per price step)", got)
	}
	if got := prov.calls[untraced]; got != 1 {
		t.Errorf("untraced market asked %d times, want exactly 1", got)
	}
	if got := h.MeanPrice(throttled); got != 0 {
		t.Errorf("never-sampled market has mean %v", got)
	}
	if got := prov.calls[throttled]; got != 1+ticks {
		t.Errorf("transiently failing market asked %d times, want %d (Settle's one + one per tick replayed)", got, 1+ticks)
	}
	if got := r.ctrl.met.provErrs.Value(); got != ticks {
		t.Errorf("spotcheck_provider_errors_total = %v, want %d (one per failed replayed tick, none for ErrNotFound)", got, ticks)
	}

	// A second stretch with no price change: one more question each.
	r.run(t, 2*ticks*simkit.Minute)
	h = r.ctrl.History()
	h.MeanPrice(traced)
	h.MeanPrice(untraced)
	if got := prov.calls[traced]; got != 4+2 {
		t.Errorf("traced market asked %d times after a flat stretch, want 6", got)
	}
	if got := prov.calls[untraced]; got != 1 {
		t.Errorf("untraced market asked %d times, want exactly 1 for the controller's lifetime", got)
	}
	for key, n := range prov.calls {
		if typ, _ := prov.TypeByName(key.Type); !typ.HVM && n > 0 {
			t.Errorf("non-HVM market %v asked %d times, want 0", key, n)
		}
	}
	if prov.polls != 0 {
		t.Errorf("the monitor polled SpotPrice %d times, want 0", prov.polls)
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
	if h.MeanPrice(keys[2]) != 3 || h.Revocations(keys[1]) != 1 {
		t.Errorf("mean %v, revocations %v", h.MeanPrice(keys[2]), h.Revocations(keys[1]))
	}
	unseen := spotmarket.MarketKey{Type: "zz", Zone: "zone-a"}
	if h.MeanPrice(unseen) != 0 || h.Revocations(unseen) != 0 {
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
