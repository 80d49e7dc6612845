package core

import (
	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/spotmarket"
)

// Accessors the controller's tests read and feed it through; no program
// needs them.

// ObservePrice records a price sample for a market.
func (h *History) ObservePrice(key spotmarket.MarketKey, price cloud.USD) {
	h.at(key).window.add(float64(price))
}

// ObserveRevocation records a revocation event in a market.
func (h *History) ObserveRevocation(key spotmarket.MarketKey) {
	h.at(key).revocations++
}

// NamedPolicies returns the five Table 2 policies in evaluation order.
func NamedPolicies() []PlacementPolicy {
	return []PlacementPolicy{
		Policy1PM(), Policy2PML(), Policy4PED(), Policy4PCOST(), Policy4PST(),
	}
}

// History exposes the controller's market observations (for policies and
// reports), settled up to now.
func (c *Controller) History() *History {
	c.Settle()
	return c.history
}

// Metrics exposes the controller's registry (its own when none was given).
func (c *Controller) Metrics() *obs.Registry { return c.met.reg }
