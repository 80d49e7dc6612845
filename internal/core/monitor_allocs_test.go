package core

import (
	"testing"

	"repro/internal/simkit"
)

// TestMonitorTickSteadyStateAllocs pins the per-tick allocation fix behind
// the flattened capacity curve: once the price windows are warm and every
// untraced market has answered its one probe, a monitor tick — sampling and
// every sweep — must allocate nothing. The market table is built at New and
// walked in place, samples are tick-stamped rather than cleared or copied,
// and the tick reschedules itself through a func value bound once.
func TestMonitorTickSteadyStateAllocs(t *testing.T) {
	r := newRig(t, nil, func(c *Config) {
		c.Placement = Policy1PM()
		c.Predictive = PredictiveConfig{Enabled: true}
	})
	for i := 0; i < 4; i++ {
		r.request(t, "alice")
	}
	r.run(t, simkit.Hour)

	c := r.ctrl
	// The real tick, fired by hand: cancelling the pending tick first hands
	// its scheduler slot to the one monitorTick schedules, so the queue
	// neither grows nor advances the clock.
	tick := func() {
		c.stopMonitor()
		c.monitorTick()
	}
	// Warm every steady-state structure: fill each market's trailing price
	// window past its ring capacity.
	for i := 0; i < priceWindowCap+8; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("steady-state monitor tick allocates %.1f objects/tick, want 0", allocs)
	}
}
