package core

import (
	"testing"

	"repro/internal/simkit"
)

// TestMonitorTickSteadyStateAllocs pins the per-tick allocation fix behind
// the flattened capacity curve: once the price windows are warm and every
// untraced market has answered its one probe, an armed monitor tick — the
// replay of the markets its sweeps read and every sweep — must allocate
// nothing. The market table is built at New and walked in place, samples
// are tick-stamped rather than cleared or copied, window runs reuse their
// buffer, and the tick reschedules itself through a func value bound once.
func TestMonitorTickSteadyStateAllocs(t *testing.T) {
	r := newRig(t, nil, func(c *Config) {
		c.Placement = Policy1PM()
		c.Predictive = true
	})
	for i := 0; i < 4; i++ {
		r.request(t, "alice")
	}
	r.run(t, simkit.Hour)

	c := r.ctrl
	// One real tick: the predictor keeps the tick armed, and on a flat
	// market nothing else is queued within an interval.
	tick := func() {
		fired := c.tick
		r.sched.RunUntil(r.sched.Now() + c.cfg.MonitorInterval)
		if c.tick != fired+1 || !c.monitorEvent.Pending() {
			t.Fatalf("tick %d: armed tick did not fire and re-arm", fired)
		}
	}
	// Warm every steady-state structure: fill each market's trailing price
	// window past its ring capacity, and read it once.
	for i := 0; i < priceWindowCap+8; i++ {
		tick()
	}
	c.Settle()
	if allocs := testing.AllocsPerRun(100, tick); allocs != 0 {
		t.Errorf("steady-state monitor tick allocates %.1f objects/tick, want 0", allocs)
	}
}
