package core

import (
	"testing"

	"repro/internal/simkit"
)

// TestShutdownStopsMonitor pins the monitor's cancel path: Shutdown must
// cancel the pending tick and stop the loop rescheduling itself. Before the
// fix the monitor self-scheduled forever, so a post-Shutdown Run(limit)
// never drained. The predictor keeps the tick armed, so there is a pending
// one to cancel; ticks are read after Stats has settled them.
func TestShutdownStopsMonitor(t *testing.T) {
	r := newRig(t, nil, func(c *Config) { c.Predictive = true })
	r.request(t, "alice")
	r.run(t, 30*simkit.Minute)

	if !r.ctrl.monitorEvent.Pending() {
		t.Fatal("predictive run has no tick armed")
	}
	r.ctrl.Stats()
	ticksBefore := r.ctrl.met.monitorTick.Value()
	if ticksBefore != 30 {
		t.Fatalf("monitor ticked %v times in 30 minutes, want 30", ticksBefore)
	}
	r.ctrl.Shutdown()
	if r.ctrl.monitorEvent.Pending() {
		t.Error("Shutdown left a monitor tick pending")
	}
	// Drain everything left in the queue. With the monitor still
	// rescheduling, this would exceed the event limit and panic.
	r.sched.Run(100_000)
	if r.sched.Pending() != 0 {
		t.Errorf("queue not drained after shutdown: %d events pending", r.sched.Pending())
	}
	r.ctrl.Stats()
	if got := r.ctrl.met.monitorTick.Value(); got != ticksBefore {
		t.Errorf("monitor ticked %v times after shutdown", got-ticksBefore)
	}
}

// TestShutdownIsIdempotent double-Shutdown must not panic or double-cancel.
func TestShutdownIsIdempotent(t *testing.T) {
	r := newRig(t, nil, nil)
	r.request(t, "bob")
	r.run(t, 10*simkit.Minute)
	r.ctrl.Shutdown()
	r.ctrl.Shutdown()
	r.sched.Run(100_000)
}
