package experiments

import (
	"testing"
	"time"

	"repro/internal/simkit"
)

// scaleFootprintBytesPerVM is the live heap per VM the footprint rung keeps
// at its horizon (2 000 VMs, 1.5 months, seed 42; amd64).
const scaleFootprintBytesPerVM = 2688

// TestScaleFootprint runs a small rung of the scale experiment and fails
// when its live heap per VM grows more than 5% past the recorded figure: a
// record that grows a field, or a structure that keeps what the run no
// longer needs, shows here before the 10k rung's peak RSS moves. The race
// runtime's shadow memory and allocation changes skew the heap, so -race
// builds skip it.
func TestScaleFootprint(t *testing.T) {
	if raceBuild {
		t.Skip("the race runtime changes what the heap holds")
	}
	res, err := RunScale(ScaleConfig{
		VMs:     2000,
		Horizon: 45 * simkit.Day,
		Seed:    42,
		Clock:   func() int64 { return time.Now().UnixNano() },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f bytes/VM live at the horizon (%d bytes)", res.BytesPerVM, res.LiveHeapBytes)
	if limit := scaleFootprintBytesPerVM * 1.05; res.BytesPerVM > limit {
		t.Errorf("%.0f bytes/VM, more than 5%% above the recorded %d", res.BytesPerVM, scaleFootprintBytesPerVM)
	}
}
