package experiments

import "testing"

func TestAblationBillingEffects(t *testing.T) {
	res, err := NewSession(0).ablationBilling(8, shortHorizon, 42)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContinuousCostPerHour <= 0 || res.HourlyCostPerHour <= 0 {
		t.Fatalf("degenerate costs: %+v", res)
	}
	// Hourly billing should land within a sane band of continuous: started
	// hours round up (more), reclaimed partial hours are free (less).
	if res.DeltaPct < -30 || res.DeltaPct > 30 {
		t.Errorf("billing delta = %+.1f%%, implausibly large", res.DeltaPct)
	}
}
