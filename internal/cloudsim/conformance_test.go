package cloudsim_test

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/cloudtest"
	"repro/internal/simkit"
)

// The simulated platform must pass the provider conformance suite.
func TestPlatformConformance(t *testing.T) {
	traces := cloudtest.FlatTraces(t, cloud.M3Medium, "zone-a")
	cloudtest.Run(t, cloudtest.Harness{
		New: func(t *testing.T) (cloud.Provider, func()) {
			sched := simkit.NewScheduler()
			p, err := cloudsim.New(sched, cloudsim.Config{
				Traces:    traces,
				Latencies: cloudsim.ZeroOpLatencies(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return p, func() { sched.Run(100000) }
		},
		SpotType: cloud.M3Medium,
		SpotZone: "zone-a",
		LowPrice: 0.02,
		Traces:   traces,
	})
}
