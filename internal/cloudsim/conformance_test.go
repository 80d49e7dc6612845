package cloudsim_test

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/cloudtest"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
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
		Replay: func(t *testing.T, sched *simkit.Scheduler, traces spotmarket.Set) (cloud.Provider, func(spotmarket.MarketKey) float64) {
			return replayPlatform(t, sched, traces)
		},
		Revoking: func(t *testing.T, sched *simkit.Scheduler, traces spotmarket.Set) cloud.Provider {
			p, _ := replayPlatform(t, sched, traces)
			return p
		},
	})
}

// replayPlatform builds a platform over traces with its metrics on, and the
// reader of one market's spotcheck_cloudsim_price_ticks_total.
func replayPlatform(t *testing.T, sched *simkit.Scheduler, traces spotmarket.Set) (*cloudsim.Platform, func(spotmarket.MarketKey) float64) {
	t.Helper()
	reg := obs.NewRegistry()
	p, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Latencies: cloudsim.ZeroOpLatencies(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return p, func(k spotmarket.MarketKey) float64 {
		v, _ := reg.Snapshot().Value("spotcheck_cloudsim_price_ticks_total", obs.L("market", k.String()))
		return v
	}
}
