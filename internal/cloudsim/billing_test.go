package cloudsim

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// billingPlatform sets up period (hourly) billing over the standard step
// trace ($0.01, spiking to $0.50 during [1h, 2h)).
func billingPlatform(t *testing.T) (*simkit.Scheduler, *Platform) {
	t.Helper()
	return testPlatform(t, func(c *Config) {
		c.BillingIncrement = simkit.Hour
	})
}

func TestHourlyBillingOnDemandRoundsUp(t *testing.T) {
	sched, p := billingPlatform(t)
	var inst *cloud.Instance
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) { inst = i })
	sched.RunUntil(0)
	// Run 2.5 hours then terminate: three started hours are charged.
	sched.RunUntil(150 * simkit.Minute)
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(3 * simkit.Hour)
	cost, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(cost)-3*0.07) > 1e-9 {
		t.Errorf("cost = %v, want 3 full hours ($0.21)", cost)
	}
}

func TestHourlyBillingSpotUsesHourStartPrice(t *testing.T) {
	sched, p := billingPlatform(t)
	var inst *cloud.Instance
	p.RequestSpot(cloud.M3Medium, "zone-a", 1.0, func(i *cloud.Instance, err error) { inst = i })
	sched.RunUntil(0)
	// Survives the spike (bid $1). After 3 hours: hour 0 @0.01, hour 1
	// @0.50 (price at hour start), hour 2 @0.01.
	sched.RunUntil(3 * simkit.Hour)
	cost, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(cost)-0.52) > 1e-9 {
		t.Errorf("cost = %v, want $0.52 (0.01 + 0.50 + 0.01)", cost)
	}
}

// Amazon's 2015 rule: if the platform reclaims a spot instance, the
// interrupted partial hour is free.
func TestHourlyBillingReclaimedPartialHourFree(t *testing.T) {
	sched, p := billingPlatform(t)
	var inst *cloud.Instance
	p.RequestSpot(cloud.M3Medium, "zone-a", 0.07, func(i *cloud.Instance, err error) { inst = i })
	sched.RunUntil(0)
	// The spike at 1h revokes (bid 0.07 < 0.50); forced kill at 1h02m.
	sched.RunUntil(90 * simkit.Minute)
	if inst.State != cloud.StateTerminated {
		t.Fatal("instance not reclaimed")
	}
	cost, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Hour 0 charged at $0.01; the interrupted second hour is free.
	if math.Abs(float64(cost)-0.01) > 1e-9 {
		t.Errorf("cost = %v, want $0.01 (partial reclaimed hour free)", cost)
	}
}

// A voluntary termination pays for its started partial hour.
func TestHourlyBillingVoluntaryPartialHourCharged(t *testing.T) {
	sched, p := billingPlatform(t)
	var inst *cloud.Instance
	p.RequestSpot(cloud.M3Medium, "zone-a", 1.0, func(i *cloud.Instance, err error) { inst = i })
	sched.RunUntil(0)
	sched.RunUntil(30 * simkit.Minute)
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(simkit.Hour)
	cost, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(cost)-0.01) > 1e-9 {
		t.Errorf("cost = %v, want one full hour at $0.01", cost)
	}
}

func TestContinuousBillingUnchangedByDefault(t *testing.T) {
	sched, p := testPlatform(t, nil) // BillingIncrement zero
	var inst *cloud.Instance
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) { inst = i })
	sched.RunUntil(0)
	sched.RunUntil(30 * simkit.Minute)
	cost, _ := p.AccruedCost(inst.ID)
	if math.Abs(float64(cost)-0.035) > 1e-9 {
		t.Errorf("continuous cost = %v, want $0.035 (half an hour)", cost)
	}
}

// TestSpotBillMatchesSegmentWalk holds the prefix-integral bill to the
// oracle it replaced: for seeded random overlapping lifetimes on a
// high-volatility trace, AccruedCost equals Trace.Integrate(Launched, end)
// to 1e-12 relative — read from the live ledger entry while the instance
// runs, and from the retained final bill once termination has recycled the
// entry.
func TestSpotBillMatchesSegmentWalk(t *testing.T) {
	const horizon, vms = 60 * simkit.Day, 40
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		tr, err := spotmarket.Generate(spotmarket.DefaultConfig(0.07, spotmarket.VolatilityHigh), horizon, r)
		if err != nil {
			t.Fatal(err)
		}
		sched := simkit.NewScheduler()
		p, err := New(sched, Config{
			Traces:    spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: tr},
			Latencies: ZeroOpLatencies(),
		})
		if err != nil {
			t.Fatal(err)
		}
		type step struct {
			at     simkit.Time
			vm     int
			launch bool
		}
		var steps []step
		for vm := 0; vm < vms; vm++ {
			a := simkit.Time(r.Int63n(int64(horizon - simkit.Hour)))
			b := a + 1 + simkit.Time(r.Int63n(int64(horizon-simkit.Hour-a)))
			steps = append(steps, step{a, vm, true}, step{b, vm, false})
		}
		sort.Slice(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
		check := func(inst *cloud.Instance, end simkit.Time) {
			t.Helper()
			got, err := p.AccruedCost(inst.ID)
			if err != nil {
				t.Fatal(err)
			}
			want := tr.Integrate(inst.Launched, end)
			if math.Abs(float64(got-want)) > 1e-12*float64(want) {
				t.Errorf("seed %d %s [%v, %v): bill %v, segment walk %v", seed, inst.ID, inst.Launched, end, got, want)
			}
		}
		insts := make([]*cloud.Instance, vms)
		for _, s := range steps {
			sched.RunUntil(s.at)
			if s.launch {
				insts[s.vm] = launchSpot(t, sched, p, 1000) // outbids every spike
				continue
			}
			inst := insts[s.vm]
			check(inst, s.at)
			if err := p.Terminate(inst.ID, nil); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunUntil(horizon)
		for _, inst := range insts {
			if _, err := p.Instance(inst.ID); !errors.Is(err, cloud.ErrNotFound) {
				t.Fatalf("%s still has a ledger entry: %v", inst.ID, err)
			}
			check(inst, inst.Ended)
		}
	}
}
