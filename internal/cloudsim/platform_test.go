package cloudsim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// testPlatform builds a platform over a single m3.medium/zone-a market
// whose price is $0.01 except for a spike to $0.50 during [1h, 2h).
func testPlatform(t testing.TB, mutate func(*Config)) (*simkit.Scheduler, *Platform) {
	t.Helper()
	tr, err := spotmarket.NewTrace([]spotmarket.Point{
		{T: 0, Price: 0.01},
		{T: simkit.Hour, Price: 0.50},
		{T: 2 * simkit.Hour, Price: 0.01},
	}, 100*simkit.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkit.NewScheduler()
	cfg := Config{
		Traces: spotmarket.Set{
			{Type: cloud.M3Medium, Zone: "zone-a"}: tr,
		},
		Latencies: ZeroOpLatencies(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched, p
}

func launchSpot(t *testing.T, sched *simkit.Scheduler, p *Platform, bid cloud.USD) *cloud.Instance {
	t.Helper()
	var got *cloud.Instance
	p.RequestSpot(cloud.M3Medium, "zone-a", bid, func(inst *cloud.Instance, err error) {
		if err != nil {
			t.Fatalf("spot launch: %v", err)
		}
		got = inst
	})
	sched.RunUntil(sched.Now()) // zero-latency launch fires immediately
	if got == nil {
		t.Fatal("spot launch callback did not fire")
	}
	return got
}

func TestNewRequiresTraces(t *testing.T) {
	if _, err := New(simkit.NewScheduler(), Config{}); err == nil {
		t.Error("platform without traces accepted")
	}
}

func TestOnDemandLifecycleAndCost(t *testing.T) {
	sched, p := testPlatform(t, nil)
	var inst *cloud.Instance
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		inst = i
	})
	sched.RunUntil(0)
	if inst == nil {
		t.Fatal("launch callback did not fire")
	}
	if inst.State != cloud.StateRunning || inst.Market != cloud.MarketOnDemand {
		t.Fatalf("instance = %+v", inst)
	}
	sched.RunUntil(10 * simkit.Hour)
	cost, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(cost)-0.70) > 1e-9 { // 10h * $0.07
		t.Errorf("cost = %v, want $0.70", cost)
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(10 * simkit.Hour)
	if inst.State != cloud.StateTerminated {
		t.Errorf("state = %v after terminate", inst.State)
	}
	// Cost frozen after termination.
	sched.RunUntil(20 * simkit.Hour)
	cost2, _ := p.AccruedCost(inst.ID)
	if cost2 != cost {
		t.Errorf("cost grew after termination: %v -> %v", cost, cost2)
	}
	// Double-terminate is an error.
	if err := p.Terminate(inst.ID, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("double terminate err = %v", err)
	}
}

func TestUnknownTypeAndMarketErrors(t *testing.T) {
	sched, p := testPlatform(t, nil)
	var gotErr error
	p.RunOnDemand("nope", "zone-a", func(_ *cloud.Instance, err error) { gotErr = err })
	if !errors.Is(gotErr, cloud.ErrNotFound) {
		t.Errorf("unknown type err = %v", gotErr)
	}
	p.RequestSpot(cloud.M3Medium, "zone-z", 1, func(_ *cloud.Instance, err error) { gotErr = err })
	if !errors.Is(gotErr, cloud.ErrNotFound) {
		t.Errorf("unknown market err = %v", gotErr)
	}
	if _, err := p.OnDemandPrice("nope"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("OnDemandPrice err = %v", err)
	}
	if _, err := p.SpotPrice(cloud.M3Medium, "zone-z"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("SpotPrice err = %v", err)
	}
	if _, err := p.Instance("i-none"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("Instance err = %v", err)
	}
	if _, err := p.AccruedCost("i-none"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("AccruedCost err = %v", err)
	}
	if err := p.Terminate("i-none", nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("Terminate err = %v", err)
	}
	_ = sched
}

func TestSpotBidTooLow(t *testing.T) {
	_, p := testPlatform(t, nil)
	var gotErr error
	p.RequestSpot(cloud.M3Medium, "zone-a", 0.01, func(_ *cloud.Instance, err error) { gotErr = err })
	if !errors.Is(gotErr, cloud.ErrBidTooLow) {
		t.Errorf("bid at market price err = %v", gotErr)
	}
}

func TestSpotRevocationWarningAndForcedKill(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := launchSpot(t, sched, p, 0.07)

	var warning *cloud.RevocationWarning
	p.OnRevocationWarning(func(w cloud.RevocationWarning) { warning = &w })

	sched.RunUntil(simkit.Hour) // price spikes to 0.50 > bid 0.07
	if warning == nil {
		t.Fatal("no revocation warning at price spike")
	}
	if warning.Instance.ID != inst.ID {
		t.Errorf("warned instance = %v", warning.Instance.ID)
	}
	if window := warning.Deadline - warning.Issued; window != 120*simkit.Second {
		t.Errorf("warning window = %v, want 120s", window)
	}
	if inst.State != cloud.StateWarned {
		t.Errorf("state = %v, want warned", inst.State)
	}
	// Do nothing: platform force-terminates at the deadline.
	sched.RunUntil(simkit.Hour + 120*simkit.Second)
	if inst.State != cloud.StateTerminated {
		t.Errorf("state = %v, want terminated after deadline", inst.State)
	}
	if p.Stats().ForcedTerminations != 1 {
		t.Errorf("forced terminations = %d", p.Stats().ForcedTerminations)
	}
}

func TestVoluntaryTerminationCancelsForcedKill(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := launchSpot(t, sched, p, 0.07)
	var warned bool
	p.OnRevocationWarning(func(cloud.RevocationWarning) { warned = true })
	sched.RunUntil(simkit.Hour)
	if !warned {
		t.Fatal("expected warning")
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(3 * simkit.Hour)
	if inst.State != cloud.StateTerminated {
		t.Fatal("not terminated")
	}
	if p.Stats().ForcedTerminations != 0 {
		t.Errorf("forced terminations = %d, want 0 (terminated voluntarily)", p.Stats().ForcedTerminations)
	}
	if p.Stats().VoluntaryTerminations != 1 {
		t.Errorf("voluntary terminations = %d", p.Stats().VoluntaryTerminations)
	}
}

func TestSpotCostIntegratesMarketPrice(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := launchSpot(t, sched, p, 1.0) // high bid: survives the spike
	sched.RunUntil(3 * simkit.Hour)
	cost, err := p.AccruedCost(inst.ID)
	if err != nil {
		t.Fatal(err)
	}
	// 1h at 0.01 + 1h at 0.50 + 1h at 0.01 = 0.52
	if math.Abs(float64(cost)-0.52) > 1e-9 {
		t.Errorf("spot cost = %v, want $0.52", cost)
	}
}

func TestSpotWarnedImmediatelyIfPriceSpikesDuringLaunch(t *testing.T) {
	sched, p := testPlatform(t, func(c *Config) {
		// Spot launches take 30 minutes so the launch completes inside
		// the [1h,2h) spike window when requested at t=40m.
		c.Latencies = ZeroOpLatencies()
		c.Latencies.StartSpot = simkit.Constant{V: 1800}
	})
	var warned bool
	p.OnRevocationWarning(func(cloud.RevocationWarning) { warned = true })
	sched.RunUntil(40 * simkit.Minute)
	var inst *cloud.Instance
	p.RequestSpot(cloud.M3Medium, "zone-a", 0.07, func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatalf("launch: %v", err)
		}
		inst = i
	})
	sched.RunUntil(70*simkit.Minute + simkit.Second)
	if inst == nil {
		t.Fatal("launch did not complete")
	}
	if !warned {
		t.Error("instance launched into a price spike should be warned immediately")
	}
}

func TestODStockoutInjection(t *testing.T) {
	_, p := testPlatform(t, func(c *Config) { c.ODStockoutProb = 1.0 })
	var gotErr error
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(_ *cloud.Instance, err error) { gotErr = err })
	if !errors.Is(gotErr, cloud.ErrCapacity) {
		t.Errorf("stockout err = %v", gotErr)
	}
	if p.Stats().ODStockouts != 1 {
		t.Errorf("stockouts = %d", p.Stats().ODStockouts)
	}
}

func TestTerminateDuringPendingLaunch(t *testing.T) {
	sched, p := testPlatform(t, func(c *Config) {
		c.Latencies.StartOnDemand = simkit.Constant{V: 60}
	})
	var launchErr error
	var launched *cloud.Instance
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) {
		launched, launchErr = i, err
	})
	// Find the pending instance and terminate it before launch completes.
	inst, err := p.Instance("i-000001")
	if err != nil {
		t.Fatal(err)
	}
	if inst.State != cloud.StatePending {
		t.Fatalf("state = %v, want pending", inst.State)
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(5 * simkit.Minute)
	if launched != nil || !errors.Is(launchErr, cloud.ErrBadState) {
		t.Errorf("launch of terminated instance: inst=%v err=%v", launched, launchErr)
	}
	if cost, _ := p.AccruedCost(inst.ID); cost != 0 {
		t.Errorf("pending instance accrued cost %v", cost)
	}
}

func TestWarningsAreDeterministicallyOrdered(t *testing.T) {
	sched, p := testPlatform(t, nil)
	for i := 0; i < 5; i++ {
		launchSpot(t, sched, p, 0.07)
	}
	var order []cloud.InstanceID
	p.OnRevocationWarning(func(w cloud.RevocationWarning) { order = append(order, w.Instance.ID) })
	sched.RunUntil(simkit.Hour)
	if len(order) != 5 {
		t.Fatalf("%d warnings, want 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("warnings out of ID order: %v", order)
		}
	}
}

func TestCatalogAndZonesAccessors(t *testing.T) {
	_, p := testPlatform(t, nil)
	if len(p.Catalog()) != len(cloud.DefaultCatalog()) {
		t.Error("default catalog not applied")
	}
	if len(p.Zones()) != len(cloud.DefaultZones()) {
		t.Error("default zones not applied")
	}
	if _, ok := p.TypeByName(cloud.M3XLarge); !ok {
		t.Error("m3.xlarge missing")
	}
	if _, ok := p.TypeByName("nope"); ok {
		t.Error("unknown type found")
	}
	price, err := p.SpotPrice(cloud.M3Medium, "zone-a")
	if err != nil || price != 0.01 {
		t.Errorf("SpotPrice = %v, %v", price, err)
	}
	od, err := p.OnDemandPrice(cloud.M3Medium)
	if err != nil || od != 0.07 {
		t.Errorf("OnDemandPrice = %v, %v", od, err)
	}
}

// paddedID must stay byte-identical to the Sprintf it replaced, including
// past the six-digit pad where ids simply grow.
func TestPaddedIDMatchesSprintf(t *testing.T) {
	for _, n := range []int{0, 1, 42, 999_999, 1_000_000, 12_345_678} {
		for _, prefix := range []string{"i-", "vol-"} {
			if got, want := paddedID(prefix, n), fmt.Sprintf(prefix+"%06d", n); got != want {
				t.Errorf("paddedID(%q, %d) = %q, want %q", prefix, n, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = paddedID("i-", 137_681) }); allocs != 1 {
		t.Errorf("paddedID allocates %v times, want 1 (the id itself)", allocs)
	}
}

// platMetrics.billed resolves a market's counter on the first bill — when
// the series first appears — and every later bill is a pointer and an add.
func TestBilledResolvesOnce(t *testing.T) {
	reg := obs.NewRegistry()
	m := newPlatMetrics(reg)
	if _, ok := reg.Snapshot().Value(metricBillingFinal, obs.L("market", "spot")); ok {
		t.Fatal("billing series present before any bill")
	}
	m.billed(cloud.MarketSpot, 0.25)
	m.billed(cloud.MarketOnDemand, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		m.billed(cloud.MarketSpot, 0.25)
		m.billed(cloud.MarketOnDemand, 0.5)
	})
	if allocs != 0 {
		t.Errorf("billed allocates %v times per call pair after first use, want 0", allocs)
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value(metricBillingFinal, obs.L("market", "spot")); v != 0.25*1002 {
		t.Errorf("spot billing counter = %v, want %v", v, 0.25*1002)
	}
	if v, _ := snap.Value(metricBillingFinal, obs.L("market", "on-demand")); v != 1+0.5*1001 {
		t.Errorf("on-demand billing counter = %v, want %v", v, 1+0.5*1001)
	}
}
