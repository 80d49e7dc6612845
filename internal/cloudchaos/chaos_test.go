package cloudchaos_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/cloudtest"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

func flatPlatform(t *testing.T) (*simkit.Scheduler, *cloudsim.Platform) {
	t.Helper()
	tr, err := spotmarket.NewTrace(
		[]spotmarket.Point{{T: 0, Price: 0.01}}, 10000*simkit.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkit.NewScheduler()
	p, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{
			{Type: cloud.M3Medium, Zone: "zone-a"}: tr,
		},
		Latencies: cloudsim.ZeroOpLatencies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched, p
}

// With no faults configured, the wrapper is transparent: it must pass the
// full provider conformance suite.
func TestChaosTransparentPassesConformance(t *testing.T) {
	traces := cloudtest.FlatTraces(t, cloud.M3Medium, "zone-a")
	cloudtest.Run(t, cloudtest.Harness{
		New: func(t *testing.T) (cloud.Provider, func()) {
			sched := simkit.NewScheduler()
			inner, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Latencies: cloudsim.ZeroOpLatencies()})
			if err != nil {
				t.Fatal(err)
			}
			return cloudchaos.Wrap(inner, sched, cloudchaos.Config{}),
				func() { sched.Run(100000) }
		},
		SpotType: cloud.M3Medium,
		SpotZone: "zone-a",
		LowPrice: 0.02,
		Traces:   traces,
		Replay: func(t *testing.T, sched *simkit.Scheduler, traces spotmarket.Set) (cloud.Provider, func(spotmarket.MarketKey) float64) {
			reg := obs.NewRegistry()
			inner, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Latencies: cloudsim.ZeroOpLatencies(), Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			// Faults on: the wrapper injects none into the price history.
			return cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, Seed: 1}), func(k spotmarket.MarketKey) float64 {
				v, _ := reg.Snapshot().Value("spotcheck_cloudsim_price_ticks_total", obs.L("market", k.String()))
				return v
			}
		},
	})
}

func TestChaosInjectsLaunchFailures(t *testing.T) {
	sched, inner := flatPlatform(t)
	chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, Seed: 1})
	var gotErr error
	chaos.RunOnDemand(cloud.M3Medium, "zone-a", func(_ *cloud.Instance, err error) { gotErr = err })
	sched.Run(1000)
	if !errors.Is(gotErr, cloud.ErrCapacity) {
		t.Errorf("injected error = %v, want ErrCapacity", gotErr)
	}
	if chaos.Injected != 1 {
		t.Errorf("Injected = %d", chaos.Injected)
	}
}

// Injected faults must be distinguishable from organic platform errors:
// both the ErrInjected marker and the operation's organic class
// (ErrCapacity, the retryable launch-failure class) must satisfy
// errors.Is, and ErrBadState must not leak in.
func TestChaosInjectedErrorClasses(t *testing.T) {
	for _, tc := range []struct {
		name   string
		launch func(p *cloudchaos.Provider, cb cloud.InstanceCallback)
	}{
		{"on-demand", func(p *cloudchaos.Provider, cb cloud.InstanceCallback) {
			p.RunOnDemand(cloud.M3Medium, "zone-a", cb)
		}},
		{"spot", func(p *cloudchaos.Provider, cb cloud.InstanceCallback) {
			p.RequestSpot(cloud.M3Medium, "zone-a", 0.10, cb)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, inner := flatPlatform(t)
			chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, Seed: 1})
			var gotErr error
			tc.launch(chaos, func(_ *cloud.Instance, err error) { gotErr = err })
			sched.Run(1000)
			if gotErr == nil {
				t.Fatal("injected launch did not fail")
			}
			if !errors.Is(gotErr, cloudchaos.ErrInjected) {
				t.Errorf("errors.Is(err, ErrInjected) = false for %v", gotErr)
			}
			if !errors.Is(gotErr, cloud.ErrCapacity) {
				t.Errorf("errors.Is(err, ErrCapacity) = false for %v", gotErr)
			}
			if errors.Is(gotErr, cloud.ErrBadState) {
				t.Errorf("injected launch failure wraps ErrBadState: %v", gotErr)
			}
		})
	}
}

// Organic (non-injected) errors must NOT carry the injected marker.
func TestChaosOrganicErrorsNotMarkedInjected(t *testing.T) {
	sched, inner := flatPlatform(t)
	chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{Seed: 1})
	var gotErr error
	chaos.RunOnDemand("no-such-type", "zone-a", func(_ *cloud.Instance, err error) { gotErr = err })
	sched.Run(1000)
	if gotErr == nil {
		t.Fatal("unknown type launch succeeded")
	}
	if errors.Is(gotErr, cloudchaos.ErrInjected) {
		t.Errorf("organic error carries ErrInjected: %v", gotErr)
	}
}

// launchInstance runs one on-demand instance on the inner platform so the
// attach/IP operations have a live target.
func launchInstance(t *testing.T, sched *simkit.Scheduler, p *cloudsim.Platform) *cloud.Instance {
	t.Helper()
	var inst *cloud.Instance
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		inst = i
	})
	sched.Run(100)
	if inst == nil {
		t.Fatal("launch never completed")
	}
	return inst
}

// Regression: the package doc promises randomly failed asynchronous
// operations, but until this test AttachVolume/DetachVolume/AssignIP/
// UnassignIP could only be delayed, never failed. Each must now deliver an
// injected failure wrapping ErrBadState (the platform's organic class for
// attach/plumbing races) alongside the ErrInjected marker — and not
// ErrCapacity, the launch class.
func TestChaosInjectsAsyncOpFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(t *testing.T, chaos *cloudchaos.Provider, sched *simkit.Scheduler, inner *cloudsim.Platform, cb cloud.Callback) error
	}{
		{"attach-volume", func(t *testing.T, chaos *cloudchaos.Provider, sched *simkit.Scheduler, inner *cloudsim.Platform, cb cloud.Callback) error {
			inst := launchInstance(t, sched, inner)
			vol, err := inner.CreateVolume(8)
			if err != nil {
				t.Fatal(err)
			}
			return chaos.AttachVolume(vol.ID, inst.ID, cb)
		}},
		{"detach-volume", func(t *testing.T, chaos *cloudchaos.Provider, sched *simkit.Scheduler, inner *cloudsim.Platform, cb cloud.Callback) error {
			inst := launchInstance(t, sched, inner)
			vol, err := inner.CreateVolume(8)
			if err != nil {
				t.Fatal(err)
			}
			if err := inner.AttachVolume(vol.ID, inst.ID, nil); err != nil {
				t.Fatal(err)
			}
			sched.Run(100)
			return chaos.DetachVolume(vol.ID, cb)
		}},
		{"assign-ip", func(t *testing.T, chaos *cloudchaos.Provider, sched *simkit.Scheduler, inner *cloudsim.Platform, cb cloud.Callback) error {
			inst := launchInstance(t, sched, inner)
			addr, err := inner.AllocateIP()
			if err != nil {
				t.Fatal(err)
			}
			return chaos.AssignIP(inst.ID, addr, cb)
		}},
		{"unassign-ip", func(t *testing.T, chaos *cloudchaos.Provider, sched *simkit.Scheduler, inner *cloudsim.Platform, cb cloud.Callback) error {
			inst := launchInstance(t, sched, inner)
			addr, err := inner.AllocateIP()
			if err != nil {
				t.Fatal(err)
			}
			if err := inner.AssignIP(inst.ID, addr, nil); err != nil {
				t.Fatal(err)
			}
			sched.Run(100)
			return chaos.UnassignIP(inst.ID, addr, cb)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched, inner := flatPlatform(t)
			chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, Seed: 3})
			var gotErr error
			calls := 0
			syncErr := tc.call(t, chaos, sched, inner, func(err error) {
				calls++
				gotErr = err
			})
			if syncErr != nil {
				t.Fatalf("synchronous error from injected op: %v", syncErr)
			}
			sched.Run(1000)
			if calls != 1 {
				t.Fatalf("callback fired %d times, want exactly once", calls)
			}
			if gotErr == nil {
				t.Fatal("injected async op did not fail")
			}
			if !errors.Is(gotErr, cloudchaos.ErrInjected) {
				t.Errorf("errors.Is(err, ErrInjected) = false for %v", gotErr)
			}
			if !errors.Is(gotErr, cloud.ErrBadState) {
				t.Errorf("errors.Is(err, ErrBadState) = false for %v", gotErr)
			}
			if errors.Is(gotErr, cloud.ErrCapacity) {
				t.Errorf("injected plumbing failure wraps the launch class ErrCapacity: %v", gotErr)
			}
			if chaos.Injected == 0 {
				t.Error("Injected counter not bumped")
			}
		})
	}
}

// With no fault drawn, the wrapped async ops stay transparent: organic
// synchronous errors surface synchronously and no callback fires — exactly
// one delivery per logical operation (the double-callback guard).
func TestChaosAsyncOpSingleDelivery(t *testing.T) {
	sched, inner := flatPlatform(t)

	// FailProb 0: a bad volume ID errors synchronously, callback silent.
	calm := cloudchaos.Wrap(inner, sched, cloudchaos.Config{Seed: 4})
	calls := 0
	err := calm.DetachVolume("vol-nope", func(error) { calls++ })
	sched.Run(1000)
	if err == nil {
		t.Error("organic synchronous error swallowed")
	} else if errors.Is(err, cloudchaos.ErrInjected) {
		t.Errorf("organic error carries ErrInjected: %v", err)
	}
	if calls != 0 {
		t.Errorf("callback fired %d times alongside a synchronous error", calls)
	}

	// FailProb 1: the same bad call is consumed by injection — the inner
	// provider is never invoked, so the caller sees exactly one failure
	// (the injected callback), never both.
	chaotic := cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, Seed: 4})
	calls = 0
	err = chaotic.DetachVolume("vol-nope", func(err error) {
		calls++
		if !errors.Is(err, cloudchaos.ErrInjected) {
			t.Errorf("callback error = %v, want injected", err)
		}
	})
	sched.Run(1000)
	if err != nil {
		t.Errorf("injected op also returned a synchronous error: %v", err)
	}
	if calls != 1 {
		t.Errorf("callback fired %d times, want exactly once", calls)
	}
}

// Regression: delay computed rng.Int63n(int64(ExtraLatency)+1), which
// overflows to a negative bound and panics when ExtraLatency is MaxInt64.
func TestChaosDelayOverflowClamped(t *testing.T) {
	sched, inner := flatPlatform(t)
	chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{
		ExtraLatency: simkit.Time(math.MaxInt64),
		Seed:         5,
	})
	fired := false
	chaos.RunOnDemand(cloud.M3Medium, "zone-a", func(_ *cloud.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		fired = true
	})
	// Drawing the delay must not panic; the completion lands at whatever
	// far-future instant was drawn.
	sched.Run(1000)
	if !fired {
		t.Error("completion lost under maximal extra latency")
	}
}

// Regression: injected faults were invisible to observability — only the
// plain Injected int recorded them. With a registry configured, every
// injection lands in spotcheck_chaos_injected_total labelled by operation.
func TestChaosInjectedCounter(t *testing.T) {
	sched, inner := flatPlatform(t)
	reg := obs.NewRegistry()
	chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, Seed: 6, Metrics: reg})

	chaos.RunOnDemand(cloud.M3Medium, "zone-a", func(*cloud.Instance, error) {})
	chaos.RequestSpot(cloud.M3Medium, "zone-a", 0.10, func(*cloud.Instance, error) {})
	inst := launchInstance(t, sched, inner)
	addr, err := inner.AllocateIP()
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.AssignIP(inst.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	sched.Run(1000)

	snap := reg.Snapshot()
	for _, op := range []string{"run_on_demand", "request_spot", "assign_ip"} {
		if v, ok := snap.Value("spotcheck_chaos_injected_total", obs.L("op", op)); !ok || v != 1 {
			t.Errorf("spotcheck_chaos_injected_total{op=%q} = %v (present=%v), want 1", op, v, ok)
		}
	}
	if got := reg.Total("spotcheck_chaos_injected_total"); got != 3 {
		t.Errorf("total injected series sum = %v, want 3", got)
	}
	if chaos.Injected != 3 {
		t.Errorf("Injected field = %d, want 3 (kept for compatibility)", chaos.Injected)
	}
}

func TestChaosDelaysCompletions(t *testing.T) {
	sched, inner := flatPlatform(t)
	chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{ExtraLatency: simkit.Minute, Seed: 2})
	var doneAt simkit.Time
	fired := false
	chaos.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		doneAt = sched.Now()
		fired = true
	})
	sched.Run(1000)
	if !fired {
		t.Fatal("callback lost")
	}
	if doneAt == 0 {
		t.Skip("zero delay drawn; acceptable")
	}
	if doneAt > simkit.Minute {
		t.Errorf("delay %v exceeds the configured bound", doneAt)
	}
}

// The controller must survive a chaotic platform: slow, flaky launches
// during revocations may delay recovery but never lose VM state or break
// bookkeeping.
func TestControllerSurvivesChaos(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		tr, err := spotmarket.NewTrace([]spotmarket.Point{
			{T: 0, Price: 0.01},
			{T: 10 * simkit.Hour, Price: 0.50},
			{T: 11 * simkit.Hour, Price: 0.01},
			{T: 30 * simkit.Hour, Price: 0.50},
			{T: 31 * simkit.Hour, Price: 0.01},
		}, 100*simkit.Hour)
		if err != nil {
			t.Fatal(err)
		}
		sched := simkit.NewScheduler()
		inner, err := cloudsim.New(sched, cloudsim.Config{
			Traces: spotmarket.Set{
				{Type: cloud.M3Medium, Zone: "zone-a"}: tr,
			},
			Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{
			FailProb:     0.3,
			ExtraLatency: 30 * simkit.Second,
			Seed:         seed,
		})
		ctrl, err := core.New(core.Config{
			Scheduler: sched,
			Provider:  chaos,
			Mechanism: migration.SpotCheckLazy,
			Placement: core.Policy1PM(),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, err := ctrl.RequestServer("alice", cloud.M3Medium); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunUntil(100 * simkit.Hour)
		rep := ctrl.Report()
		if rep.Stats.VMsLostMemoryState != 0 {
			t.Errorf("seed %d: lost state under chaos", seed)
		}
		if chaos.Injected == 0 {
			t.Errorf("seed %d: chaos never fired", seed)
		}
		running := 0
		for _, info := range ctrl.ListVMs() {
			if info.Phase == "running" {
				running++
			}
		}
		if running != 4 {
			t.Errorf("seed %d: %d of 4 VMs running at the end", seed, running)
		}
		if rep.Availability < 0.95 {
			t.Errorf("seed %d: availability %v collapsed under chaos", seed, rep.Availability)
		}
	}
}

// Each operation's injected error is built once and handed out again: it
// still wraps both ErrInjected and the operation's organic class, its text is
// what the per-injection fmt.Errorf used to print, and on a warm provider an
// injected failure — decision, delay draw, scheduled delivery — allocates
// nothing.
func TestChaosInjectedErrorsPrebuilt(t *testing.T) {
	sched, inner := flatPlatform(t)
	chaos := cloudchaos.Wrap(inner, sched, cloudchaos.Config{FailProb: 1, ExtraLatency: simkit.Second, Seed: 3})
	var got error
	icb := func(_ *cloud.Instance, err error) { got = err }
	cb := func(err error) { got = err }
	addr, _ := inner.AllocateIP()
	ops := []struct {
		call    func()
		organic error
		text    string
	}{
		{func() { chaos.RunOnDemand(cloud.M3Medium, "zone-a", icb) }, cloud.ErrCapacity, "launch m3.medium: "},
		{func() { chaos.RequestSpot(cloud.M3Medium, "zone-a", 1, icb) }, cloud.ErrCapacity, "spot m3.medium: "},
		{func() { _ = chaos.AttachVolume("vol-000001", "i-000001", cb) }, cloud.ErrBadState, "attach-vol: "},
		{func() { _ = chaos.DetachVolume("vol-000001", cb) }, cloud.ErrBadState, "detach-vol: "},
		{func() { _ = chaos.AssignIP("i-000001", addr, cb) }, cloud.ErrBadState, "assign-ip: "},
		{func() { _ = chaos.UnassignIP("i-000001", addr, cb) }, cloud.ErrBadState, "unassign-ip: "},
	}
	for _, op := range ops {
		got = nil
		op.call()
		sched.Run(10)
		want := op.text + cloudchaos.ErrInjected.Error() + ": " + op.organic.Error()
		if got == nil || got.Error() != want {
			t.Errorf("injected error text = %q, want %q", got, want)
		}
		if !errors.Is(got, cloudchaos.ErrInjected) || !errors.Is(got, op.organic) {
			t.Errorf("%v: lost ErrInjected or its organic class %v", got, op.organic)
		}
		first := got
		allocs := testing.AllocsPerRun(100, func() {
			op.call()
			sched.Run(10)
		})
		if allocs != 0 {
			t.Errorf("%sinjected failure allocates %v times on a warm provider, want 0", op.text, allocs)
		}
		if got != first {
			t.Errorf("%sinjected error rebuilt between injections", op.text)
		}
	}
}
