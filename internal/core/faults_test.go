package core

import (
	"fmt"
	"net/netip"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// flakyProvider wraps a provider and fails the first N AssignIP calls —
// exercising the controller's install-abort-and-retry path.
type flakyProvider struct {
	cloud.Provider
	failAssigns int
	assignCalls int
}

func (f *flakyProvider) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	f.assignCalls++
	if f.assignCalls <= f.failAssigns {
		return fmt.Errorf("flaky: %w", cloud.ErrBadState)
	}
	return f.Provider.AssignIP(inst, addr, cb)
}

func TestInstallRetriesAfterAssignFailure(t *testing.T) {
	tr := makeTrace(t, 0.01, testEnd)
	sched := simkit.NewScheduler()
	inner, err := cloudsim.New(sched, cloudsim.Config{
		Traces:    spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: tr},
		Latencies: cloudsim.ZeroOpLatencies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyProvider{Provider: inner, failAssigns: 2}
	ctrl, err := New(Config{
		Scheduler: sched, Provider: flaky,
		Mechanism: migration.SpotCheckLazy, Placement: Policy1PM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ctrl.RequestServer("alice", cloud.M3Medium)
	if err != nil {
		t.Fatal(err)
	}
	// Two failed installs, each retried after the monitor interval.
	sched.RunUntil(10 * simkit.Minute)
	info, _ := ctrl.DescribeVM(id)
	if info.Phase != "running" {
		t.Fatalf("VM never recovered from install failures: %+v", info)
	}
	if flaky.assignCalls < 3 {
		t.Errorf("assign calls = %d, want the two failures plus a success", flaky.assignCalls)
	}
	if info.IP == "" {
		t.Error("VM has no address after recovery")
	}
}

// A failed installation gives back everything the attempt took, the volume it
// created included: however many attempts a flaky control plane costs, the
// platform ends up with exactly one volume per VM.
func TestFailedInstallsLeakNoVolumes(t *testing.T) {
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd)},
		Seed:   25,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := newLedger(plat)
	chaos := cloudchaos.Wrap(held, sched, cloudchaos.Config{FailProb: 0.25, ExtraLatency: 30 * simkit.Second, Seed: 25})
	ctrl, err := New(Config{
		Scheduler: sched, Provider: chaos,
		Mechanism: migration.SpotCheckLazy, Placement: Policy1PM(), Seed: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	const vms = 200
	for i := 0; i < vms; i++ {
		if _, err := ctrl.RequestServer("flaky", cloud.M3Medium); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntil(6 * simkit.Hour)
	running := 0
	for _, info := range ctrl.ListVMs() {
		if info.Phase == "running" {
			running++
		}
	}
	if running != vms || chaos.Injected < vms/4 {
		t.Fatalf("%d of %d VMs running after %d injected faults: the cell does not exercise the retry", running, vms, chaos.Injected)
	}
	if n := len(held.volumes); n != vms {
		t.Errorf("%d volumes on the platform for %d VMs after %d injected faults", n, vms, chaos.Injected)
	}
}

func TestVPCExhaustionParksRequests(t *testing.T) {
	tr := makeTrace(t, 0.01, testEnd)
	sched := simkit.NewScheduler()
	// A /30 leaves zero usable addresses after the reserved block: every
	// allocation fails.
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces:    spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: tr},
		Latencies: cloudsim.ZeroOpLatencies(),
		VPC:       netip.MustParsePrefix("10.0.0.0/30"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{
		Scheduler: sched, Provider: plat,
		Mechanism: migration.SpotCheckLazy, Placement: Policy1PM(),
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ctrl.RequestServer("alice", cloud.M3Medium)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(10 * simkit.Minute)
	info, _ := ctrl.DescribeVM(id)
	if info.Phase == "running" {
		t.Fatal("VM ran without any address available")
	}
	// The controller keeps retrying without crashing or leaking hosts.
	sched.RunUntil(simkit.Hour)
	if info, _ = ctrl.DescribeVM(id); info.Phase != "provisioning" {
		t.Errorf("phase = %s, want provisioning (parked on exhausted VPC)", info.Phase)
	}
}

// A staging destination that is warned while the displaced VM is still in
// flight: the VM lands, notices, and immediately evacuates again.
func TestDestinationWarnedMidMigration(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
		// The staging pool spikes seconds later, while the first
		// migration's flush is still draining.
		{Type: cloud.M3Large, Zone: "zone-a"}: makeTrace(t, 0.02, testEnd,
			spike{at: 10*simkit.Hour + 10*simkit.Second, dur: simkit.Hour, price: 0.90}),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Destination = DestStaging
		c.Placement = Policy2PML()
		c.ReturnHoldDown = 100 * simkit.Hour
	})
	a := r.request(t, "alice") // medium pool (revoked first)
	b := r.request(t, "bob")   // large pool (staging slot, revoked second)
	r.run(t, 11*simkit.Hour)

	for _, id := range []nestedvm.ID{a, b} {
		info, _ := r.ctrl.DescribeVM(id)
		if info.Phase != "running" {
			t.Errorf("%s phase = %s", id, info.Phase)
		}
		if info.Market != "on-demand" {
			t.Errorf("%s market = %s, want on-demand (both pools spiked)", id, info.Market)
		}
	}
	if r.ctrl.Stats().VMsLostMemoryState != 0 {
		t.Error("state lost despite checkpoints")
	}
	auditController(t, r.ctrl, r.ctrl.cfg.Mechanism)
}

// A staging destination force-terminated before a slow (Yank) restore
// completes: the VM must restore from its checkpoint onto a fresh host
// instead of "running" on a corpse.
func TestDestinationDiesMidMigration(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
		{Type: cloud.M3Large, Zone: "zone-a"}: makeTrace(t, 0.02, testEnd,
			spike{at: 10*simkit.Hour + 5*simkit.Second, dur: simkit.Hour, price: 0.90}),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Mechanism = migration.UnoptimizedFull // 30 s flush + ~100 s restore
		c.Destination = DestStaging
		c.Placement = Policy2PML()
		c.ReturnHoldDown = 100 * simkit.Hour
	})
	a := r.request(t, "alice")
	r.request(t, "bob")
	r.run(t, 11*simkit.Hour)

	info, _ := r.ctrl.DescribeVM(a)
	if info.Phase != "running" {
		t.Fatalf("VM did not recover: %+v", info)
	}
	vs := r.ctrl.lookupVM(a)
	if vs.host.inst.State == cloud.StateTerminated {
		t.Fatal("VM running on a terminated host")
	}
	if r.ctrl.Stats().VMsLostMemoryState != 0 {
		t.Error("bounded-time migration lost state despite the checkpoint")
	}
	auditController(t, r.ctrl, r.ctrl.cfg.Mechanism)
}
