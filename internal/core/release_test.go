package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// ledgerProvider keeps, from the outcome of the controller's own calls, what
// the controller holds at the platform: the volumes it created and has not
// deleted, the addresses it allocated and has not released.
type ledgerProvider struct {
	cloud.Provider
	volumes map[cloud.VolumeID]bool
	addrs   map[cloud.Addr]bool
}

func newLedger(p cloud.Provider) *ledgerProvider {
	return &ledgerProvider{Provider: p, volumes: map[cloud.VolumeID]bool{}, addrs: map[cloud.Addr]bool{}}
}

func (l *ledgerProvider) CreateVolume(sizeGB int) (*cloud.Volume, error) {
	v, err := l.Provider.CreateVolume(sizeGB)
	if err == nil {
		l.volumes[v.ID] = true
	}
	return v, err
}

func (l *ledgerProvider) DeleteVolume(id cloud.VolumeID) error {
	err := l.Provider.DeleteVolume(id)
	if err == nil {
		delete(l.volumes, id)
	}
	return err
}

func (l *ledgerProvider) AllocateIP() (cloud.Addr, error) {
	a, err := l.Provider.AllocateIP()
	if err == nil {
		l.addrs[a] = true
	}
	return a, err
}

func (l *ledgerProvider) ReleaseIP(a cloud.Addr) error {
	err := l.Provider.ReleaseIP(a)
	if err == nil {
		delete(l.addrs, a)
	}
	return err
}

// latentRig is a controller on a platform with the default (Table 1)
// operation latencies, behind a provider that can refuse the first AssignIP:
// what a new VM's chain looks like when its steps take time.
type latentRig struct {
	sched *simkit.Scheduler
	held  *ledgerProvider // what the controller holds at the platform
	prov  *flakyProvider
	ctrl  *Controller
}

func newLatentRig(t *testing.T, failAssigns int, mutate func(*Config)) *latentRig {
	t.Helper()
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces: spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd)},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	held := newLedger(plat)
	prov := &flakyProvider{Provider: held, failAssigns: failAssigns}
	cfg := Config{
		Scheduler: sched, Provider: prov,
		Mechanism: migration.SpotCheckLazy, Placement: Policy1PM(),
		Trace: obs.NewTrace(0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &latentRig{sched: sched, held: held, prov: prov, ctrl: ctrl}
}

// stepUntil fires events one at a time until cond holds.
func (r *latentRig) stepUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	limit := r.sched.Now() + simkit.Hour
	for !cond() {
		if !r.sched.Step() || r.sched.Now() > limit {
			t.Fatalf("never reached %q", what)
		}
	}
}

// idleHosts lists the running hosts that serve nothing and hold nothing:
// server time rented for nobody.
func idleHosts(c *Controller) []*hostState {
	var idle []*hostState
	for inst := range c.hostIndex {
		h := c.lookupHost(inst)
		if h != nil && h.role == roleHost && h.inst.State == cloud.StateRunning && len(h.vms)+h.reserved+h.pinned == 0 {
			idle = append(idle, h)
		}
	}
	return idle
}

// A new VM released at any resting point of its chain — before it has a
// host, while its address or its volume is on its way, the instant it lands
// — leaves nothing behind on the platform: no volume, no address, no rented
// host (a backup host whose launch outlives its server included), and a bill
// that stops growing. Every case fails on the commit before the chain took
// over the release.
func TestReleaseDuringInstallLeavesNothing(t *testing.T) {
	points := []struct {
		name        string
		failAssigns int
		reached     func(r *latentRig, id nestedvm.ID) bool
	}{
		{"host-launch", 0, func(r *latentRig, _ nestedvm.ID) bool { return true }},
		{"parked-on-retry", 1, func(r *latentRig, _ nestedvm.ID) bool { return r.prov.assignCalls == 1 }},
		{"address-in-flight", 0, func(r *latentRig, _ nestedvm.ID) bool { return r.prov.assignCalls == 1 }},
		{"volume-in-flight", 0, func(r *latentRig, _ nestedvm.ID) bool { return len(r.held.volumes) == 1 }},
		{"lands", 0, func(r *latentRig, id nestedvm.ID) bool {
			info, _ := r.ctrl.DescribeVM(id)
			return info.Phase == "running"
		}},
	}
	for _, recycle := range []bool{false, true} {
		for _, pt := range points {
			t.Run(fmt.Sprintf("%s/recycle=%v", pt.name, recycle), func(t *testing.T) {
				r := newLatentRig(t, pt.failAssigns, func(c *Config) { c.RecycleReleased = recycle })
				c := r.ctrl
				id, err := c.RequestServer("alice", cloud.M3Medium)
				if err != nil {
					t.Fatal(err)
				}
				r.stepUntil(t, pt.name, func() bool { return pt.reached(r, id) })
				if err := c.ReleaseServer(id); err != nil {
					t.Fatalf("release at %v: %v", r.sched.Now(), err)
				}
				if err := c.ReleaseServer(id); err == nil {
					t.Error("second release of the same VM accepted")
				}
				r.sched.RunUntil(r.sched.Now() + simkit.Hour)

				if len(r.held.volumes) != 0 || len(r.held.addrs) != 0 {
					t.Errorf("left on the platform: volumes %v, addresses %v", r.held.volumes, r.held.addrs)
				}
				for _, rt := range c.rentals { // a settled entry's instance is gone
					if rt.inst != nil && len(rt.inst.IPs) != 0 {
						t.Errorf("instance %s still carries %v", rt.inst.ID, rt.inst.IPs)
					}
				}
				for _, h := range idleHosts(c) {
					t.Errorf("host %s is rented for nobody", h.inst.ID)
				}
				if recycle {
					if c.lookupVM(id) != nil || c.vmSlab.Len() != 0 {
						t.Errorf("VM slot not freed: %d live", c.vmSlab.Len())
					}
				} else if info, _ := c.DescribeVM(id); info.Phase != "released" {
					t.Errorf("phase %q an hour after the release, want released", info.Phase)
				}
				cost := c.Report().TotalCost
				r.sched.RunUntil(r.sched.Now() + simkit.Day)
				if later := c.Report().TotalCost; later != cost {
					t.Errorf("bill still growing a day after the release: %v -> %v", cost, later)
				}

				// The platform is as a first request would find it: the next VM
				// is placed in one go.
				assigns, fails := r.prov.assignCalls, c.Stats().DestinationFailures
				id2, err := c.RequestServer("bob", cloud.M3Medium)
				if err != nil {
					t.Fatal(err)
				}
				r.sched.RunUntil(r.sched.Now() + 10*simkit.Minute)
				if info, _ := c.DescribeVM(id2); info.Phase != "running" {
					t.Errorf("second VM is %q ten minutes after its request", info.Phase)
				}
				if n := r.prov.assignCalls - assigns; n != 1 || c.Stats().DestinationFailures != fails {
					t.Errorf("second VM needed %d address assigns and %d destination failures, want one and none",
						n, c.Stats().DestinationFailures-fails)
				}
			})
		}
	}
}

// Shutdown releases new VMs the same way: whatever their chain was doing, an
// hour later nothing is rented and nothing is left on the platform.
func TestShutdownDuringInstallLeavesNothing(t *testing.T) {
	r := newLatentRig(t, 0, nil)
	c := r.ctrl
	for i := 0; i < 3; i++ {
		if _, err := c.RequestServer("alice", cloud.M3Medium); err != nil {
			t.Fatal(err)
		}
	}
	r.stepUntil(t, "first address assign", func() bool { return r.prov.assignCalls == 1 })
	if _, err := c.RequestServer("late", cloud.M3Medium); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	r.sched.RunUntil(r.sched.Now() + simkit.Hour)
	if len(r.held.volumes) != 0 || len(r.held.addrs) != 0 {
		t.Errorf("left on the platform: volumes %v, addresses %v", r.held.volumes, r.held.addrs)
	}
	for _, rt := range c.rentals { // a settled entry's instance is gone
		if rt.inst != nil && rt.inst.State != cloud.StateTerminated {
			t.Errorf("instance %s still %v", rt.inst.ID, rt.inst.State)
		}
	}
	for _, info := range c.ListVMs() {
		if info.Phase != "released" {
			t.Errorf("%s is %q after shutdown", info.ID, info.Phase)
		}
	}
}

// A VM whose host is warned while it installs lands on a warned host and is
// evacuated at once; its timeline says why.
func TestWarnedDuringInstallIsOnTheTimeline(t *testing.T) {
	r := newLatentRig(t, 0, nil)
	c := r.ctrl
	id, err := c.RequestServer("alice", cloud.M3Medium)
	if err != nil {
		t.Fatal(err)
	}
	r.stepUntil(t, "address assign", func() bool { return r.prov.assignCalls == 1 })
	for _, rt := range c.rentals { // the one host there is
		c.onRevocationWarning(cloud.RevocationWarning{Instance: rt.inst, Price: 1, Deadline: r.sched.Now() + 2*simkit.Minute})
	}
	r.stepUntil(t, "landing", func() bool { return c.lookupVM(id).phase != phaseProvisioning })
	var kinds []EventKind
	for _, ev := range c.Events(id) {
		kinds = append(kinds, EventKind(ev.Kind))
	}
	want := []EventKind{EventRequested, EventPlaced, EventWarned, "migration-start"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("timeline %v, want %v", kinds, want)
	}
	if info, _ := c.DescribeVM(id); info.Revocations != 1 || info.Phase != "migrating" {
		t.Errorf("after landing on a warned host: %+v", info)
	}
}

// One provisioned-and-released VM on a warm controller costs the mallocs of
// what it creates — the VM and its id, the host's instance and its id, the
// volume and its id, the instance's address and volume slices, the placement
// context — and none per step of its chain: the install's operations complete
// through vs.onOp and the teardown's through pooled followers. The parent
// commit measures 13 on this cell (installVM's two closures and teardownVM's
// two on top), this tree 9; the bound is 9.
func TestInstallChainAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("exact malloc counts do not hold under the race runtime")
	}
	r := newRig(t, nil, func(c *Config) {
		c.RecycleReleased = true
		c.Trace = nil
	})
	c := r.ctrl
	cycle := func() {
		id, err := c.RequestServer("warm", cloud.M3Medium)
		if err != nil {
			t.Fatal(err)
		}
		r.sched.RunUntil(r.sched.Now() + simkit.Minute)
		if err := c.ReleaseServer(id); err != nil {
			t.Fatal(err)
		}
		r.sched.RunUntil(r.sched.Now() + simkit.Minute)
	}
	// Warm: slabs, free lists, the pool, the backup server's buffers — and a
	// resident VM, so the backup server outlives every cycle.
	if _, err := c.RequestServer("resident", cloud.M3Medium); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	runtime.GC()
	got := testing.AllocsPerRun(500, cycle)
	t.Logf("%.1f mallocs per provisioned-and-released VM", got)
	if got > 9 {
		t.Errorf("%.1f mallocs per provisioned-and-released VM, want <= 9 (the parent: 13)", got)
	}
}
