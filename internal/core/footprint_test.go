package core

import (
	"testing"
	"unsafe"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// TestRecordSizes pins the size of the records the controller keeps per VM,
// per host slot and per pooled acquisition (64-bit platforms). A fleet
// holds one vmState per VM, about two hostState slots per VM and one
// pendingAcq per VM at the 10k rung's peak, so a field added to any of them
// is fleet-sized; grow one only on purpose, and update the budget in
// docs/SCALING.md with it.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, r := range []struct {
		name      string
		got, want uintptr
	}{
		{"vmState", unsafe.Sizeof(vmState{}), 304}, // + the customer record pointer
		{"hostState", unsafe.Sizeof(hostState{}), 120},
		{"pendingAcq", unsafe.Sizeof(pendingAcq{}), 64},
		{"rental", unsafe.Sizeof(rental{}), 24},
	} {
		if r.got != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.got, r.want)
		}
	}
}

// terminateLog counts the controller's Terminate calls still in flight, by
// instance.
type terminateLog struct {
	cloud.Provider
	inFlight map[cloud.InstanceID]int
}

func (p *terminateLog) Terminate(id cloud.InstanceID, cb cloud.Callback) error {
	err := p.Provider.Terminate(id, func(err error) {
		p.inFlight[id]--
		if cb != nil {
			cb(err)
		}
	})
	if err == nil {
		p.inFlight[id]++
	}
	return err
}

// A rental lets go of its instance as soon as the controller has seen it
// terminated: throughout a run of revocation storms and returns, the only
// ledger entries that still hold a terminated instance are those whose
// Terminate has not been confirmed yet (the platform's forced kill beat it)
// and those whose host the controller still tracks (a revoked host its VMs
// are still leaving). The bill is unchanged: a settled entry keeps its
// final cost.
func TestTerminatedRentalsLetGo(t *testing.T) {
	const horizon = 10 * simkit.Day
	var spikes []spike
	for at := 6 * simkit.Hour; at < horizon; at += 6 * simkit.Hour {
		spikes = append(spikes, spike{at: at, dur: 30 * simkit.Minute, price: 0.50})
	}
	traces := spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, horizon, spikes...)}
	sched := simkit.NewScheduler()
	// On-demand stockouts keep some VMs on their revoked host past the
	// forced kill, so both ways the controller sees an instance gone — its
	// own Terminate confirmed, and a killed host it forgets — are taken.
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: 1, ODStockoutProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	prov := &terminateLog{Provider: plat, inFlight: map[cloud.InstanceID]int{}}
	ctrl, err := New(Config{Scheduler: sched, Provider: prov, Mechanism: migration.SpotCheckLazy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := ctrl.RequestServer("storm", cloud.M3Medium); err != nil {
			t.Fatal(err)
		}
	}
	settled, held := 0, 0
	for at := 97 * simkit.Second; at < horizon; at += 97 * simkit.Second {
		sched.RunUntil(at)
		for _, rt := range ctrl.rentals {
			switch {
			case rt.inst == nil:
				settled++
				if !rt.final {
					t.Fatalf("at %v: rental %d let go of its instance before its bill was final", at, rt.n)
				}
			case rt.inst.State != cloud.StateTerminated:
			case prov.inFlight[rt.inst.ID] > 0 || ctrl.lookupHost(rt.inst.ID) != nil:
				held++
			default:
				t.Fatalf("at %v: rental %d still holds terminated instance %s", at, rt.n, rt.inst.ID)
			}
		}
	}
	if ctrl.Stats().Revocations < 100 || settled == 0 {
		t.Fatalf("the run did not churn as designed: %d revocations, %d settled entries seen", ctrl.Stats().Revocations, settled)
	}
	t.Logf("%d settled entries and %d terminated ones still awaited over the audits", settled, held)
}
