package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// stagingSlotBySort is findStagingSlot as it was before it became one pass:
// sort every host id, return the first that qualifies. Kept as the reference.
func stagingSlotBySort(c *Controller, vs *vmState) *hostState {
	ids := make([]cloud.InstanceID, 0, len(c.hostIndex))
	for id := range c.hostIndex {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := c.lookupHost(id)
		if h == nil || h.role != roleHost || h.warned || h.free() <= 0 {
			continue
		}
		if h.inst.State != cloud.StateRunning || h.slotType.Name != vs.vm.Type.Name || h == vs.host {
			continue
		}
		return h
	}
	return nil
}

// The one-pass staging pick must equal the sort-based one over random host
// sets — including ids past the six-digit padding, where string order and
// launch order part ways.
func TestFindStagingSlotMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	types := cloud.DefaultCatalog()
	picked := 0
	for set := 0; set < 200; set++ {
		r := newRig(t, nil, nil)
		c := r.ctrl
		n := rng.Intn(40)
		var hosts []*hostState
		for i := 0; i < n; i++ {
			h := c.newHostState()
			seq := 1 + rng.Intn(2_000_000)
			h.inst = &cloud.Instance{
				ID:    cloud.InstanceID(fmt.Sprintf("i-%06d", seq)),
				State: []cloud.InstanceState{cloud.StateRunning, cloud.StateRunning, cloud.StateWarned, cloud.StateTerminated}[rng.Intn(4)],
			}
			if _, dup := c.hostIndex[h.inst.ID]; dup {
				c.hostSlab.Free(h.slot)
				continue
			}
			h.role = []hostRole{roleHost, roleHost, roleHost, roleHotSpare, roleBackup}[rng.Intn(5)]
			h.warned = rng.Intn(5) == 0
			h.capacity = rng.Intn(4)
			h.reserved = rng.Intn(2)
			h.slotType = &types[rng.Intn(len(types))]
			c.hostIndex[h.inst.ID] = h.slot
			hosts = append(hosts, h)
		}
		vs := c.newVMState()
		vm, err := nestedvm.NewVM("nvm-00001", "t", types[rng.Intn(len(types))], nestedvm.DefaultMemory(), 0)
		if err != nil {
			t.Fatal(err)
		}
		vs.vm = vm
		if len(hosts) > 0 && rng.Intn(2) == 0 {
			vs.host = hosts[rng.Intn(len(hosts))]
		}
		got, want := c.findStagingSlot(vs), stagingSlotBySort(c, vs)
		if got != want {
			t.Fatalf("set %d: one-pass pick %v, sorted scan picks %v", set, hostID(got), hostID(want))
		}
		if got != nil {
			picked++
		}
	}
	if picked < 20 {
		t.Errorf("only %d of 200 host sets had a staging slot: the sets do not exercise the pick", picked)
	}
}

func hostID(h *hostState) cloud.InstanceID {
	if h == nil {
		return "<none>"
	}
	return h.inst.ID
}

// countingPolicy records every Choose call in front of the policy it wraps,
// and refuses the first failFirst of them: the VMs those belong to fall back
// to on-demand hosts with no home pool, so the return sweep has to ask the
// policy where to take them.
type countingPolicy struct {
	PlacementPolicy
	failFirst int
	calls     int
	digest    uint64
	sched     *simkit.Scheduler
}

func (p *countingPolicy) Choose(ctx *PlacementContext) (string, cloud.Zone, error) {
	typ, zone, err := p.PlacementPolicy.Choose(ctx)
	if p.calls < p.failFirst {
		typ, zone, err = "", "", fmt.Errorf("refused")
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s|%s|%s|%v", p.digest, p.sched.Now(), ctx.Requested.Name, typ, zone, err != nil)
	p.digest = h.Sum64()
	p.calls++
	return typ, zone, err
}

// The return sweep without hashing — the home pool's market kept on the VM,
// the calm answer on the type's record, the early exit on a tick with no
// calm market — must ask the placement policy exactly what the sweep it
// replaces asked, in the same order: the policies draw from the controller's
// RNG, so one call more or fewer moves every seeded number after it. The
// digest below is the parent commit's over this 720 h storm cell.
func TestReturnSweepAsksPolicyAsBefore(t *testing.T) {
	const horizon = 720 * simkit.Hour
	configs := map[spotmarket.MarketKey]spotmarket.GenConfig{}
	for _, typ := range cloud.DefaultCatalog() {
		if typ.HVM {
			configs[spotmarket.MarketKey{Type: typ.Name, Zone: "zone-a"}] =
				spotmarket.DefaultConfig(typ.OnDemand, spotmarket.VolatilityExtreme)
		}
	}
	traces, err := spotmarket.GenerateSet(configs, horizon, 720)
	if err != nil {
		t.Fatal(err)
	}
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: 720})
	if err != nil {
		t.Fatal(err)
	}
	policy := &countingPolicy{PlacementPolicy: Policy4PCOST(), failFirst: 30, sched: sched}
	ctrl, err := New(Config{
		Scheduler: sched, Provider: plat, Mechanism: migration.SpotCheckLazy,
		Placement: policy, Seed: 720,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(720))
	for i := 0; i < 60; i++ {
		sched.At(simkit.Time(rng.Int63n(int64(horizon/2))), "create", func() {
			if _, err := ctrl.RequestServer("storm", cloud.M3Medium); err != nil {
				t.Errorf("request: %v", err)
			}
		})
	}
	sched.RunUntil(horizon)
	st := ctrl.Stats()
	t.Logf("%d Choose calls, digest %#x; %d migrations, %d returns, %d destination failures",
		policy.calls, policy.digest, st.Migrations, st.ReturnMigrations, st.DestinationFailures)
	if policy.calls <= st.VMsCreated+policy.failFirst {
		t.Errorf("%d Choose calls for %d VMs: the cell never asks the policy from the return sweep", policy.calls, st.VMsCreated)
	}
	const wantCalls, wantDigest = 92, uint64(0x6be930b13dcd8af6)
	if policy.calls != wantCalls || policy.digest != wantDigest {
		t.Errorf("Choose sequence: %d calls, digest %#x; the parent's sweep made %d, digest %#x",
			policy.calls, policy.digest, wantCalls, wantDigest)
	}
	auditController(t, ctrl, migration.SpotCheckLazy)
}

// A completed bounded-time migration on a warm controller costs a handful of
// mallocs — the new host's instance, its id, its address and volume slices,
// what the backup pool and the ledger append — not one per step of the
// chain: the steps ride argument-carrying events, the provider callbacks are
// bound once per VM, acquisition and follower records are recycled. The cell
// pairs every bounded migration with the live return that follows it, and
// counts both against the bounded one: the parent commit measures 59.03 on
// it (29.5 per migration, the 29 of its campaign profile: closures in
// acquireHost, runBoundedMigration, replumb, moveLive and cloudsim's six
// delayed completions), this tree 10.51; the bound is 12.
func TestMigrationChainAllocs(t *testing.T) {
	// One market that spikes for 30 minutes every 6 hours: every spike
	// revokes the whole fleet (bounded migration to on-demand), every calm
	// brings it back (live return).
	const horizon = 30 * simkit.Day
	var spikes []spike
	for at := 6 * simkit.Hour; at < horizon; at += 6 * simkit.Hour {
		spikes = append(spikes, spike{at: at, dur: 30 * simkit.Minute, price: 0.50})
	}
	traces := spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, horizon, spikes...)}
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{Scheduler: sched, Provider: plat, Mechanism: migration.SpotCheckLazy, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ctrl.RequestServer("warm", cloud.M3Medium); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntil(10 * simkit.Day) // warm: slabs, pools, free lists, price windows
	before := ctrl.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sched.RunUntil(horizon)
	runtime.ReadMemStats(&m1)
	after := ctrl.Stats()
	bounded := after.Revocations - before.Revocations
	all := after.Migrations - before.Migrations
	if bounded < 1000 || all < 2*bounded-100 {
		t.Fatalf("cell did not churn as designed: %d bounded migrations, %d in all", bounded, all)
	}
	perBounded := float64(m1.Mallocs-m0.Mallocs) / float64(bounded)
	t.Logf("%d mallocs over %d bounded migrations (each with its live return): %.2f per bounded migration",
		m1.Mallocs-m0.Mallocs, bounded, perBounded)
	if perBounded > 12 {
		t.Errorf("%.2f mallocs per completed bounded migration, want <= 12", perBounded)
	}
}
