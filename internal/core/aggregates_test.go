package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// foldTraces prices the four m3 markets of zone-a with a random walk well
// below on-demand, plus one spike above every bid per market at its own
// time (and a second one on m3.medium), so each pool's hosts are revoked
// together once.
func foldTraces(t *testing.T) spotmarket.Set {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	spikes := map[string][]simkit.Time{
		cloud.M3Medium:  {20 * simkit.Hour, 170 * simkit.Hour},
		cloud.M3Large:   {60 * simkit.Hour},
		cloud.M3XLarge:  {100 * simkit.Hour},
		cloud.M32XLarge: {140 * simkit.Hour},
	}
	set := spotmarket.Set{}
	for typ, at := range spikes {
		var pts []spotmarket.Point
		for tm := simkit.Time(0); tm < testEnd; tm += 37 * simkit.Minute {
			price := cloud.USD(0.005 + 0.01*rng.Float64())
			for _, s := range at {
				if tm >= s && tm < s+simkit.Hour {
					price = 5
				}
			}
			pts = append(pts, spotmarket.Point{T: tm, Price: price})
		}
		tr, err := spotmarket.NewTrace(pts, testEnd)
		if err != nil {
			t.Fatal(err)
		}
		set[spotmarket.MarketKey{Type: typ, Zone: "zone-a"}] = tr
	}
	return set
}

// foldCustomer is the in-test fold of one customer's VMs.
type foldCustomer struct {
	vms                     int
	service, stateful, down simkit.Time
}

// foldReport recomputes what Report and Customers answer from the
// controller's per-VM records and the platform's instances: every VM the
// controller holds, folded by customer name in a map, and every rental not
// yet final billed afresh from the price trace's PrefixIntegral
// (Integrate(Launched, end)) or the on-demand rate. Durations are summed
// exactly; dollars are added in the controller's rental order, so they
// must agree bit for bit.
func foldReport(c *Controller, prefixes map[spotmarket.MarketKey]*spotmarket.PrefixIntegral) (Report, []CustomerReport) {
	now := c.sched.Now()
	var r Report
	var down, degraded, service, stateful simkit.Time
	byName := map[string]*foldCustomer{}
	for _, vs := range c.vms {
		if vs == nil || vs.phase == phaseProvisioning {
			continue
		}
		vm := vs.vm
		end := now
		if vs.phase == phaseReleased {
			end = vs.serviceEnd
		}
		if end < vm.Created {
			continue
		}
		life := end - vm.Created
		d, g := vm.Ledger.Snapshot(end)
		down += d
		degraded += g
		service += life
		r.MaxDownSpell = max(r.MaxDownSpell, vm.Ledger.MaxDownSpell(end))
		r.TCPBreaks += vm.Ledger.TCPBreaks(end)
		fc := byName[vm.Customer]
		if fc == nil {
			fc = &foldCustomer{}
			byName[vm.Customer] = fc
		}
		fc.vms++
		fc.service += life
		fc.down += d
		if !vs.stateless {
			fc.stateful += life
			stateful += life
		}
	}
	r.TotalDown, r.TotalDegraded = down, degraded
	r.VMHours = service.Hours()
	r.Availability = 1
	if service > 0 {
		r.Availability = 1 - float64(down)/float64(service)
		r.DegradedFraction = float64(degraded) / float64(service)
	}

	cost := c.rentalFinal
	for i := range c.rentals {
		rt := &c.rentals[i]
		if rt.final {
			cost[rt.kind] += rt.cost
			continue
		}
		inst := rt.inst
		end := now
		if inst.State == cloud.StateTerminated {
			end = inst.Ended
		}
		switch {
		case inst.State == cloud.StatePending:
		case inst.Market == cloud.MarketOnDemand:
			cost[rt.kind] += cloud.USD(float64(inst.Type.OnDemand) * end.Sub(inst.Launched).Hours())
		default:
			cost[rt.kind] += prefixes[spotmarket.MarketKey{Type: inst.Type.Name, Zone: inst.Zone}].Integrate(inst.Launched, end)
		}
	}
	r.HostCost, r.BackupCost, r.SpareCost = cost[rentalHost], cost[rentalBackup], cost[rentalSpare]
	r.TotalCost = r.HostCost + r.BackupCost + r.SpareCost
	if r.VMHours > 0 {
		r.CostPerVMHour = cloud.USD(float64(r.TotalCost) / r.VMHours)
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	custs := make([]CustomerReport, 0, len(names))
	for _, n := range names {
		fc := byName[n]
		cr := CustomerReport{Customer: n, VMs: fc.vms, VMHours: fc.service.Hours(), Availability: 1}
		if fc.service > 0 {
			cr.Availability = 1 - float64(fc.down)/float64(fc.service)
		}
		var share float64
		if service > 0 {
			share += float64(r.HostCost+r.SpareCost) * float64(fc.service) / float64(service)
		}
		if stateful > 0 {
			share += float64(r.BackupCost) * float64(fc.stateful) / float64(stateful)
		}
		cr.CostShare = cloud.USD(share)
		custs = append(custs, cr)
	}
	return r, custs
}

// checkAgainstFold holds got's Report and Customers to want's per-VM fold.
func checkAgainstFold(t *testing.T, label string, got, want *Controller, prefixes map[spotmarket.MarketKey]*spotmarket.PrefixIntegral) {
	t.Helper()
	wr, wc := foldReport(want, prefixes)
	r := got.Report()
	type sums struct {
		Down, Degraded, MaxSpell            simkit.Time
		Breaks                              int
		Hours, Avail, Degr                  float64
		Host, Backup, Spare, Total, PerHour cloud.USD
	}
	gs := sums{r.TotalDown, r.TotalDegraded, r.MaxDownSpell, r.TCPBreaks, r.VMHours, r.Availability,
		r.DegradedFraction, r.HostCost, r.BackupCost, r.SpareCost, r.TotalCost, r.CostPerVMHour}
	ws := sums{wr.TotalDown, wr.TotalDegraded, wr.MaxDownSpell, wr.TCPBreaks, wr.VMHours, wr.Availability,
		wr.DegradedFraction, wr.HostCost, wr.BackupCost, wr.SpareCost, wr.TotalCost, wr.CostPerVMHour}
	if gs != ws || r.BillingErrors != 0 {
		t.Errorf("%s: Report\n got %+v (%d billing errors)\nwant %+v", label, gs, r.BillingErrors, ws)
	}
	gc := got.Customers()
	if len(gc) != len(wc) {
		t.Fatalf("%s: Customers\n got %+v\nwant %+v", label, gc, wc)
	}
	for i := range gc {
		if gc[i] != wc[i] {
			t.Errorf("%s: customer %d\n got %+v\nwant %+v", label, i, gc[i], wc[i])
		}
	}
}

// checkListVMs requires ListVMs to answer for exactly the VMs c still
// tracks, in id order.
func checkListVMs(t *testing.T, label string, c *Controller) {
	t.Helper()
	list := c.ListVMs()
	ids := make([]nestedvm.ID, len(list))
	for i, info := range list {
		ids[i] = info.ID
	}
	sorted := append([]nestedvm.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	tracked := 0
	for _, vs := range c.vms {
		if vs != nil {
			tracked++
		}
	}
	for i := range ids {
		if ids[i] != sorted[i] {
			t.Fatalf("%s: ListVMs out of id order at %d: %v", label, i, ids)
		}
	}
	if len(ids) != tracked {
		t.Errorf("%s: ListVMs lists %d VMs, the controller tracks %d", label, len(ids), tracked)
	}
}

// TestAggregatesMatchPerVMFold drives two controllers through the same run
// — revocation storms in every pool, VMs released while running and while
// still being placed, customers arriving out of name order — one recycling
// released VMs' slots and one keeping them. At several instants each
// one's Report and Customers must equal the fold of the keeping
// controller's per-VM records, and ListVMs must list what each still
// tracks in id order.
func TestAggregatesMatchPerVMFold(t *testing.T) {
	traces := foldTraces(t)
	prefixes := map[spotmarket.MarketKey]*spotmarket.PrefixIntegral{}
	for k, tr := range traces {
		prefixes[k] = tr.PrefixIntegral()
	}
	build := func(recycle bool) (*simkit.Scheduler, *Controller) {
		sched := simkit.NewScheduler()
		plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := New(Config{
			Scheduler:       sched,
			Provider:        plat,
			Mechanism:       migration.SpotCheckLazy,
			Placement:       Policy4PED(),
			Destination:     DestHotSpare,
			HotSpares:       1,
			RecycleReleased: recycle,
			Seed:            3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sched, ctrl
	}
	recSched, rec := build(true)
	keepSched, keep := build(false)

	var ids []nestedvm.ID
	released := map[int]bool{}
	request := func(customer string, stateless bool) {
		t.Helper()
		var id nestedvm.ID
		for _, c := range []*Controller{rec, keep} {
			got, err := c.RequestServerWithOptions(ServerOptions{Customer: customer, Type: cloud.M3Medium, Stateless: stateless})
			if err != nil {
				t.Fatal(err)
			}
			if id != "" && got != id {
				t.Fatalf("the controllers minted %s and %s", id, got)
			}
			id = got
		}
		ids = append(ids, id)
	}
	release := func(i int) {
		t.Helper()
		released[i] = true
		for _, c := range []*Controller{rec, keep} {
			if err := c.ReleaseServer(ids[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(at simkit.Time) {
		t.Helper()
		recSched.RunUntil(at)
		keepSched.RunUntil(at)
		label := at.String()
		if rs, ks := rec.Stats(), keep.Stats(); rs != ks {
			t.Fatalf("%s: recycling changed the run: %+v vs %+v", label, rs, ks)
		}
		checkAgainstFold(t, label+" keeping", keep, keep, prefixes)
		checkAgainstFold(t, label+" recycling", rec, keep, prefixes)
		checkListVMs(t, label+" keeping", keep)
		checkListVMs(t, label+" recycling", rec)
	}

	customers := []string{"carol", "alice", "bob"}
	for i := 0; i < 12; i++ {
		request(customers[i%3], i%4 == 3)
	}
	release(11) // still being placed
	check(simkit.Minute)
	check(30 * simkit.Hour)
	release(0)
	release(4)
	request("aaron", false) // sorts before every earlier customer
	request("bob", true)
	release(len(ids) - 1)
	check(30*simkit.Hour + simkit.Second) // aaron's VM still provisioning
	check(80 * simkit.Hour)
	request("zed", false)
	request("alice", false)
	release(1)
	check(101 * simkit.Hour)
	for i := 1; i < 12; i += 3 {
		if !released[i] {
			release(i) // the rest of alice's first VMs
		}
	}
	check(150 * simkit.Hour)
	check(testEnd - simkit.Hour)

	st := keep.Stats()
	if len(keep.storms) < 4 || st.Revocations == 0 || st.VMsReleased < 7 {
		t.Errorf("the run was meant to have a storm per pool and many releases: %d storms, %+v", len(keep.storms), st)
	}
	if rec.vmSlab.Len() >= len(ids) {
		t.Errorf("no slot was recycled: %d live slots for %d VMs", rec.vmSlab.Len(), len(ids))
	}
}
