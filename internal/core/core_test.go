package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// spike describes one price excursion for test traces.
type spike struct {
	at, dur simkit.Time
	price   cloud.USD
}

func makeTrace(t *testing.T, base cloud.USD, end simkit.Time, spikes ...spike) *spotmarket.Trace {
	t.Helper()
	pts := []spotmarket.Point{{T: 0, Price: base}}
	for _, s := range spikes {
		pts = append(pts, spotmarket.Point{T: s.at, Price: s.price})
		pts = append(pts, spotmarket.Point{T: s.at + s.dur, Price: base})
	}
	tr, err := spotmarket.NewTrace(pts, end)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

const testEnd = 200 * simkit.Hour

// testRig builds a platform + controller with an event sink. Traces default
// to flat $0.01 for every m3 market in zone-a; mutate overrides the config.
type testRig struct {
	sched *simkit.Scheduler
	plat  *cloudsim.Platform
	ctrl  *Controller
}

func newRig(t *testing.T, traces spotmarket.Set, mutate func(*Config)) *testRig {
	t.Helper()
	sched := simkit.NewScheduler()
	if traces == nil {
		traces = spotmarket.Set{}
	}
	for _, typ := range []string{cloud.M3Medium, cloud.M3Large, cloud.M3XLarge, cloud.M32XLarge} {
		key := spotmarket.MarketKey{Type: typ, Zone: "zone-a"}
		if traces[key] == nil {
			traces[key] = makeTrace(t, 0.01, testEnd)
		}
	}
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces:    traces,
		Latencies: cloudsim.ZeroOpLatencies(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Scheduler: sched,
		Provider:  plat,
		Mechanism: migration.SpotCheckLazy,
		Trace:     obs.NewTrace(0),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{sched: sched, plat: plat, ctrl: ctrl}
}

func (r *testRig) run(t *testing.T, until simkit.Time) {
	t.Helper()
	r.sched.RunUntil(until)
}

func (r *testRig) request(t *testing.T, customer string) nestedvm.ID {
	t.Helper()
	id, err := r.ctrl.RequestServer(customer, cloud.M3Medium)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	// A catalog without the m3.xlarge backup servers run on.
	var catalog []cloud.InstanceType
	for _, typ := range cloud.DefaultCatalog() {
		if typ.Name != cloud.M3XLarge {
			catalog = append(catalog, typ)
		}
	}
	sched := simkit.NewScheduler()
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Catalog: catalog,
		Traces: spotmarket.Set{
			{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, simkit.Hour),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Scheduler: sched, Provider: plat}); err == nil {
		t.Error("catalog without the backup type accepted")
	}
}

func TestRequestServerBasics(t *testing.T) {
	r := newRig(t, nil, nil)
	if _, err := r.ctrl.RequestServer("alice", "bogus"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := r.ctrl.RequestServer("alice", cloud.M1Small); err == nil {
		t.Error("non-HVM type accepted (XenBlanket needs HVM)")
	}
	id := r.request(t, "alice")
	r.run(t, simkit.Hour)

	info, err := r.ctrl.DescribeVM(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Phase != "running" {
		t.Fatalf("phase = %s, want running", info.Phase)
	}
	if info.Market != "spot" {
		t.Errorf("market = %s, want spot (cheap market available)", info.Market)
	}
	if info.IP == "" {
		t.Error("VM has no VPC address")
	}
	if info.BackupServer == "" {
		t.Error("spot-hosted VM under SpotCheckLazy must have a backup server")
	}
	if info.Availability != 1 {
		t.Errorf("availability = %v, want 1 (no events yet)", info.Availability)
	}
	if _, err := r.ctrl.DescribeVM("nvm-xxxxx"); err == nil {
		t.Error("unknown VM described")
	}
}

func TestRevocationMigratesToOnDemand(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, nil)
	id := r.request(t, "alice")
	r.run(t, 9*simkit.Hour)
	before, _ := r.ctrl.DescribeVM(id)
	if before.Market != "spot" {
		t.Fatalf("VM not on spot before spike: %+v", before)
	}
	ipBefore := before.IP

	// Price spikes at 10h above the on-demand bid (0.07): warning fires,
	// bounded-time migration moves the VM to on-demand.
	r.run(t, 10*simkit.Hour+10*simkit.Minute)
	after, _ := r.ctrl.DescribeVM(id)
	if after.Market != "on-demand" {
		t.Fatalf("VM not on on-demand after revocation: %+v", after)
	}
	if after.IP != ipBefore {
		t.Errorf("IP changed across migration: %s -> %s", ipBefore, after.IP)
	}
	if after.Revocations != 1 || after.Migrations < 1 {
		t.Errorf("revocations=%d migrations=%d", after.Revocations, after.Migrations)
	}
	if after.BackupServer != "" {
		t.Error("on-demand-hosted VM should not hold a backup server")
	}
	// The volume followed the VM.
	vs := r.ctrl.lookupVM(id)
	if inst, err := r.plat.Instance(vs.host.inst.ID); err != nil || !slices.Contains(inst.Volumes, vs.vm.Volume) {
		t.Errorf("volume %s not attached to new host: %+v err=%v", vs.vm.Volume, inst, err)
	}
	// Downtime was recorded but brief (SpotCheck lazy restore).
	down, degraded := vs.vm.Ledger.Snapshot(r.sched.Now())
	if down <= 0 {
		t.Error("no downtime recorded across a revocation")
	}
	if down > 5*simkit.Second {
		t.Errorf("down = %v, want sub-5s for SpotCheckLazy with instant EC2 ops", down)
	}
	if degraded < 30*simkit.Second {
		t.Errorf("degraded = %v, want ramp-drain + demand-paging windows", degraded)
	}
	if r.ctrl.Stats().Revocations != 1 {
		t.Errorf("stats revocations = %d", r.ctrl.Stats().Revocations)
	}
}

func TestReturnToSpotAfterSpike(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, nil)
	id := r.request(t, "alice")
	// Past the spike plus hold-down: the VM should be back on spot.
	r.run(t, 13*simkit.Hour)
	info, _ := r.ctrl.DescribeVM(id)
	if info.Market != "spot" {
		t.Fatalf("VM did not return to spot after the spike: %+v", info)
	}
	if info.BackupServer == "" {
		t.Error("back on spot: backup registration must resume")
	}
	if r.ctrl.Stats().ReturnMigrations < 1 {
		t.Error("no return migration recorded")
	}
	// The abandoned on-demand host was relinquished.
	for _, p := range r.ctrl.Pools() {
		if p.Key.Market == cloud.MarketOnDemand && p.Hosts > 0 {
			t.Errorf("on-demand hosts still rented after return: %+v", p)
		}
	}
}

func TestYankDowntimeExceedsSpotCheck(t *testing.T) {
	mkTraces := func() spotmarket.Set {
		return spotmarket.Set{
			{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
				spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
		}
	}
	downFor := func(mech migration.Mechanism) simkit.Time {
		r := newRig(t, mkTraces(), func(c *Config) { c.Mechanism = mech })
		id := r.request(t, "alice")
		r.run(t, 12*simkit.Hour)
		vs := r.ctrl.lookupVM(id)
		down, _ := vs.vm.Ledger.Snapshot(r.sched.Now())
		return down
	}
	yank := downFor(migration.UnoptimizedFull)
	scFull := downFor(migration.SpotCheckFull)
	scLazy := downFor(migration.SpotCheckLazy)
	// Yank: 30 s pause + ~100 s full restore. SpotCheck full: ~0.07 s
	// pause + ~50 s optimized restore. SpotCheck lazy: sub-second.
	if yank < 100*simkit.Second {
		t.Errorf("Yank downtime = %v, want >100 s", yank)
	}
	if scFull >= yank {
		t.Errorf("SpotCheck full (%v) should beat Yank (%v)", scFull, yank)
	}
	if scLazy >= scFull/10 {
		t.Errorf("SpotCheck lazy (%v) should be far below full restore (%v)", scLazy, scFull)
	}
}

func TestXenLiveSurvivesRevocation(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, func(c *Config) { c.Mechanism = migration.XenLive })
	id := r.request(t, "alice")
	r.run(t, 11*simkit.Hour)
	info, _ := r.ctrl.DescribeVM(id)
	if info.Market != "on-demand" {
		t.Fatalf("VM not evacuated: %+v", info)
	}
	if info.BackupServer != "" {
		t.Error("XenLive uses no backup servers")
	}
	vs := r.ctrl.lookupVM(id)
	down, _ := vs.vm.Ledger.Snapshot(r.sched.Now())
	if down > 2*simkit.Second {
		t.Errorf("live migration downtime = %v, want sub-second stop-and-copy", down)
	}
	if r.ctrl.Stats().VMsLostMemoryState != 0 {
		t.Error("VM lost despite a feasible live migration")
	}
	if r.ctrl.Report().BackupServers != 0 {
		t.Error("XenLive provisioned backup servers")
	}
}

func TestXenLiveLosesVMWithShortWarning(t *testing.T) {
	sched := simkit.NewScheduler()
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	plat, err := cloudsim.New(sched, cloudsim.Config{
		Traces:        traces,
		Latencies:     cloudsim.ZeroOpLatencies(),
		WarningWindow: 10 * simkit.Second, // far too short for a 64+ s pre-copy
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := New(Config{Scheduler: sched, Provider: plat, Mechanism: migration.XenLive})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ctrl.RequestServer("alice", cloud.M3Medium)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(11 * simkit.Hour)
	if ctrl.Stats().VMsLostMemoryState != 1 {
		t.Fatalf("lost = %d, want 1 (pre-copy cannot fit in 10 s)", ctrl.Stats().VMsLostMemoryState)
	}
	vs := ctrl.lookupVM(id)
	down, _ := vs.vm.Ledger.Snapshot(sched.Now())
	// Reboot-from-volume recovery: ~150 s of downtime.
	if down < 100*simkit.Second {
		t.Errorf("down = %v, want reboot-scale downtime after state loss", down)
	}
	if vs.phase != phaseRunning {
		t.Errorf("VM should be running again after reboot, got %v", vs.phase)
	}
}

func TestSlicingSharesLargeHost(t *testing.T) {
	r := newRig(t, nil, func(c *Config) {
		c.Placement = NewRoundRobinPolicy("large-only", []spotmarket.MarketKey{
			{Type: cloud.M3Large, Zone: "zone-a"},
		})
	})
	a := r.request(t, "alice")
	b := r.request(t, "bob")
	r.run(t, simkit.Hour)
	ia, _ := r.ctrl.DescribeVM(a)
	ib, _ := r.ctrl.DescribeVM(b)
	if ia.Host == "" || ia.Host != ib.Host {
		t.Fatalf("two medium VMs should share one m3.large host: %v vs %v", ia.Host, ib.Host)
	}
	if ia.HostType != cloud.M3Large {
		t.Errorf("host type = %s", ia.HostType)
	}
	if r.ctrl.Stats().SlicedHosts != 1 {
		t.Errorf("sliced hosts = %d, want 1", r.ctrl.Stats().SlicedHosts)
	}
	// A third VM needs a second host.
	cid := r.request(t, "carol")
	r.run(t, 2*simkit.Hour)
	ic, _ := r.ctrl.DescribeVM(cid)
	if ic.Host == ia.Host {
		t.Error("third VM packed onto a full host")
	}
}

func TestRoundRobinPoliciesSpread(t *testing.T) {
	r := newRig(t, nil, func(c *Config) { c.Placement = Policy4PED() })
	for i := 0; i < 8; i++ {
		r.request(t, "alice")
	}
	r.run(t, simkit.Hour)
	pools := r.ctrl.Pools()
	byType := map[string]int{}
	for _, p := range pools {
		if p.Key.Market == cloud.MarketSpot {
			byType[p.Key.Type] += p.VMs
		}
	}
	if len(byType) != 4 {
		t.Fatalf("VMs spread over %d pools, want 4: %v", len(byType), byType)
	}
	if byType[cloud.M3Medium] != 2 || byType[cloud.M32XLarge] != 2 {
		t.Errorf("uneven spread: %v", byType)
	}
}

func TestHotSpareGivesInstantDestination(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Destination = DestHotSpare
		c.HotSpares = 2
	})
	id := r.request(t, "alice")
	r.run(t, 9*simkit.Hour)
	if got := r.ctrl.SparesReady(); got != 2 {
		t.Fatalf("spares ready = %d, want 2", got)
	}
	r.run(t, 10*simkit.Hour+5*simkit.Minute)
	info, _ := r.ctrl.DescribeVM(id)
	if info.Market != "on-demand" {
		t.Fatalf("VM not on spare: %+v", info)
	}
	// The spare pool replenished.
	r.run(t, 10*simkit.Hour+10*simkit.Minute)
	if got := r.ctrl.SparesReady(); got != 2 {
		t.Errorf("spares after replenish = %d, want 2", got)
	}
}

func TestStagingDoublesMigrations(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: 30 * simkit.Minute, price: 0.50}),
		// A stable large pool provides the staging slot.
		{Type: cloud.M3Large, Zone: "zone-a"}: makeTrace(t, 0.02, testEnd),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Destination = DestStaging
		// Two VMs: one on medium (revoked), one on large (stable, its host
		// has a free slot for staging).
		c.Placement = Policy2PML()
		// Disable the return sweep so the staged VM stays put for the test
		// window.
		c.ReturnHoldDown = 100 * simkit.Hour
	})
	a := r.request(t, "alice") // -> medium pool
	b := r.request(t, "bob")   // -> large pool (sliced host, 1 free slot)
	r.run(t, 11*simkit.Hour)
	ia, _ := r.ctrl.DescribeVM(a)
	ib, _ := r.ctrl.DescribeVM(b)
	if ib.Market != "spot" {
		t.Fatalf("bob should be untouched: %+v", ib)
	}
	if r.ctrl.Stats().StagingMigrations < 1 {
		t.Errorf("no staging second hop recorded: %+v", r.ctrl.Stats())
	}
	// The staging path costs at least two migrations: revocation hop to
	// the staging slot, then the hop to the final home. (A later return
	// sweep may add a third once the spike abates.)
	if ia.Migrations < 2 {
		t.Errorf("staged VM migrated %d times, want >= 2", ia.Migrations)
	}
	if ia.Phase != "running" {
		t.Errorf("staged VM not running: %+v", ia)
	}
}

func TestProactiveMigrationAvoidsRevocation(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			// Spike to 1.5x OD: above OD but below the 2x bid.
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.105}),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Bidding = MultipleBid{K: 2}
	})
	id := r.request(t, "alice")
	r.run(t, 11*simkit.Hour)
	info, _ := r.ctrl.DescribeVM(id)
	if info.Market != "on-demand" {
		t.Fatalf("VM not proactively evacuated: %+v", info)
	}
	if info.Revocations != 0 {
		t.Errorf("revocations = %d, want 0 (price never exceeded the 2x bid)", info.Revocations)
	}
	if r.ctrl.Stats().ProactiveMigrations < 1 {
		t.Error("no proactive migration recorded")
	}
	if r.plat.Stats().WarningsIssued != 0 {
		t.Errorf("platform issued %d warnings; the 2x bid should prevent them", r.plat.Stats().WarningsIssued)
	}
	vs := r.ctrl.lookupVM(id)
	down, _ := vs.vm.Ledger.Snapshot(r.sched.Now())
	if down > 2*simkit.Second {
		t.Errorf("proactive live migration downtime = %v, want sub-second", down)
	}
}

func TestReleaseServer(t *testing.T) {
	r := newRig(t, nil, nil)
	id := r.request(t, "alice")
	r.run(t, simkit.Hour)
	if err := r.ctrl.ReleaseServer(id); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.ReleaseServer(id); err == nil {
		t.Error("double release accepted")
	}
	if err := r.ctrl.ReleaseServer("nvm-xxxxx"); err == nil {
		t.Error("unknown release accepted")
	}
	r.run(t, 2*simkit.Hour)
	info, _ := r.ctrl.DescribeVM(id)
	if info.Phase != "released" {
		t.Errorf("phase = %s", info.Phase)
	}
	// Host relinquished; cost stops accruing.
	rep1 := r.ctrl.Report()
	r.run(t, 10*simkit.Hour)
	rep2 := r.ctrl.Report()
	if diff := float64(rep2.TotalCost - rep1.TotalCost); diff > 1e-9 {
		t.Errorf("cost grew %.6f after everything was released", diff)
	}
	if rep2.VMHours != rep1.VMHours {
		t.Error("VM hours grew after release")
	}
}

func TestReleaseDuringMigrationDefers(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, nil)
	id := r.request(t, "alice")
	// Stop just after the warning fires (mid-migration).
	r.run(t, 10*simkit.Hour+5*simkit.Second)
	vs := r.ctrl.lookupVM(id)
	if vs.phase != phaseMigrating {
		t.Fatalf("phase = %v, want migrating", vs.phase)
	}
	if err := r.ctrl.ReleaseServer(id); err != nil {
		t.Fatal(err)
	}
	if vs.phase != phaseMigrating {
		t.Error("release mid-migration should defer")
	}
	r.run(t, 11*simkit.Hour)
	if vs.phase != phaseReleased {
		t.Errorf("phase = %v, want released after migration completed", vs.phase)
	}
}

// The headline result: running on spot with SpotCheck costs ~5x less than
// equivalent on-demand servers, including the backup server overhead, once
// the backup server is amortized across a full complement of ~40 VMs.
func TestCostSavingsVersusOnDemand(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.008, testEnd),
	}
	r := newRig(t, traces, nil)
	const n = 40
	for i := 0; i < n; i++ {
		r.request(t, "alice")
	}
	r.run(t, 100*simkit.Hour)
	rep := r.ctrl.Report()
	if rep.VMHours < float64(n)*99 {
		t.Fatalf("VM hours = %v, want ~%d", rep.VMHours, n*100)
	}
	od := 0.07
	savings := od / float64(rep.CostPerVMHour)
	if savings < 3.5 || savings > 8 {
		t.Errorf("savings = %.1fx (cost/hr %.4f), want ~5x", savings, float64(rep.CostPerVMHour))
	}
	if rep.BackupCost <= 0 {
		t.Error("backup servers cost nothing?")
	}
	if rep.Availability != 1 {
		t.Errorf("availability = %v on a calm market", rep.Availability)
	}
	if rep.BackupServers != 1 || rep.BackupVMsMax != n {
		t.Errorf("backups = %d, max VMs = %d", rep.BackupServers, rep.BackupVMsMax)
	}
	// Backup amortization: per-VM backup cost is a small fraction of the
	// per-VM total (paper: ~2.5% of a backup server per VM).
	perVMBackup := float64(rep.BackupCost) / rep.VMHours
	if perVMBackup > 0.01 {
		t.Errorf("backup cost per VM-hour = %.4f, want < $0.01", perVMBackup)
	}
}

func TestStormRecording(t *testing.T) {
	traces := spotmarket.Set{
		{Type: cloud.M3Large, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd,
			spike{at: 10 * simkit.Hour, dur: simkit.Hour, price: 0.50}),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Placement = NewRoundRobinPolicy("large-only", []spotmarket.MarketKey{
			{Type: cloud.M3Large, Zone: "zone-a"},
		})
	})
	for i := 0; i < 4; i++ { // two sliced m3.large hosts, 2 VMs each
		r.request(t, "alice")
	}
	r.run(t, 11*simkit.Hour)
	storms := r.ctrl.storms
	if len(storms) != 1 {
		t.Fatalf("storms = %v, want one batch", storms)
	}
	if storms[0].VMs != 4 {
		t.Errorf("storm size = %d, want all 4 VMs at once", storms[0].VMs)
	}
	rep := r.ctrl.Report()
	if rep.MaxStorm != 4 {
		t.Errorf("max storm = %d", rep.MaxStorm)
	}
}

func TestStormTable(t *testing.T) {
	// 3 storms among N=8 VMs over 100 hours: sizes 2 (=N/4), 4 (=N/2), 8 (=N).
	probs := StormTable([]int{2, 4, 8}, 8, []float64{0.25, 0.5, 0.75, 1}, 100)
	want := []float64{0.01, 0.01, 0, 0.01}
	for i := range want {
		if math.Abs(probs[i]-want[i]) > 1e-12 {
			t.Fatalf("StormTable = %v, want %v", probs, want)
		}
	}
	// Degenerate inputs.
	if got := StormTable(nil, 0, []float64{1}, 10); got[0] != 0 {
		t.Error("degenerate table should be zero")
	}
	// A storm smaller than the smallest bucket counts nowhere.
	probs = StormTable([]int{1}, 8, []float64{0.5, 1}, 10)
	if probs[0] != 0 || probs[1] != 0 {
		t.Errorf("sub-bucket storm leaked: %v", probs)
	}
}

func TestGreedyCheapestExploitsArbitrage(t *testing.T) {
	// m3.large at $0.015 hosts two mediums ($0.0075/slot), cheaper than
	// the medium market at $0.01: greedy should buy the large.
	traces := spotmarket.Set{
		{Type: cloud.M3Medium, Zone: "zone-a"}: makeTrace(t, 0.01, testEnd),
		{Type: cloud.M3Large, Zone: "zone-a"}:  makeTrace(t, 0.015, testEnd),
	}
	r := newRig(t, traces, func(c *Config) {
		c.Placement = NewGreedyCheapestPolicy([]spotmarket.MarketKey{
			{Type: cloud.M3Medium, Zone: "zone-a"},
			{Type: cloud.M3Large, Zone: "zone-a"},
		})
	})
	id := r.request(t, "alice")
	r.run(t, simkit.Hour)
	info, _ := r.ctrl.DescribeVM(id)
	if info.HostType != cloud.M3Large {
		t.Errorf("greedy chose %s, want m3.large (cheaper per slot)", info.HostType)
	}
}

func TestPolicyWeightedChoices(t *testing.T) {
	r := newRig(t, nil, func(c *Config) { c.Placement = Policy4PCOST() })
	// Warm the history so the weighted policy has data.
	r.run(t, 3*simkit.Hour)
	for i := 0; i < 12; i++ {
		r.request(t, "alice")
	}
	r.run(t, 4*simkit.Hour)
	pools := r.ctrl.Pools()
	total := 0
	for _, p := range pools {
		if p.Key.Market == cloud.MarketSpot {
			total += p.VMs
		}
	}
	if total != 12 {
		t.Errorf("placed %d of 12 VMs", total)
	}
}

func TestHistoryObservations(t *testing.T) {
	r := newRig(t, nil, nil)
	r.run(t, 2*simkit.Hour)
	h := r.ctrl.History()
	key := spotmarket.MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	if got := h.MeanPrice(key); math.Abs(float64(got)-0.01) > 1e-9 {
		t.Errorf("observed mean price = %v, want 0.01", got)
	}
	if h.Revocations(key) != 0 {
		t.Error("phantom revocations")
	}
}
