package backup

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/obs"
)

func TestPoolRoundRobinSpreads(t *testing.T) {
	p := NewPool(Config{MaxVMs: 10}, nil)
	// Pre-provision two servers by filling and asking again... instead,
	// assign 6 VMs: with one server they pack; pool provisions lazily, so
	// force two servers by capacity 3.
	p2 := NewPool(Config{MaxVMs: 3}, nil)
	for i := 0; i < 6; i++ {
		if _, err := p2.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, ""); err != nil {
			t.Fatal(err)
		}
	}
	if p2.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", p2.Size())
	}
	dist := p2.Distribution()
	if dist[0] != 3 || dist[1] != 3 {
		t.Errorf("distribution = %v, want [3 3]", dist)
	}
	_ = p
}

func TestPoolProvisionsWhenFull(t *testing.T) {
	var provisioned []string
	p := NewPool(Config{MaxVMs: 2}, func(s *Server) { provisioned = append(provisioned, s.ID()) })
	for i := 0; i < 5; i++ {
		if _, err := p.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, ""); err != nil {
			t.Fatal(err)
		}
	}
	if p.Size() != 3 {
		t.Errorf("pool size = %d, want 3 (ceil(5/2))", p.Size())
	}
	if len(provisioned) != 3 {
		t.Errorf("provision callback fired %d times, want 3", len(provisioned))
	}
	if p.TotalVMs() != 5 {
		t.Errorf("TotalVMs = %d", p.TotalVMs())
	}
}

func TestPoolRoundRobinAfterRelease(t *testing.T) {
	p := NewPool(Config{MaxVMs: 2}, nil)
	for i := 0; i < 4; i++ {
		if _, err := p.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Release one from the first server: next assign should reuse the gap
	// rather than provision.
	victim := p.Servers()[0].VMIDs()[0]
	p.Release(victim)
	if _, err := p.AssignSpread("vm-new", 2.8, ""); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Errorf("pool size = %d, want 2 (gap reused)", p.Size())
	}
	if p.ServerFor("vm-new") == nil {
		t.Error("assignment not tracked")
	}
}

func TestPoolDuplicateAssign(t *testing.T) {
	p := NewPool(Config{}, nil)
	if _, err := p.AssignSpread("vm-1", 2.8, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AssignSpread("vm-1", 2.8, ""); err == nil {
		t.Error("duplicate assign accepted")
	}
}

func TestPoolReleaseUnknown(t *testing.T) {
	p := NewPool(Config{}, nil)
	p.Release("ghost") // must not panic
	if p.TotalVMs() != 0 {
		t.Error("phantom VM appeared")
	}
}

func TestPoolServerFor(t *testing.T) {
	p := NewPool(Config{}, nil)
	s, err := p.AssignSpread("vm-1", 2.8, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.ServerFor("vm-1") != s {
		t.Error("ServerFor mismatch")
	}
	if p.ServerFor("ghost") != nil {
		t.Error("unknown VM should map to nil")
	}
	p.Release("vm-1")
	if p.ServerFor("vm-1") != nil {
		t.Error("released VM still mapped")
	}
	if s.Has("vm-1") {
		t.Error("released VM still registered on server")
	}
}

func TestPoolMaxVMsPerServer(t *testing.T) {
	p := NewPool(Config{MaxVMs: 3}, nil)
	if p.MaxVMsPerServer() != 0 {
		t.Error("empty pool max should be 0")
	}
	for i := 0; i < 4; i++ {
		p.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, "")
	}
	if got := p.MaxVMsPerServer(); got != 3 {
		t.Errorf("MaxVMsPerServer = %d, want 3", got)
	}
}

func TestAssignSpreadBalancesGroups(t *testing.T) {
	// Two servers' worth of capacity, two groups: the spreader should
	// interleave groups so each server holds half of each pool, where
	// plain round-robin packs the first group onto the first server.
	spread := NewPool(Config{MaxVMs: 4}, nil)
	for i := 0; i < 4; i++ {
		if _, err := spread.AssignSpread(fmt.Sprintf("a-%d", i), 2.8, "pool-A"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := spread.AssignSpread(fmt.Sprintf("b-%d", i), 2.8, "pool-B"); err != nil {
			t.Fatal(err)
		}
	}
	// 8 VMs over servers of capacity 4: two servers, and no server holds
	// more than... with spreading the first 4 pool-A VMs fill server 1
	// (only one server exists until full) -> provision; so A: 4 on s1?
	// Spreading only helps across *existing* servers; verify the
	// pool-level invariant instead: group max <= ceil(groupSize / servers)
	// once both servers exist for the second group.
	if got := spread.MaxGroupPerServer(); got > 4 {
		t.Errorf("max group per server = %d", got)
	}
	// With two servers that BOTH have room, the spreader interleaves a
	// group across them where round-robin would not be guaranteed to.
	p2 := NewPool(Config{MaxVMs: 4}, nil)
	for i := 0; i < 5; i++ {
		p2.AssignSpread(fmt.Sprintf("x-%d", i), 2.8, "") // s1 full, s2 holds one
	}
	p2.Release("x-0") // open a slot on s1
	for i := 0; i < 2; i++ {
		if _, err := p2.AssignSpread(fmt.Sprintf("ga-%d", i), 2.8, "pool-A"); err != nil {
			t.Fatal(err)
		}
	}
	if got := p2.MaxGroupPerServer(); got != 1 {
		t.Errorf("pool-A spread across servers: max per server = %d, want 1", got)
	}
}

// TestMetricsRetireServer walks an assign→release→remove cycle against the
// registry: each server's labeled ingest series must appear while it serves
// streams and disappear when Pool.Remove retires it — not report its last
// ingest forever.
func TestMetricsRetireServer(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(Config{MaxVMs: 2}, nil)
	p.SetMetrics(NewMetrics(reg))

	for i := 0; i < 4; i++ {
		if _, err := p.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, ""); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if v, _ := snap.Value("spotcheck_backup_servers"); v != 2 {
		t.Fatalf("backup_servers gauge = %v, want 2", v)
	}
	if v, _ := snap.Value("spotcheck_backup_vms"); v != 4 {
		t.Fatalf("backup_vms gauge = %v, want 4", v)
	}
	for _, s := range p.Servers() {
		v, ok := snap.Value("spotcheck_backup_ingest_mbs", obs.L("server", s.ID()))
		if !ok {
			t.Fatalf("no ingest series for %s", s.ID())
		}
		if v <= 0 {
			t.Errorf("ingest for %s = %v, want > 0 while serving streams", s.ID(), v)
		}
	}

	// Drain and retire the first server.
	victim := p.Servers()[0]
	for _, id := range victim.VMIDs() {
		p.Release(id)
	}
	if err := p.Remove(victim); err != nil {
		t.Fatal(err)
	}

	snap = reg.Snapshot()
	if v, _ := snap.Value("spotcheck_backup_servers"); v != 1 {
		t.Errorf("backup_servers gauge = %v after remove, want 1", v)
	}
	if v, _ := snap.Value("spotcheck_backup_vms"); v != 2 {
		t.Errorf("backup_vms gauge = %v after remove, want 2", v)
	}
	if _, ok := snap.Value("spotcheck_backup_ingest_mbs", obs.L("server", victim.ID())); ok {
		t.Errorf("retired server %s still has an ingest series", victim.ID())
	}
	// The survivor's series must be untouched.
	survivor := p.Servers()[0]
	if v, ok := snap.Value("spotcheck_backup_ingest_mbs", obs.L("server", survivor.ID())); !ok || v <= 0 {
		t.Errorf("surviving server %s ingest series = %v (present=%v)", survivor.ID(), v, ok)
	}
}

// TestAssignSpreadCursorAfterProvision pins the round-robin cursor after
// the provision-on-full path: the cursor must sit just past the freshly
// provisioned server (which lands at the end of the scan order), so the
// next scan starts from the wrapped position rather than skewing placement
// toward server 0 after reentrant onProvision activity.
func TestAssignSpreadCursorAfterProvision(t *testing.T) {
	p := NewPool(Config{MaxVMs: 2}, nil)
	// Fill two servers, cursor mid-rotation.
	for i := 0; i < 4; i++ {
		if _, err := p.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, ""); err != nil {
			t.Fatal(err)
		}
	}
	// All full: the next assignment provisions server 3 and must leave the
	// cursor just past it.
	s, err := p.AssignSpread("vm-over", 2.8, "")
	if err != nil {
		t.Fatal(err)
	}
	if s != p.Servers()[p.Size()-1] {
		t.Fatal("overflow VM not on the freshly provisioned server")
	}
	if want := 0; p.next != want { // (last index + 1) % size
		t.Errorf("cursor = %d after provision, want %d (just past the new server)", p.next, want)
	}

	// A reentrant onProvision callback that itself assigns to the pool
	// must not have its cursor position clobbered by the outer call.
	var reentrant *Pool
	reentrant = NewPool(Config{MaxVMs: 4}, func(srv *Server) {
		if srv.ID() == "backup-002" {
			// Provisioning the second server: place a spare's stream too.
			if _, err := reentrant.AssignSpread("spare-0", 2.8, "spares"); err != nil {
				t.Fatalf("reentrant assign: %v", err)
			}
		}
	})
	for i := 0; i < 5; i++ {
		if _, err := reentrant.AssignSpread(fmt.Sprintf("vm-%d", i), 2.8, "pool-A"); err != nil {
			t.Fatal(err)
		}
	}
	// 5 pool-A VMs + 1 reentrant spare over capacity-4 servers: two
	// servers, spare and the overflow VM both on backup-002.
	if reentrant.Size() != 2 {
		t.Fatalf("pool size = %d, want 2", reentrant.Size())
	}
	if got := reentrant.ServerFor("spare-0").ID(); got != "backup-002" {
		t.Errorf("spare on %s, want backup-002", got)
	}
	if reentrant.next != 0 {
		t.Errorf("cursor = %d after reentrant provision, want 0", reentrant.next)
	}
}

func TestAssignSpreadReleaseAccounting(t *testing.T) {
	p := NewPool(Config{MaxVMs: 2}, nil)
	p.AssignSpread("a", 2.8, "g")
	p.AssignSpread("b", 2.8, "g")
	p.AssignSpread("c", 2.8, "g") // second server
	if p.MaxGroupPerServer() != 2 {
		t.Fatalf("max group = %d, want 2", p.MaxGroupPerServer())
	}
	p.Release("a")
	if p.MaxGroupPerServer() != 1 {
		t.Errorf("after release max group = %d, want 1", p.MaxGroupPerServer())
	}
	// Draining and removing a server clears its group accounting.
	srv := p.ServerFor("b")
	p.Release("b")
	if err := p.Remove(srv); err != nil {
		t.Fatal(err)
	}
	if p.MaxGroupPerServer() != 1 {
		t.Errorf("after remove max group = %d, want 1 (c remains)", p.MaxGroupPerServer())
	}
}

// TestAssignReleaseSteadyStateAllocs pins the per-migration backup cost: on
// a warm pool with metrics attached, re-assigning and releasing a known VM
// id allocates nothing — no gauge lookup, no label slice, no group key.
func TestAssignReleaseSteadyStateAllocs(t *testing.T) {
	p := NewPool(Config{}, nil)
	p.SetMetrics(NewMetrics(obs.NewRegistry()))
	groups := []string{"m3.medium/us-east-1a/spot", "m3.large/us-east-1b/spot", "m3.xlarge/us-east-1c/spot"}
	for i := 0; i < 500; i++ {
		if _, err := p.AssignSpread(fmt.Sprintf("nvm-%06d", i), 2.8, groups[i%len(groups)]); err != nil {
			t.Fatal(err)
		}
	}
	const id = "nvm-000123"
	allocs := testing.AllocsPerRun(1000, func() {
		if p.Release(id) == nil {
			t.Fatal("release of a known id returned nil")
		}
		if _, err := p.AssignSpread(id, 2.8, groups[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Release→AssignSpread allocates %v times per cycle, want 0", allocs)
	}
}

// TestReleaseKeepsStreamOrder holds the pool's positional Release to what
// Server.Unregister does: every pool server is shadowed by a standalone
// twin that registers and unregisters by id, and after every operation the
// two hold the same streams in the same order — so each server's ingest sum
// repeats bit for bit. A stale position on the stream a swap-remove moved
// would remove the wrong stream on that stream's own release.
func TestReleaseKeepsStreamOrder(t *testing.T) {
	p := NewPool(Config{MaxVMs: 7}, nil)
	twins := map[*Server]*Server{}
	rng := rand.New(rand.NewSource(1))
	var live []string
	rates := []float64{2.8, 0.1, 7.25, 1.0 / 3}
	for i := range 20_000 {
		if len(live) == 0 || rng.Intn(5) < 3 {
			id := fmt.Sprintf("nvm-%05d", i)
			dirty := rates[rng.Intn(len(rates))]
			s, err := p.AssignSpread(id, dirty, fmt.Sprint("g", rng.Intn(3)))
			if err != nil {
				t.Fatal(err)
			}
			if twins[s] == nil {
				twins[s] = NewServer(s.ID(), Config{MaxVMs: 7})
			}
			if err := twins[s].Register(id, dirty); err != nil {
				t.Fatal(err)
			}
			live = append(live, id)
		} else {
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			s := p.Release(id)
			twins[s].Unregister(id)
		}
		for s, twin := range twins {
			if !slices.Equal(s.ids, twin.ids) || !slices.Equal(s.dirty, twin.dirty) {
				t.Fatalf("op %d: server %s holds %v, Unregister's order is %v", i, s.ID(), s.ids, twin.ids)
			}
			if math.Float64bits(s.IngestUtilization()) != math.Float64bits(twin.IngestUtilization()) {
				t.Fatalf("op %d: server %s ingest %v, Unregister's order gives %v", i, s.ID(), s.IngestUtilization(), twin.IngestUtilization())
			}
		}
	}
}
