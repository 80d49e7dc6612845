package cloudsim

import (
	"errors"
	"math"
	"net/netip"
	"testing"

	"repro/internal/cloud"
)

// idSeq must be paddedID's strict inverse: every minted id parses back to
// its sequence number, and nothing that paddedID could not have produced
// parses at all — a near miss must not alias a neighbour's table entry.
func TestIDSeqInvertsPaddedID(t *testing.T) {
	for _, prefix := range []string{"i-", "vol-"} {
		for _, n := range []int{0, 1, 9, 10, 99_999, 100_000, 999_999, 1_000_000, 137_681, 12_345_678, math.MaxInt} {
			id := paddedID(prefix, n)
			if got, ok := idSeq(prefix, id); !ok || got != n {
				t.Errorf("idSeq(%q, %q) = %d, %v; want %d", prefix, id, got, ok, n)
			}
		}
	}
	for _, bad := range []string{
		"", "i-", "i-1", "i-00001", "i-0000001", "i-00000x", "i-x00001", "i-000 01", "i-+00001", "i--00001",
		"i-99999999999999999999", "i-9223372036854775808", "i-01000000", "I-000001", "vol-000001", " i-000001", "i-000001 ",
		"i-٠٠٠٠٠١", // six non-ASCII digits
	} {
		if n, ok := idSeq("i-", bad); ok {
			t.Errorf("idSeq(%q) accepted as %d", bad, n)
		}
	}
}

// FuzzIDSeq: any string is either rejected or round-trips byte for byte, and
// an accepted one never reaches outside the tables it indexes.
func FuzzIDSeq(f *testing.F) {
	for _, s := range []string{"i-000001", "i-1", "i-0000001", "i-00000x", "i-99999999999999999999", "vol-000001", "", "i-1000000", "i-9223372036854775807"} {
		f.Add(s)
	}
	_, p := testPlatform(f, nil)
	if _, err := p.CreateVolume(1); err != nil {
		f.Fatal(err)
	}
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(*cloud.Instance, error) {})
	f.Fuzz(func(t *testing.T, s string) {
		for _, prefix := range []string{"i-", "vol-"} {
			if n, ok := idSeq(prefix, s); ok && (n < 0 || paddedID(prefix, n) != s) {
				t.Fatalf("idSeq(%q, %q) = %d, which mints %q", prefix, s, n, paddedID(prefix, n))
			}
		}
		// Through the front door: must answer, never panic, and only the two
		// ids the platform issued may resolve.
		_, instErr := p.Instance(cloud.InstanceID(s))
		_, costErr := p.AccruedCost(cloud.InstanceID(s))
		// The issued volume is detached, so detaching it is ErrBadState.
		volErr := p.DetachVolume(cloud.VolumeID(s), nil)
		if (instErr == nil || costErr == nil) && s != "i-000001" {
			t.Fatalf("instance id %q resolved", s)
		}
		if !errors.Is(volErr, cloud.ErrNotFound) && s != "vol-000001" {
			t.Fatalf("volume id %q resolved", s)
		}
		if err := p.Terminate(cloud.InstanceID(s), nil); err == nil && s != "i-000001" {
			t.Fatalf("terminated %q", s)
		}
	})
}

// What the tables answer for the ids and addresses around the issued ones:
// never issued is ErrNotFound, terminated is ErrBadState (and still has a
// bill), deleted is ErrNotFound again.
func TestIDTablesNeverIssuedVersusGone(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := launchSpot(t, sched, p, 0.05)
	vol, err := p.CreateVolume(8)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.AllocateIP()
	if err != nil {
		t.Fatal(err)
	}
	next := cloud.InstanceID(paddedID("i-", 2))
	if err := p.AttachVolume(vol.ID, next, nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("attach to the next, unissued id = %v, want ErrNotFound", err)
	}
	if _, err := p.AccruedCost(next); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("bill of the next, unissued id = %v, want ErrNotFound", err)
	}
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if err := p.AssignIP(inst.ID, addr, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("assign to a terminated instance = %v, want ErrBadState", err)
	}
	if _, err := p.AccruedCost(inst.ID); err != nil {
		t.Errorf("a terminated instance lost its bill: %v", err)
	}
	if err := p.DeleteVolume(vol.ID); err != nil {
		t.Fatal(err)
	}
	if p.volume(vol.ID) != nil {
		t.Error("deleted volume still resolves")
	}
	if err := p.DeleteVolume(vol.ID); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}

	// Addresses: only what the pool handed out is known, in any spelling.
	for _, a := range []string{"10.0.0.0", "10.0.0.3", "10.0.0.5", "10.255.255.255", "11.0.0.4", "9.255.255.255", "::ffff:10.0.0.4", "fe80::1", "fe80::1%eth0"} {
		if err := p.ReleaseIP(netip.MustParseAddr(a)); !errors.Is(err, cloud.ErrNotFound) {
			t.Errorf("release of never-allocated %s = %v, want ErrNotFound", a, err)
		}
	}
	if err := p.ReleaseIP(cloud.Addr{}); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("release of the zero address = %v, want ErrNotFound", err)
	}
	if err := p.ReleaseIP(addr); err != nil {
		t.Fatal(err)
	}
	if again, err := p.AllocateIP(); err != nil || again != addr {
		t.Errorf("released address not reused first: got %v, %v; want %v", again, err, addr)
	}
}

// A VPC is exhausted exactly when the prefix is, whatever its family, and an
// unmasked prefix still starts four past the address it names.
func TestIPPoolPrefixes(t *testing.T) {
	for _, tc := range []struct {
		prefix string
		first  string
		count  int
	}{
		{"10.0.0.0/29", "10.0.0.4", 4},
		{"10.0.0.9/28", "10.0.0.13", 3},
		{"fd00::/125", "fd00::4", 4},
	} {
		ip := newIPPool(netip.MustParsePrefix(tc.prefix), 0)
		for i := 0; i < tc.count; i++ {
			a, err := ip.allocate()
			if err != nil {
				t.Fatalf("%s: allocation %d: %v", tc.prefix, i, err)
			}
			if i == 0 && a.String() != tc.first {
				t.Errorf("%s: first address %v, want %s", tc.prefix, a, tc.first)
			}
			if st := ip.state(a); st == nil || !st.inUse {
				t.Errorf("%s: %v not marked in use", tc.prefix, a)
			}
		}
		if _, err := ip.allocate(); !errors.Is(err, cloud.ErrNoAddresses) {
			t.Errorf("%s: allocation past the prefix = %v, want ErrNoAddresses", tc.prefix, err)
		}
	}
}

// The delayed completions of a warm platform allocate nothing: each rides a
// recycled op entry on an argument-carrying event.
func TestAsyncOpsSteadyStateAllocs(t *testing.T) {
	sched, p := testPlatform(t, nil)
	run := func() { sched.RunUntil(sched.Now()) }
	inst := launchSpot(t, sched, p, 0.05)
	vol, _ := p.CreateVolume(8)
	addr, _ := p.AllocateIP()
	done := 0
	cb := func(err error) {
		if err != nil {
			t.Errorf("operation failed: %v", err)
		}
		done++
	}
	cycle := func() {
		for _, err := range []error{p.AttachVolume(vol.ID, inst.ID, cb), p.AssignIP(inst.ID, addr, cb)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
		for _, err := range []error{p.DetachVolume(vol.ID, cb), p.UnassignIP(inst.ID, addr, cb)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		run()
	}
	cycle() // warm: the op entries, the instance's IP and volume slices
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("attach/assign/detach/unassign on a warm platform allocate %v times a cycle, want 0", allocs)
	}
	if done != 4*202 {
		t.Errorf("%d completions, want %d", done, 4*202)
	}

	// Terminate: warm the pool past the batch, then a batch of terminations
	// must cost nothing but what destroy itself does (it allocates nothing).
	const batch = 64
	var victims [2 * batch]cloud.InstanceID
	for i := range victims {
		victims[i] = launchSpot(t, sched, p, 0.05).ID
	}
	terminate := func(ids []cloud.InstanceID) {
		for _, id := range ids {
			if err := p.Terminate(id, cb); err != nil {
				t.Fatal(err)
			}
		}
		run()
	}
	terminate(victims[:batch])
	i := batch
	if allocs := testing.AllocsPerRun(batch-1, func() { terminate(victims[i : i+1]); i++ }); allocs != 0 {
		t.Errorf("terminate on a warm platform allocates %v times, want 0", allocs)
	}
	if _, err := p.Instance(victims[batch]); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("terminated instance still resolves: %v", err)
	}
}
