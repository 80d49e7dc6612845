package cloudsim

import (
	"errors"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

func runningInstance(t *testing.T, sched *simkit.Scheduler, p *Platform) *cloud.Instance {
	t.Helper()
	var inst *cloud.Instance
	p.RunOnDemand(cloud.M3Medium, "zone-a", func(i *cloud.Instance, err error) {
		if err != nil {
			t.Fatal(err)
		}
		inst = i
	})
	sched.RunUntil(sched.Now())
	if inst == nil {
		t.Fatal("launch did not complete")
	}
	return inst
}

func TestVolumeLifecycle(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := runningInstance(t, sched, p)

	v, err := p.CreateVolume(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CreateVolume(0); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("zero-size volume err = %v", err)
	}

	var done bool
	if err := p.AttachVolume(v.ID, inst.ID, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if !done {
		t.Fatal("attach did not complete")
	}
	if v.AttachedTo != inst.ID {
		t.Errorf("AttachedTo = %v", v.AttachedTo)
	}
	if len(inst.Volumes) != 1 || inst.Volumes[0] != v.ID {
		t.Errorf("instance volumes = %v", inst.Volumes)
	}

	// Double attach fails synchronously.
	if err := p.AttachVolume(v.ID, inst.ID, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("double attach err = %v", err)
	}
	// Delete while attached fails.
	if err := p.DeleteVolume(v.ID); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("delete attached err = %v", err)
	}

	done = false
	if err := p.DetachVolume(v.ID, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if !done || v.AttachedTo != "" || len(inst.Volumes) != 0 {
		t.Errorf("detach incomplete: done=%v attached=%q vols=%v", done, v.AttachedTo, inst.Volumes)
	}
	if err := p.DetachVolume(v.ID, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("detach detached err = %v", err)
	}
	if err := p.DeleteVolume(v.ID); err != nil {
		t.Errorf("delete err = %v", err)
	}
	if p.volume(v.ID) != nil {
		t.Error("deleted volume still visible")
	}
}

func TestVolumeErrors(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := runningInstance(t, sched, p)
	if err := p.AttachVolume("vol-none", inst.ID, nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("attach unknown volume err = %v", err)
	}
	v, _ := p.CreateVolume(8)
	if err := p.AttachVolume(v.ID, "i-none", nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("attach to unknown instance err = %v", err)
	}
	if err := p.DetachVolume("vol-none", nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("detach unknown err = %v", err)
	}
	if err := p.DeleteVolume("vol-none"); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("delete unknown err = %v", err)
	}
}

func TestVolumesAutoDetachOnTermination(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := runningInstance(t, sched, p)
	v, _ := p.CreateVolume(8)
	if err := p.AttachVolume(v.ID, inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if v.AttachedTo != "" {
		t.Error("volume still attached after instance termination")
	}
}

func TestIPLifecycle(t *testing.T) {
	sched, p := testPlatform(t, nil)
	src := runningInstance(t, sched, p)
	dst := runningInstance(t, sched, p)

	addr, err := p.AllocateIP()
	if err != nil {
		t.Fatal(err)
	}
	var done bool
	if err := p.AssignIP(src.ID, addr, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if !done || !src.HasIP(addr) {
		t.Fatal("assign incomplete")
	}

	// The same address cannot be assigned twice.
	if err := p.AssignIP(dst.ID, addr, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("double assign err = %v", err)
	}
	// Releasing an assigned address fails.
	if err := p.ReleaseIP(addr); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("release assigned err = %v", err)
	}

	// The migration re-plumbing of §3.4: unassign from source, reassign
	// to destination; the address is preserved.
	done = false
	if err := p.UnassignIP(src.ID, addr, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if !done || src.HasIP(addr) {
		t.Fatal("unassign incomplete")
	}
	if err := p.AssignIP(dst.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if !dst.HasIP(addr) {
		t.Fatal("address did not move to destination")
	}
}

func TestIPErrors(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := runningInstance(t, sched, p)
	other, _ := p.AllocateIP()
	_ = other
	var bogus cloud.Addr
	if err := p.AssignIP(inst.ID, bogus, nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("assign unallocated err = %v", err)
	}
	if err := p.AssignIP("i-none", other, nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("assign to unknown instance err = %v", err)
	}
	if err := p.UnassignIP(inst.ID, other, nil); !errors.Is(err, cloud.ErrBadState) {
		t.Errorf("unassign not-assigned err = %v", err)
	}
	if err := p.UnassignIP("i-none", other, nil); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("unassign unknown instance err = %v", err)
	}
	if err := p.ReleaseIP(bogus); !errors.Is(err, cloud.ErrNotFound) {
		t.Errorf("release unallocated err = %v", err)
	}
	if err := p.ReleaseIP(other); err != nil {
		t.Errorf("release err = %v", err)
	}
}

func TestIPsSurviveTermination(t *testing.T) {
	sched, p := testPlatform(t, nil)
	inst := runningInstance(t, sched, p)
	addr, _ := p.AllocateIP()
	if err := p.AssignIP(inst.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if err := p.Terminate(inst.ID, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if inst.HasIP(addr) {
		t.Error("address still on terminated instance")
	}
	// VPC semantics: the allocation survives the instance, so the renter
	// can reassign the same address to a migration destination.
	dst := runningInstance(t, sched, p)
	if err := p.AssignIP(dst.ID, addr, nil); err != nil {
		t.Fatalf("reassigning surviving address: %v", err)
	}
	sched.RunUntil(sched.Now())
	if !dst.HasIP(addr) {
		t.Error("address did not move to new instance")
	}
	// And the renter can explicitly release it once done.
	if err := p.UnassignIP(dst.ID, addr, nil); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(sched.Now())
	if err := p.ReleaseIP(addr); err != nil {
		t.Fatalf("release after termination: %v", err)
	}
}

func TestIPReuseAfterRelease(t *testing.T) {
	_, p := testPlatform(t, nil)
	a, _ := p.AllocateIP()
	b, _ := p.AllocateIP()
	if a == b {
		t.Fatal("duplicate allocation")
	}
	if err := p.ReleaseIP(a); err != nil {
		t.Fatal(err)
	}
	c, _ := p.AllocateIP()
	if c != a {
		t.Errorf("expected reuse of %v, got %v", a, c)
	}
}
