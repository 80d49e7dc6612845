package cloudsim

import (
	"fmt"
	"net/netip"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// CreateVolume implements cloud.Provider. Creation is immediate; the paper
// only measures attach/detach latency.
func (p *Platform) CreateVolume(sizeGB int) (*cloud.Volume, error) {
	if sizeGB <= 0 {
		return nil, fmt.Errorf("%w: volume size %d GB", cloud.ErrBadState, sizeGB)
	}
	p.nextVolume++
	v := &cloud.Volume{ID: cloud.VolumeID(paddedID("vol-", p.nextVolume)), SizeGB: sizeGB}
	p.volumes[v.ID] = v
	return v, nil
}

// AttachVolume implements cloud.Provider.
func (p *Platform) AttachVolume(vol cloud.VolumeID, inst cloud.InstanceID, cb cloud.Callback) error {
	v, ok := p.volumes[vol]
	if !ok {
		return fmt.Errorf("%w: volume %s", cloud.ErrNotFound, vol)
	}
	st := p.lookupInst(inst)
	if st == nil {
		return p.errNoInstance(inst)
	}
	if v.AttachedTo != "" {
		return fmt.Errorf("%w: volume %s attached to %s", cloud.ErrBadState, vol, v.AttachedTo)
	}
	if s := st.inst.State; s != cloud.StateRunning && s != cloud.StateWarned {
		return fmt.Errorf("%w: instance %s is %v", cloud.ErrBadState, inst, s)
	}
	// Reserve immediately so concurrent attaches fail fast. The closure
	// captures the instance, not its ledger slot: the slot is recycled if
	// the instance terminates before the attach lands, the instance never is.
	v.AttachedTo = inst
	target := st.inst
	delay := simkit.SampleSeconds(p.cfg.Latencies.AttachVolume, p.rng)
	p.sched.After(delay, "attach-vol", func() {
		if target.State == cloud.StateTerminated {
			v.AttachedTo = ""
			if cb != nil {
				cb(fmt.Errorf("%w: instance %s terminated during attach", cloud.ErrBadState, inst))
			}
			return
		}
		target.Volumes = append(target.Volumes, vol)
		if cb != nil {
			cb(nil)
		}
	})
	return nil
}

// DetachVolume implements cloud.Provider.
func (p *Platform) DetachVolume(vol cloud.VolumeID, cb cloud.Callback) error {
	v, ok := p.volumes[vol]
	if !ok {
		return fmt.Errorf("%w: volume %s", cloud.ErrNotFound, vol)
	}
	if v.AttachedTo == "" {
		return fmt.Errorf("%w: volume %s not attached", cloud.ErrBadState, vol)
	}
	var target *cloud.Instance
	if st := p.lookupInst(v.AttachedTo); st != nil {
		target = st.inst
	}
	delay := simkit.SampleSeconds(p.cfg.Latencies.DetachVolume, p.rng)
	p.sched.After(delay, "detach-vol", func() {
		if target != nil {
			target.Volumes = removeVolume(target.Volumes, vol)
		}
		v.AttachedTo = ""
		if cb != nil {
			cb(nil)
		}
	})
	return nil
}

// DeleteVolume implements cloud.Provider.
func (p *Platform) DeleteVolume(vol cloud.VolumeID) error {
	v, ok := p.volumes[vol]
	if !ok {
		return fmt.Errorf("%w: volume %s", cloud.ErrNotFound, vol)
	}
	if v.AttachedTo != "" {
		return fmt.Errorf("%w: volume %s still attached to %s", cloud.ErrBadState, vol, v.AttachedTo)
	}
	delete(p.volumes, vol)
	return nil
}

// Volume returns the current view of a volume (not part of cloud.Provider;
// used by tests and the daemon's inspection API).
func (p *Platform) Volume(id cloud.VolumeID) (*cloud.Volume, error) {
	v, ok := p.volumes[id]
	if !ok {
		return nil, fmt.Errorf("%w: volume %s", cloud.ErrNotFound, id)
	}
	return v, nil
}

func removeVolume(vols []cloud.VolumeID, id cloud.VolumeID) []cloud.VolumeID {
	out := vols[:0]
	for _, v := range vols {
		if v != id {
			out = append(out, v)
		}
	}
	return out
}

// ipPool allocates private addresses from the VPC prefix.
type ipPool struct {
	prefix netip.Prefix
	next   netip.Addr
	free   []netip.Addr
	inUse  map[netip.Addr]bool
}

func newIPPool(prefix netip.Prefix) *ipPool {
	// Skip the network address and a small reserved block (gateway, DNS),
	// as VPCs do.
	addr := prefix.Addr()
	for i := 0; i < 4; i++ {
		addr = addr.Next()
	}
	return &ipPool{prefix: prefix, next: addr, inUse: map[netip.Addr]bool{}}
}

func (ip *ipPool) allocate() (netip.Addr, error) {
	if n := len(ip.free); n > 0 {
		a := ip.free[n-1]
		ip.free = ip.free[:n-1]
		ip.inUse[a] = true
		return a, nil
	}
	if !ip.prefix.Contains(ip.next) {
		return netip.Addr{}, cloud.ErrNoAddresses
	}
	a := ip.next
	ip.next = ip.next.Next()
	ip.inUse[a] = true
	return a, nil
}

func (ip *ipPool) release(a netip.Addr) {
	if ip.inUse[a] {
		delete(ip.inUse, a)
		ip.free = append(ip.free, a)
	}
}

// AllocateIP implements cloud.Provider.
func (p *Platform) AllocateIP() (cloud.Addr, error) {
	return p.ipPool.allocate()
}

// ReleaseIP implements cloud.Provider.
func (p *Platform) ReleaseIP(addr cloud.Addr) error {
	if !p.ipPool.inUse[addr] {
		return fmt.Errorf("%w: address %s not allocated", cloud.ErrNotFound, addr)
	}
	// Must not be assigned to an instance. The index replaces the historical
	// whole-ledger scan (O(fleet) per release).
	if holder, ok := p.ipAssigned[addr]; ok {
		return fmt.Errorf("%w: address %s assigned to %s", cloud.ErrBadState, addr, holder.ID)
	}
	p.ipPool.release(addr)
	return nil
}

// AssignIP implements cloud.Provider.
func (p *Platform) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	st := p.lookupInst(inst)
	if st == nil {
		return p.errNoInstance(inst)
	}
	if !p.ipPool.inUse[addr] {
		return fmt.Errorf("%w: address %s not allocated", cloud.ErrNotFound, addr)
	}
	if s := st.inst.State; s != cloud.StateRunning && s != cloud.StateWarned {
		return fmt.Errorf("%w: instance %s is %v", cloud.ErrBadState, inst, s)
	}
	if holder, ok := p.ipAssigned[addr]; ok {
		return fmt.Errorf("%w: address %s already assigned to %s", cloud.ErrBadState, addr, holder.ID)
	}
	target := st.inst
	delay := simkit.SampleSeconds(p.cfg.Latencies.AttachIP, p.rng)
	p.sched.After(delay, "assign-ip", func() {
		if target.State == cloud.StateTerminated {
			if cb != nil {
				cb(fmt.Errorf("%w: instance %s terminated during IP assign", cloud.ErrBadState, inst))
			}
			return
		}
		target.IPs = append(target.IPs, addr)
		p.ipAssigned[addr] = target
		if cb != nil {
			cb(nil)
		}
	})
	return nil
}

// UnassignIP implements cloud.Provider.
func (p *Platform) UnassignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	st := p.lookupInst(inst)
	if st == nil {
		return p.errNoInstance(inst)
	}
	if !st.inst.HasIP(addr) {
		return fmt.Errorf("%w: address %s not on instance %s", cloud.ErrBadState, addr, inst)
	}
	target := st.inst
	delay := simkit.SampleSeconds(p.cfg.Latencies.DetachIP, p.rng)
	p.sched.After(delay, "unassign-ip", func() {
		out := target.IPs[:0]
		for _, a := range target.IPs {
			if a != addr {
				out = append(out, a)
			}
		}
		target.IPs = out
		if p.ipAssigned[addr] == target {
			delete(p.ipAssigned, addr)
		}
		if cb != nil {
			cb(nil)
		}
	})
	return nil
}
