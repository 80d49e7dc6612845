package cloudsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/slab"
)

// CreateVolume implements cloud.Provider. Creation is immediate; the paper
// only measures attach/detach latency.
func (p *Platform) CreateVolume(sizeGB int) (*cloud.Volume, error) {
	if sizeGB <= 0 {
		return nil, fmt.Errorf("%w: volume size %d GB", cloud.ErrBadState, sizeGB)
	}
	v := &cloud.Volume{ID: cloud.VolumeID(paddedID("vol-", len(p.volumes))), SizeGB: sizeGB}
	p.volumes = append(p.volumes, v)
	return v, nil
}

// volume resolves a volume id to its record: nil for an id this platform
// never issued, and for a deleted volume (entry 0 is nil too).
func (p *Platform) volume(id cloud.VolumeID) *cloud.Volume {
	return p.volumes[p.volumeIndex(id)]
}

// volumeIndex is the table index of a volume id this platform minted, or 0.
func (p *Platform) volumeIndex(id cloud.VolumeID) int {
	if n, ok := idSeq("vol-", string(id)); ok && n < len(p.volumes) {
		return n
	}
	return 0
}

// AttachVolume implements cloud.Provider.
func (p *Platform) AttachVolume(vol cloud.VolumeID, inst cloud.InstanceID, cb cloud.Callback) error {
	v := p.volume(vol)
	if v == nil {
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
	// Reserve immediately so concurrent attaches fail fast. The completion
	// holds the instance, not its ledger slot: the slot is recycled if the
	// instance terminates before the attach lands, the instance never is.
	v.AttachedTo = inst
	delay := simkit.SampleSeconds(p.cfg.Latencies.AttachVolume, p.rng)
	p.after(delay, "attach-vol", op{kind: opAttachVolume, inst: st.inst, vol: v, cb: cb})
	return nil
}

// DetachVolume implements cloud.Provider.
func (p *Platform) DetachVolume(vol cloud.VolumeID, cb cloud.Callback) error {
	v := p.volume(vol)
	if v == nil {
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
	p.after(delay, "detach-vol", op{kind: opDetachVolume, inst: target, vol: v, cb: cb})
	return nil
}

// DeleteVolume implements cloud.Provider.
func (p *Platform) DeleteVolume(vol cloud.VolumeID) error {
	n := p.volumeIndex(vol)
	v := p.volumes[n]
	if v == nil {
		return fmt.Errorf("%w: volume %s", cloud.ErrNotFound, vol)
	}
	if v.AttachedTo != "" {
		return fmt.Errorf("%w: volume %s still attached to %s", cloud.ErrBadState, vol, v.AttachedTo)
	}
	p.volumes[n] = nil
	return nil
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

// addrState is what the platform knows about one address of the VPC.
type addrState struct {
	inUse bool // allocated to the renter
	// holder is the live instance the address is assigned to, replacing a
	// whole-ledger scan in AssignIP/ReleaseIP.
	holder *cloud.Instance
}

// ipPool allocates private addresses from the VPC prefix and keeps their
// state in a table indexed by offset from the prefix's first address:
// addresses are handed out in order, so the table grows with the highest
// one ever allocated and no address is ever hashed.
type ipPool struct {
	prefix netip.Prefix
	base   [16]byte // the prefix's first address
	next   netip.Addr
	free   []netip.Addr
	addrs  []addrState
}

func newIPPool(prefix netip.Prefix, sizeHint int) *ipPool {
	// Skip the network address and a small reserved block (gateway, DNS),
	// as VPCs do.
	addr := prefix.Addr()
	for i := 0; i < 4; i++ {
		addr = addr.Next()
	}
	return &ipPool{
		prefix: prefix, base: prefix.Masked().Addr().As16(), next: addr,
		addrs: make([]addrState, 0, sizeHint),
	}
}

// offset is a's distance from the prefix's first address. It reports false
// for anything that is not an address of the prefix: another family, a
// zoned or IPv4-mapped form, the zero Addr, an address outside it (or, in a
// prefix wider than 64 bits, further in than the pool can ever reach).
func (ip *ipPool) offset(a netip.Addr) (uint64, bool) {
	if !ip.prefix.Contains(a) {
		return 0, false
	}
	x := a.As16()
	if binary.BigEndian.Uint64(x[:8]) != binary.BigEndian.Uint64(ip.base[:8]) {
		return 0, false
	}
	return binary.BigEndian.Uint64(x[8:]) - binary.BigEndian.Uint64(ip.base[8:]), true
}

// state returns a's table entry, or nil for an address the pool has never
// handed out.
func (ip *ipPool) state(a netip.Addr) *addrState {
	if off, ok := ip.offset(a); ok && off < uint64(len(ip.addrs)) {
		return &ip.addrs[off]
	}
	return nil
}

func (ip *ipPool) allocate() (netip.Addr, error) {
	if n := len(ip.free); n > 0 {
		a := ip.free[n-1]
		ip.free = ip.free[:n-1]
		ip.state(a).inUse = true
		return a, nil
	}
	a := ip.next
	off, ok := ip.offset(a)
	if !ok {
		return netip.Addr{}, cloud.ErrNoAddresses
	}
	ip.next = ip.next.Next()
	for uint64(len(ip.addrs)) <= off {
		ip.addrs = append(ip.addrs, addrState{})
	}
	ip.addrs[off].inUse = true
	return a, nil
}

// AllocateIP implements cloud.Provider.
func (p *Platform) AllocateIP() (cloud.Addr, error) {
	return p.ipPool.allocate()
}

// ReleaseIP implements cloud.Provider.
func (p *Platform) ReleaseIP(addr cloud.Addr) error {
	as := p.ipPool.state(addr)
	if as == nil || !as.inUse {
		return fmt.Errorf("%w: address %s not allocated", cloud.ErrNotFound, addr)
	}
	// Must not be assigned to an instance.
	if as.holder != nil {
		return fmt.Errorf("%w: address %s assigned to %s", cloud.ErrBadState, addr, as.holder.ID)
	}
	as.inUse = false
	p.ipPool.free = append(p.ipPool.free, addr)
	return nil
}

// AssignIP implements cloud.Provider.
func (p *Platform) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	st := p.lookupInst(inst)
	if st == nil {
		return p.errNoInstance(inst)
	}
	as := p.ipPool.state(addr)
	if as == nil || !as.inUse {
		return fmt.Errorf("%w: address %s not allocated", cloud.ErrNotFound, addr)
	}
	if s := st.inst.State; s != cloud.StateRunning && s != cloud.StateWarned {
		return fmt.Errorf("%w: instance %s is %v", cloud.ErrBadState, inst, s)
	}
	if as.holder != nil {
		return fmt.Errorf("%w: address %s already assigned to %s", cloud.ErrBadState, addr, as.holder.ID)
	}
	delay := simkit.SampleSeconds(p.cfg.Latencies.AttachIP, p.rng)
	p.after(delay, "assign-ip", op{kind: opAssignIP, inst: st.inst, addr: addr, cb: cb})
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
	delay := simkit.SampleSeconds(p.cfg.Latencies.DetachIP, p.rng)
	p.after(delay, "unassign-ip", op{kind: opUnassignIP, inst: st.inst, addr: addr, cb: cb})
	return nil
}

// op is one delayed completion in flight: the second half of a launch, a
// termination, or a volume or address operation, held in Platform.ops until
// its latency has passed. The scheduled event carries only the entry's
// index, so an operation costs no closure; the entry is free again before
// its callback runs.
type op struct {
	kind opKind
	h    slab.Handle     // launch, terminate: the instance's ledger slot
	inst *cloud.Instance // the instance operated on (nil: detach from a dead one)
	vol  *cloud.Volume
	addr cloud.Addr
	cb   cloud.Callback
	icb  cloud.InstanceCallback // launch
}

type opKind uint8

const (
	opLaunch opKind = iota
	opTerminate
	opAttachVolume
	opDetachVolume
	opAssignIP
	opUnassignIP
)

// after schedules o's completion d from now under label.
func (p *Platform) after(d simkit.Time, label string, o op) {
	var i uint32
	if n := len(p.opFree); n > 0 {
		i, p.opFree = p.opFree[n-1], p.opFree[:n-1]
		p.ops[i] = o
	} else {
		i = uint32(len(p.ops))
		p.ops = append(p.ops, o)
	}
	p.sched.AfterArg(d, label, p.opDoneFn, uint64(i))
}

// opDone completes the operation in entry i.
func (p *Platform) opDone(i uint64) {
	o := p.ops[i]
	p.ops[i] = op{}
	p.opFree = append(p.opFree, uint32(i))
	var err error
	switch o.kind {
	case opLaunch:
		p.launched(o)
		return
	case opTerminate:
		// A forced kill may have beaten this event and recycled the slot;
		// the handle check keeps the destroy off the slot's next occupant.
		if st := p.instSlab.Get(o.h); st != nil {
			p.destroy(st)
		}
	case opAttachVolume:
		if o.inst.State == cloud.StateTerminated {
			o.vol.AttachedTo = ""
			err = fmt.Errorf("%w: instance %s terminated during attach", cloud.ErrBadState, o.inst.ID)
		} else {
			o.inst.Volumes = append(o.inst.Volumes, o.vol.ID)
		}
	case opDetachVolume:
		if o.inst != nil {
			o.inst.Volumes = removeVolume(o.inst.Volumes, o.vol.ID)
		}
		o.vol.AttachedTo = ""
	case opAssignIP:
		if o.inst.State == cloud.StateTerminated {
			err = fmt.Errorf("%w: instance %s terminated during IP assign", cloud.ErrBadState, o.inst.ID)
		} else {
			o.inst.IPs = append(o.inst.IPs, o.addr)
			p.ipPool.state(o.addr).holder = o.inst
		}
	case opUnassignIP:
		out := o.inst.IPs[:0]
		for _, a := range o.inst.IPs {
			if a != o.addr {
				out = append(out, a)
			}
		}
		o.inst.IPs = out
		if as := p.ipPool.state(o.addr); as.holder == o.inst {
			as.holder = nil
		}
	}
	if o.cb != nil {
		o.cb(err)
	}
}
