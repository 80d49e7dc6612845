// Package cloud defines the provider-neutral vocabulary of a native IaaS
// platform — instance types, zones, markets, instances, volumes, private
// IPs — and the Provider interface that the SpotCheck controller programs
// against. The simulated EC2-like platform in internal/cloudsim implements
// Provider; a binding to a real platform could be dropped in behind the
// same interface.
package cloud

import (
	"fmt"
	"net/netip"

	"repro/internal/simkit"
)

// USD is an amount of money in dollars. Prices are $/hr; accumulated costs
// are plain dollars.
type USD float64

func (u USD) String() string { return fmt.Sprintf("$%.4f", float64(u)) }

// Zone identifies an availability zone within a region (e.g. "us-east-1a").
// Spot prices fluctuate independently per (instance type, zone) market.
type Zone string

// Market distinguishes the two native contract types the paper assumes.
type Market int

const (
	// MarketOnDemand servers are non-revocable and charge a fixed $/hr.
	MarketOnDemand Market = iota
	// MarketSpot servers charge the fluctuating market price and are
	// revoked (with a short warning) when the price exceeds the bid.
	MarketSpot
)

func (m Market) String() string {
	switch m {
	case MarketOnDemand:
		return "on-demand"
	case MarketSpot:
		return "spot"
	default:
		return fmt.Sprintf("market(%d)", int(m))
	}
}

// InstanceType describes a native server type's resource allotment and its
// fixed on-demand price. HVM marks hardware-virtualization-capable types:
// the XenBlanket nested hypervisor only runs on HVM types, so SpotCheck is
// restricted to them.
type InstanceType struct {
	Name       string
	VCPUs      int
	MemoryMB   int
	OnDemand   USD // $/hr, fixed
	HVM        bool
	NetworkMBs float64 // usable network bandwidth, MB/s (shared by nested VMs)
}

// Units reports how many nested VMs of type other fit inside this type when
// sliced by the nested hypervisor (§4.2 "slicing"). Zero when other does
// not fit at all — including every non-HVM type: the XenBlanket nested
// hypervisor only runs on HVM hosts, so a paravirtual type has no slicing
// capacity no matter how large it is.
func (it InstanceType) Units(other InstanceType) int {
	if !it.HVM {
		return 0
	}
	if other.VCPUs <= 0 || other.MemoryMB <= 0 {
		return 0
	}
	byCPU := it.VCPUs / other.VCPUs
	byMem := it.MemoryMB / other.MemoryMB
	if byCPU < byMem {
		return byCPU
	}
	return byMem
}

// CompatibleUnits reports how many nested VMs of type base this type can
// host such that every slice still dominates base on vCPU, memory *and*
// network: Units(base) additionally capped so each slice's share of the
// host's bandwidth stays at or above base's allotment
// (NetworkMBs/units >= base.NetworkMBs). A type with zero CompatibleUnits
// is not a feasible substitute host for base. Bases without a network
// requirement (NetworkMBs <= 0) fall back to plain Units.
func (it InstanceType) CompatibleUnits(base InstanceType) int {
	u := it.Units(base)
	if u <= 0 || base.NetworkMBs <= 0 {
		return u
	}
	byNet := int(it.NetworkMBs / base.NetworkMBs)
	if byNet < u {
		u = byNet
	}
	return u
}

// InstanceID uniquely identifies a native instance within a provider.
type InstanceID string

// VolumeID uniquely identifies a network-attached (EBS-like) volume.
type VolumeID string

// InstanceState is the lifecycle of a native instance.
type InstanceState int

const (
	// StatePending covers the interval between the API request and the
	// instance becoming usable (Table 1: tens to hundreds of seconds).
	StatePending InstanceState = iota
	// StateRunning means the instance is usable.
	StateRunning
	// StateWarned means a spot revocation warning has been issued; the
	// platform will force-terminate when the warning window expires.
	StateWarned
	// StateTerminated is final.
	StateTerminated
)

func (s InstanceState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateWarned:
		return "warned"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Instance is a native server rented from the platform. Fields are
// maintained by the Provider; callers must treat them as read-only.
type Instance struct {
	ID       InstanceID
	Type     InstanceType
	Zone     Zone
	Market   Market
	Bid      USD // spot only: max $/hr the renter will pay
	State    InstanceState
	Launched simkit.Time // when it entered StateRunning
	Ended    simkit.Time // when it entered StateTerminated

	// IPs are the secondary private addresses currently assigned to the
	// instance's interfaces (the nested VMs' addresses).
	IPs []netip.Addr
	// Volumes currently attached.
	Volumes []VolumeID
}

// HasIP reports whether addr is currently assigned to the instance.
func (i *Instance) HasIP(addr netip.Addr) bool {
	for _, a := range i.IPs {
		if a == addr {
			return true
		}
	}
	return false
}

// Volume is a network-attached persistent disk (EBS-like).
type Volume struct {
	ID         VolumeID
	SizeGB     int
	AttachedTo InstanceID // empty when detached
}

// WarningWindow is EC2's interval between a spot revocation warning and
// the forced termination (§3.2).
const WarningWindow = 120 * simkit.Second

// RevocationWarning notifies the renter that a spot instance will be
// force-terminated at Deadline unless it is voluntarily terminated first.
// EC2's window is WarningWindow.
type RevocationWarning struct {
	Instance *Instance
	Issued   simkit.Time
	Deadline simkit.Time
	// Price is the market price that exceeded the bid.
	Price USD
}
