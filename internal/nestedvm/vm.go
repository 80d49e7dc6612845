package nestedvm

import (
	"fmt"

	"repro/internal/cloud"
)

// MemoryProfile describes the memory behaviour that determines a VM's
// migration cost: total footprint and the steady-state rate at which the
// workload dirties unique pages (what continuous checkpointing must ship).
type MemoryProfile struct {
	// SizeMB is the nested VM's RAM allotment.
	SizeMB float64
	// DirtyMBs is the unique-page dirtying rate in MB/s during normal
	// operation; this is the bandwidth continuous checkpointing consumes
	// and the load a pre-copy round must catch up with.
	DirtyMBs float64
	// SkeletonMB is the minimal resume state (vCPU, page tables, hypervisor
	// state) for lazy restoration; the paper measures ~5 MB.
	SkeletonMB float64
}

// Validate reports profile errors.
func (m MemoryProfile) Validate() error {
	switch {
	case m.SizeMB <= 0:
		return fmt.Errorf("nestedvm: SizeMB must be positive, got %v", m.SizeMB)
	case m.DirtyMBs < 0:
		return fmt.Errorf("nestedvm: DirtyMBs must be non-negative, got %v", m.DirtyMBs)
	case m.SkeletonMB <= 0 || m.SkeletonMB > m.SizeMB:
		return fmt.Errorf("nestedvm: SkeletonMB %v must be in (0, SizeMB]", m.SkeletonMB)
	}
	return nil
}

// DefaultMemory returns the profile used throughout the evaluation: a
// nested VM sized for an m3.medium slice running a memory-intensive
// interactive workload.
func DefaultMemory() MemoryProfile {
	return MemoryProfile{SizeMB: 3840, DirtyMBs: 2.8, SkeletonMB: 5}
}

// ID identifies a nested VM within the derivative cloud.
type ID string

// VM is a customer's nested VM. The SpotCheck controller owns all mutable
// fields; other packages treat VMs as read-only.
type VM struct {
	ID       ID
	Customer string
	// Type is the *requested* server type; the VM may be hosted on a
	// larger native instance as a slice (§4.2).
	Type   cloud.InstanceType
	Memory MemoryProfile

	// IP is the VPC private address that follows the VM across hosts.
	IP cloud.Addr
	// Volume is the network-attached root disk that is detached/attached
	// around each migration.
	Volume cloud.VolumeID
	// Host is the native instance the VM last landed on ("" until it first
	// lands).
	Host cloud.InstanceID
	// BackupServer is the backup server holding its checkpoint, if the VM
	// is on a spot server ("" on on-demand hosts, which live-migrate).
	BackupServer string

	// Ledger accounts availability and degradation.
	Ledger Ledger

	// Counters for reports.
	Migrations  int
	Revocations int
}

// NewVM constructs a nested VM. The ledger is NOT started: the controller
// opens it when the VM first enters service, so provisioning latency does
// not count against availability.
func NewVM(id ID, customer string, typ cloud.InstanceType, mem MemoryProfile) (*VM, error) {
	if err := mem.Validate(); err != nil {
		return nil, err
	}
	if id == "" {
		return nil, fmt.Errorf("nestedvm: empty VM id")
	}
	return &VM{ID: id, Customer: customer, Type: typ, Memory: mem}, nil
}
