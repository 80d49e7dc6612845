package cloud

import "net/netip"

// Addr is a private IPv4/IPv6 address within the derivative cloud's VPC.
type Addr = netip.Addr

// The default catalog mirrors the EC2 types the paper uses: the HVM-capable
// m3.* family (XenBlanket requires HVM) plus m1.small, which appears in
// Figure 1. On-demand prices are the paper's US-East values circa 2014
// (m3.medium $0.07/hr, m3.xlarge $0.28/hr backup servers) with the family's
// 2× scaling between adjacent sizes.

// Names of the catalog types used throughout the evaluation.
const (
	M1Small   = "m1.small"
	M3Medium  = "m3.medium"
	M3Large   = "m3.large"
	M3XLarge  = "m3.xlarge"
	M32XLarge = "m3.2xlarge"
)

// DefaultCatalog returns the instance types the simulated platform offers.
func DefaultCatalog() []InstanceType {
	return []InstanceType{
		{Name: M1Small, VCPUs: 1, MemoryMB: 1700, OnDemand: 0.06, HVM: false, NetworkMBs: 60},
		{Name: M3Medium, VCPUs: 1, MemoryMB: 3840, OnDemand: 0.07, HVM: true, NetworkMBs: 60},
		{Name: M3Large, VCPUs: 2, MemoryMB: 7680, OnDemand: 0.14, HVM: true, NetworkMBs: 85},
		{Name: M3XLarge, VCPUs: 4, MemoryMB: 15360, OnDemand: 0.28, HVM: true, NetworkMBs: 120},
		{Name: M32XLarge, VCPUs: 8, MemoryMB: 30720, OnDemand: 0.56, HVM: true, NetworkMBs: 125},
	}
}

// OnDemandPrice is typ's on-demand price in DefaultCatalog. A type the
// catalog does not list (a replayed archive's, say) is priced as an
// m3.medium, the paper's evaluation type.
func OnDemandPrice(typ string) USD {
	var anchor USD
	for _, it := range DefaultCatalog() {
		if it.Name == typ {
			return it.OnDemand
		}
		if it.Name == M3Medium {
			anchor = it.OnDemand
		}
	}
	return anchor
}

// DefaultZones returns the simulated region's availability zones.
func DefaultZones() []Zone {
	return []Zone{"zone-a", "zone-b", "zone-c"}
}
