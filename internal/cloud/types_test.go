package cloud

import (
	"net/netip"
	"strings"
	"testing"
)

func typeByName(t *testing.T, name string) InstanceType {
	t.Helper()
	for _, it := range DefaultCatalog() {
		if it.Name == name {
			return it
		}
	}
	t.Fatalf("type %q not in catalog", name)
	return InstanceType{}
}

func TestCatalogPricesScaleWithSize(t *testing.T) {
	med := typeByName(t, M3Medium)
	lrg := typeByName(t, M3Large)
	xl := typeByName(t, M3XLarge)
	xxl := typeByName(t, M32XLarge)
	if lrg.OnDemand != 2*med.OnDemand || xl.OnDemand != 2*lrg.OnDemand || xxl.OnDemand != 2*xl.OnDemand {
		t.Error("on-demand prices should double with size (paper §4.2)")
	}
	if med.OnDemand != 0.07 {
		t.Errorf("m3.medium on-demand = %v, paper says $0.07/hr", med.OnDemand)
	}
	if xl.OnDemand != 0.28 {
		t.Errorf("m3.xlarge on-demand = %v, paper says $0.28/hr", xl.OnDemand)
	}
}

func TestCatalogHVM(t *testing.T) {
	if typeByName(t, M1Small).HVM {
		t.Error("m1.small should not be HVM (SpotCheck cannot use it)")
	}
	for _, n := range []string{M3Medium, M3Large, M3XLarge, M32XLarge} {
		if !typeByName(t, n).HVM {
			t.Errorf("%s should be HVM", n)
		}
	}
}

func TestUnitsSlicing(t *testing.T) {
	med := typeByName(t, M3Medium)
	lrg := typeByName(t, M3Large)
	xxl := typeByName(t, M32XLarge)
	if got := lrg.Units(med); got != 2 {
		t.Errorf("m3.large holds %d m3.medium slices, want 2", got)
	}
	if got := xxl.Units(med); got != 8 {
		t.Errorf("m3.2xlarge holds %d m3.medium slices, want 8", got)
	}
	if got := med.Units(lrg); got != 0 {
		t.Errorf("m3.medium holds %d m3.large slices, want 0", got)
	}
	if got := med.Units(med); got != 1 {
		t.Errorf("self-slicing = %d, want 1", got)
	}
	if got := med.Units(InstanceType{}); got != 0 {
		t.Errorf("zero type should not fit, got %d", got)
	}
}

func TestUnitsRequireHVM(t *testing.T) {
	// Regression: Units used to ignore HVM, so a big paravirtual host
	// (which cannot boot the XenBlanket nested hypervisor, §4.1) looked
	// sliceable. A non-HVM host must hold zero slices no matter how large.
	med := typeByName(t, M3Medium)
	bigPV := InstanceType{Name: "m1.big", VCPUs: 8, MemoryMB: 30720, OnDemand: 0.48, HVM: false, NetworkMBs: 120}
	if got := bigPV.Units(med); got != 0 {
		t.Errorf("non-HVM host holds %d slices, want 0", got)
	}
	if got := typeByName(t, M1Small).Units(typeByName(t, M1Small)); got != 0 {
		t.Errorf("m1.small self-slicing = %d, want 0 (paravirtual)", got)
	}
	hvm := bigPV
	hvm.HVM = true
	if got := hvm.Units(med); got != 8 {
		t.Errorf("HVM twin holds %d slices, want 8", got)
	}
}

func TestCompatibleUnits(t *testing.T) {
	med := typeByName(t, M3Medium) // 1 vCPU, 3840 MB, 60 MB/s
	lrg := typeByName(t, M3Large)  // 2 vCPU, 7680 MB, 85 MB/s
	// cpu/mem admit 2 medium slices, but 85/60 MB/s only sustains 1.
	if got := lrg.CompatibleUnits(med); got != 1 {
		t.Errorf("m3.large compatible-units = %d, want 1 (network-capped)", got)
	}
	if got := lrg.Units(med); got != 2 {
		t.Errorf("m3.large cpu/mem units = %d, want 2", got)
	}
	// A baseline without a network requirement falls back to cpu/mem slicing.
	noNet := med
	noNet.NetworkMBs = 0
	if got := lrg.CompatibleUnits(noNet); got != 2 {
		t.Errorf("no-network baseline = %d units, want 2", got)
	}
	// Non-HVM hosts stay unplaceable under the network-aware path too.
	pv := lrg
	pv.HVM = false
	if got := pv.CompatibleUnits(med); got != 0 {
		t.Errorf("non-HVM compatible-units = %d, want 0", got)
	}
}

func TestInstanceHasIP(t *testing.T) {
	a := netip.MustParseAddr("10.0.0.5")
	b := netip.MustParseAddr("10.0.0.6")
	inst := &Instance{IPs: []Addr{a}}
	if !inst.HasIP(a) {
		t.Error("HasIP(a) = false")
	}
	if inst.HasIP(b) {
		t.Error("HasIP(b) = true")
	}
}

func TestStringers(t *testing.T) {
	if MarketOnDemand.String() != "on-demand" || MarketSpot.String() != "spot" {
		t.Error("Market.String wrong")
	}
	if !strings.Contains(Market(9).String(), "9") {
		t.Error("unknown market should include code")
	}
	states := map[InstanceState]string{
		StatePending: "pending", StateRunning: "running",
		StateWarned: "warned", StateTerminated: "terminated",
	}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("state %d = %q, want %q", int(s), s.String(), want)
		}
	}
	if !strings.Contains(InstanceState(9).String(), "9") {
		t.Error("unknown state should include code")
	}
	if USD(0.07).String() != "$0.0700" {
		t.Errorf("USD string = %q", USD(0.07).String())
	}
}

func TestDefaultZonesDistinct(t *testing.T) {
	zs := DefaultZones()
	if len(zs) < 2 {
		t.Fatal("need at least two zones for cross-zone experiments")
	}
	seen := map[Zone]bool{}
	for _, z := range zs {
		if seen[z] {
			t.Fatalf("duplicate zone %q", z)
		}
		seen[z] = true
	}
}
