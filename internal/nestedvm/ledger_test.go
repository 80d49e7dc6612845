package nestedvm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

func TestLedgerBasicAccounting(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 10*simkit.Second)
	l.Set(CondNormal, 15*simkit.Second)
	l.Set(CondDegraded, 20*simkit.Second)
	l.Set(CondNormal, 30*simkit.Second)
	down, deg := l.Snapshot(100 * simkit.Second)
	if down != 5*simkit.Second {
		t.Errorf("down = %v, want 5s", down)
	}
	if deg != 10*simkit.Second {
		t.Errorf("degraded = %v, want 10s", deg)
	}
	ds, dg := l.Spells()
	if ds != 1 || dg != 1 {
		t.Errorf("spells = %d,%d want 1,1", ds, dg)
	}
}

func TestLedgerOpenIntervalCounted(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 10*simkit.Second)
	down, _ := l.Snapshot(25 * simkit.Second)
	if down != 15*simkit.Second {
		t.Errorf("open down interval = %v, want 15s", down)
	}
	// Snapshot does not close: later snapshot keeps growing.
	down, _ = l.Snapshot(30 * simkit.Second)
	if down != 20*simkit.Second {
		t.Errorf("later snapshot = %v, want 20s", down)
	}
}

func TestLedgerSetSameConditionNoOp(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 10*simkit.Second)
	l.Set(CondDown, 20*simkit.Second) // no new spell
	if ds, _ := l.Spells(); ds != 1 {
		t.Errorf("spells = %d, want 1", ds)
	}
	down, _ := l.Snapshot(30 * simkit.Second)
	if down != 20*simkit.Second {
		t.Errorf("down = %v, want 20s", down)
	}
}

func TestLedgerAvailability(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 50*simkit.Second)
	l.Set(CondNormal, 51*simkit.Second)
	// 1s down out of 100s => 99%
	if a := l.Availability(0, 100*simkit.Second); math.Abs(a-0.99) > 1e-12 {
		t.Errorf("availability = %v, want 0.99", a)
	}
	if a := l.Availability(0, 0); a != 1 {
		t.Errorf("degenerate availability = %v, want 1", a)
	}
}

func TestLedgerDegradedFraction(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDegraded, 0)
	l.Set(CondNormal, 2*simkit.Second)
	down, deg := l.Snapshot(100 * simkit.Second)
	if f := float64(deg) / float64(100*simkit.Second); down != 0 || math.Abs(f-0.02) > 1e-12 {
		t.Errorf("down %v, degraded fraction = %v, want 0 and 0.02", down, f)
	}
}

func TestLedgerPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("set before start", func() {
		var l Ledger
		l.Set(CondDown, 0)
	})
	expectPanic("double start", func() {
		var l Ledger
		l.Start(0)
		l.Start(1)
	})
	expectPanic("time regression", func() {
		var l Ledger
		l.Start(10 * simkit.Second)
		l.Set(CondDown, 5*simkit.Second)
	})
	expectPanic("snapshot before since", func() {
		var l Ledger
		l.Start(10 * simkit.Second)
		l.Snapshot(5 * simkit.Second)
	})
}

func TestLedgerUnstartedSnapshot(t *testing.T) {
	var l Ledger
	down, deg := l.Snapshot(100 * simkit.Second)
	if down != 0 || deg != 0 {
		t.Error("unstarted ledger should report zeros")
	}
	if l.Condition() != CondNormal {
		t.Error("unstarted condition should be normal")
	}
}

// Property: down + degraded never exceeds elapsed time, for any transition
// sequence.
func TestLedgerConservationProperty(t *testing.T) {
	f := func(steps []uint8) bool {
		var l Ledger
		l.Start(0)
		now := simkit.Time(0)
		for _, s := range steps {
			now += simkit.Time(s%100) * simkit.Second
			l.Set(Condition(s%3), now)
		}
		end := now + simkit.Hour
		down, deg := l.Snapshot(end)
		return down >= 0 && deg >= 0 && down+deg <= end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConditionString(t *testing.T) {
	for c, want := range map[Condition]string{
		CondNormal: "normal", CondDegraded: "degraded", CondDown: "down",
	} {
		if c.String() != want {
			t.Errorf("%d = %q", int(c), c.String())
		}
	}
	if !strings.Contains(Condition(7).String(), "7") {
		t.Error("unknown condition string")
	}
}

func TestMemoryProfileValidate(t *testing.T) {
	good := DefaultMemory()
	if err := good.Validate(); err != nil {
		t.Errorf("default profile invalid: %v", err)
	}
	cases := []MemoryProfile{
		{SizeMB: 0, DirtyMBs: 1, SkeletonMB: 1},
		{SizeMB: 100, DirtyMBs: -1, SkeletonMB: 1},
		{SizeMB: 100, DirtyMBs: 1, SkeletonMB: 0},
		{SizeMB: 100, DirtyMBs: 1, SkeletonMB: 200},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted: %+v", i, c)
		}
	}
}

func TestNewVM(t *testing.T) {
	typ := cloud.InstanceType{Name: "m3.medium", VCPUs: 1, MemoryMB: 3840, OnDemand: 0.07}
	vm, err := NewVM("vm-1", "alice", typ, DefaultMemory(), 5*simkit.Second)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Ledger.Condition() != CondNormal {
		t.Error("new VM should start normal")
	}
	if vm.Created != 5*simkit.Second {
		t.Error("creation time not recorded")
	}
	if _, err := NewVM("", "alice", typ, DefaultMemory(), 0); err == nil {
		t.Error("empty id accepted")
	}
	bad := DefaultMemory()
	bad.SizeMB = -1
	if _, err := NewVM("vm-2", "alice", typ, bad, 0); err == nil {
		t.Error("invalid memory accepted")
	}
}

func TestDownSpellTracking(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 10*simkit.Second)
	l.Set(CondNormal, 40*simkit.Second) // 30 s spell
	l.Set(CondDown, 100*simkit.Second)
	l.Set(CondDegraded, 170*simkit.Second) // 70 s spell, ends into degraded
	l.Set(CondNormal, 180*simkit.Second)

	if down, _ := l.Spells(); down != 2 {
		t.Fatalf("down spells = %d, want 2", down)
	}
	if down, _ := l.Snapshot(200 * simkit.Second); down != 100*simkit.Second {
		t.Errorf("downtime = %v, want the 30 s and 70 s spells", down)
	}
	if l.MaxDownSpell(200*simkit.Second) != 70*simkit.Second {
		t.Errorf("max spell = %v", l.MaxDownSpell(200*simkit.Second))
	}
	// Exactly at the threshold does not count as exceeding.
	if n := l.SpellsExceeding(70*simkit.Second, 200*simkit.Second); n != 0 {
		t.Errorf("exceeding 70s = %d, want 0", n)
	}
	if n := l.SpellsExceeding(60*simkit.Second, 200*simkit.Second); n != 1 {
		t.Errorf("exceeding 60s = %d, want 1", n)
	}
	if n := l.SpellsExceeding(10*simkit.Second, 200*simkit.Second); n != 2 {
		t.Errorf("exceeding 10s = %d, want 2", n)
	}
}

func TestDownSpellOpenInterval(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 10*simkit.Second)
	// Still down: the open spell counts as of t.
	if n := l.SpellsExceeding(89*simkit.Second, 100*simkit.Second); n != 1 {
		t.Errorf("spells over 89 s = %d, want the open 90 s spell", n)
	}
	if l.MaxDownSpell(100*simkit.Second) != 90*simkit.Second {
		t.Error("open spell not counted in max")
	}
	var fresh Ledger
	if fresh.MaxDownSpell(simkit.Hour) != 0 {
		t.Error("unstarted ledger should have no spells")
	}
}
