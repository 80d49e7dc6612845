package nestedvm

import (
	"math"
	"math/rand"
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
	l.Set(CondDegraded, 160*simkit.Second) // exactly TCPTimeout, ends into degraded
	l.Set(CondNormal, 180*simkit.Second)

	if down, _ := l.Spells(); down != 2 {
		t.Fatalf("down spells = %d, want 2", down)
	}
	if down, _ := l.Snapshot(200 * simkit.Second); down != 90*simkit.Second {
		t.Errorf("downtime = %v, want the 30 s and 60 s spells", down)
	}
	if l.MaxDownSpell(200*simkit.Second) != 60*simkit.Second {
		t.Errorf("max spell = %v", l.MaxDownSpell(200*simkit.Second))
	}
	// Exactly at the timeout does not break a connection.
	if n := l.TCPBreaks(200 * simkit.Second); n != 0 {
		t.Errorf("TCP breaks after a 60 s spell = %d, want 0", n)
	}
	l.Set(CondDown, 300*simkit.Second)
	l.Set(CondNormal, 360*simkit.Second+1) // one nanosecond past the timeout
	if n := l.TCPBreaks(400 * simkit.Second); n != 1 {
		t.Errorf("TCP breaks after a 60 s + 1 ns spell = %d, want 1", n)
	}
	if l.MaxDownSpell(400*simkit.Second) != 60*simkit.Second+1 {
		t.Errorf("max spell = %v", l.MaxDownSpell(400*simkit.Second))
	}
}

func TestDownSpellOpenInterval(t *testing.T) {
	var l Ledger
	l.Start(0)
	l.Set(CondDown, 10*simkit.Second)
	// Still down: the open spell counts as of t.
	if n := l.TCPBreaks(70 * simkit.Second); n != 0 {
		t.Errorf("TCP breaks of an open 60 s spell = %d, want 0", n)
	}
	if n := l.TCPBreaks(70*simkit.Second + 1); n != 1 {
		t.Errorf("TCP breaks of an open 60 s + 1 ns spell = %d, want 1", n)
	}
	if l.MaxDownSpell(100*simkit.Second) != 90*simkit.Second {
		t.Error("open spell not counted in max")
	}
	var fresh Ledger
	if fresh.MaxDownSpell(simkit.Hour) != 0 || fresh.TCPBreaks(simkit.Hour) != 0 {
		t.Error("unstarted ledger should have no spells")
	}
}

// refLedger is the ledger as it was when it kept every completed down
// spell: the oracle TestLedgerMatchesEverySpellReference holds the
// summarized spells to.
type refLedger struct {
	started            bool
	cond               Condition
	since              simkit.Time
	down, degraded     simkit.Time
	downSpellDurations []simkit.Time
	spellStart         simkit.Time
}

func (l *refLedger) start(t simkit.Time) {
	l.started, l.cond, l.since = true, CondNormal, t
}

func (l *refLedger) set(cond Condition, t simkit.Time) {
	if cond == l.cond {
		return
	}
	if l.cond == CondDown {
		l.downSpellDurations = append(l.downSpellDurations, t-l.spellStart)
	}
	switch dt := t - l.since; l.cond {
	case CondDown:
		l.down += dt
	case CondDegraded:
		l.degraded += dt
	}
	l.cond, l.since = cond, t
	if cond == CondDown {
		l.spellStart = t
	}
}

func (l *refLedger) snapshot(t simkit.Time) (down, degraded simkit.Time) {
	down, degraded = l.down, l.degraded
	switch dt := t - l.since; l.cond {
	case CondDown:
		down += dt
	case CondDegraded:
		degraded += dt
	}
	return down, degraded
}

func (l *refLedger) openSpell(t simkit.Time) (simkit.Time, bool) {
	if l.started && l.cond == CondDown && t >= l.spellStart {
		return t - l.spellStart, true
	}
	return 0, false
}

func (l *refLedger) maxDownSpell(t simkit.Time) simkit.Time {
	var max simkit.Time
	for _, d := range l.downSpellDurations {
		if d > max {
			max = d
		}
	}
	if d, ok := l.openSpell(t); ok && d > max {
		max = d
	}
	return max
}

func (l *refLedger) spellsExceeding(threshold, t simkit.Time) int {
	n := 0
	for _, d := range l.downSpellDurations {
		if d > threshold {
			n++
		}
	}
	if d, ok := l.openSpell(t); ok && d > threshold {
		n++
	}
	return n
}

// The summarized ledger answers exactly what the every-spell ledger did:
// random transition sequences, with steps drawn around the TCP timeout so
// spells land on both sides of it and exactly on it, are queried at random
// instants through Snapshot, MaxDownSpell and TCPBreaks.
func TestLedgerMatchesEverySpellReference(t *testing.T) {
	steps := []simkit.Time{0, 1, simkit.Second, 30 * simkit.Second, TCPTimeout - 1, TCPTimeout, TCPTimeout + 1, 2 * TCPTimeout, simkit.Hour}
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 2000; run++ {
		var l Ledger
		var ref refLedger
		now := simkit.Time(rng.Int63n(int64(simkit.Day)))
		l.Start(now)
		ref.start(now)
		for i, n := 0, rng.Intn(40); i < n; i++ {
			now += steps[rng.Intn(len(steps))]
			if rng.Intn(3) == 0 {
				// A query between transitions, ahead of the last one by
				// a step of its own.
				at := now + steps[rng.Intn(len(steps))]
				down, deg := l.Snapshot(at)
				rdown, rdeg := ref.snapshot(at)
				if down != rdown || deg != rdeg || l.MaxDownSpell(at) != ref.maxDownSpell(at) ||
					l.TCPBreaks(at) != ref.spellsExceeding(TCPTimeout, at) {
					t.Fatalf("run %d step %d at %v: ledger (%v, %v, max %v, breaks %d), reference (%v, %v, max %v, breaks %d)",
						run, i, at, down, deg, l.MaxDownSpell(at), l.TCPBreaks(at),
						rdown, rdeg, ref.maxDownSpell(at), ref.spellsExceeding(TCPTimeout, at))
				}
			}
			cond := Condition(rng.Intn(3))
			l.Set(cond, now)
			ref.set(cond, now)
		}
		if ds, _ := l.Spells(); l.TCPBreaks(now) > ds {
			t.Fatalf("run %d: %d TCP breaks out of %d down spells", run, l.TCPBreaks(now), ds)
		}
	}
}
