package nestedvm

import (
	"fmt"

	"repro/internal/simkit"
)

// Condition is the customer-visible service level of a nested VM at an
// instant: fully up, up-but-degraded (continuous checkpointing overload or
// lazy-restore page faulting), or down (paused/stop-and-copy/unhosted).
type Condition int

const (
	// CondNormal means full performance.
	CondNormal Condition = iota
	// CondDegraded means running with reduced performance (Figures 9, 12).
	CondDegraded
	// CondDown means unavailable (Figure 11's unavailability).
	CondDown
)

func (c Condition) String() string {
	switch c {
	case CondNormal:
		return "normal"
	case CondDegraded:
		return "degraded"
	case CondDown:
		return "down"
	default:
		return fmt.Sprintf("condition(%d)", int(c))
	}
}

// Ledger accumulates a nested VM's downtime and degraded time. It is a
// three-state interval accountant: call Set at every condition transition
// and Close (or Snapshot) to flush the open interval.
type Ledger struct {
	started  bool
	cond     Condition
	since    simkit.Time
	down     simkit.Time
	degraded simkit.Time
	// transition counters for reports
	downSpells     int
	degradedSpells int
	// The paper's TCP claim (§5: "this ~23 second downtime is not long
	// enough to break TCP connections") is checked against the completed
	// down spells, summarized as the longest one and the count of those
	// longer than TCPTimeout; spellStart opens the current one.
	maxSpell   simkit.Time
	tcpBreaks  int
	spellStart simkit.Time
}

// TCPTimeout is the conservative connection timeout the paper cites
// ("generally requires a timeout of greater than one minute"): a down
// spell longer than it breaks the customers' TCP connections.
const TCPTimeout = 60 * simkit.Second

// Start opens the ledger at time t in CondNormal. Calling Start twice
// panics: a VM has exactly one service lifetime.
func (l *Ledger) Start(t simkit.Time) {
	if l.started {
		//lint:ignore panicdiscipline invariant guard: a second Start means the caller double-placed a VM; availability accounting is already corrupt
		panic("nestedvm: ledger started twice")
	}
	l.started = true
	l.cond = CondNormal
	l.since = t
}

// Set transitions the ledger to cond at time t, accumulating the interval
// spent in the previous condition. Transitions must be non-decreasing in
// time. Setting the current condition is a no-op.
func (l *Ledger) Set(cond Condition, t simkit.Time) {
	if !l.started {
		//lint:ignore panicdiscipline invariant guard: transitions before Start are programmer error, not a runtime condition
		panic("nestedvm: ledger not started")
	}
	if t < l.since {
		//lint:ignore panicdiscipline invariant guard: time running backwards would silently corrupt Figure 11's downtime integrals
		panic(fmt.Sprintf("nestedvm: ledger transition at %v before %v", t, l.since))
	}
	if cond == l.cond {
		return
	}
	if l.cond == CondDown {
		// A down spell just ended (whatever we transition to).
		spell := t - l.spellStart
		l.maxSpell = max(l.maxSpell, spell)
		if spell > TCPTimeout {
			l.tcpBreaks++
		}
	}
	l.accumulate(t)
	l.cond = cond
	l.since = t
	switch cond {
	case CondDown:
		l.downSpells++
		l.spellStart = t
	case CondDegraded:
		l.degradedSpells++
	}
}

func (l *Ledger) accumulate(t simkit.Time) {
	dt := t - l.since
	switch l.cond {
	case CondDown:
		l.down += dt
	case CondDegraded:
		l.degraded += dt
	}
}

// Snapshot reports cumulative downtime and degraded time as of t without
// closing the ledger.
func (l *Ledger) Snapshot(t simkit.Time) (down, degraded simkit.Time) {
	if !l.started {
		return 0, 0
	}
	if t < l.since {
		//lint:ignore panicdiscipline invariant guard: a snapshot in the past would report negative interval time
		panic(fmt.Sprintf("nestedvm: snapshot at %v before %v", t, l.since))
	}
	down, degraded = l.down, l.degraded
	dt := t - l.since
	switch l.cond {
	case CondDown:
		down += dt
	case CondDegraded:
		degraded += dt
	}
	return down, degraded
}

// Condition reports the current condition.
func (l *Ledger) Condition() Condition {
	if !l.started {
		return CondNormal
	}
	return l.cond
}

// Spells reports how many distinct down and degraded intervals occurred.
func (l *Ledger) Spells() (downSpells, degradedSpells int) {
	return l.downSpells, l.degradedSpells
}

// Availability returns 1 - downtime/(t-start) over [start, t). The paper's
// availability numbers (e.g. 99.9989%) are exactly this quantity relative
// to a fully-available native platform.
func (l *Ledger) Availability(start, t simkit.Time) float64 {
	total := t - start
	if total <= 0 {
		return 1
	}
	down, _ := l.Snapshot(t)
	return 1 - float64(down)/float64(total)
}

// openSpell returns the duration of the currently open down spell as of t,
// or ok=false when the VM is not down.
func (l *Ledger) openSpell(t simkit.Time) (simkit.Time, bool) {
	if l.started && l.cond == CondDown && t >= l.spellStart {
		return t - l.spellStart, true
	}
	return 0, false
}

// MaxDownSpell returns the longest down interval as of t (0 if never down).
func (l *Ledger) MaxDownSpell(t simkit.Time) simkit.Time {
	if d, ok := l.openSpell(t); ok && d > l.maxSpell {
		return d
	}
	return l.maxSpell
}

// TCPBreaks counts the down spells longer than TCPTimeout as of t, the open
// one included: each would break the customers' connections.
func (l *Ledger) TCPBreaks(t simkit.Time) int {
	if d, ok := l.openSpell(t); ok && d > TCPTimeout {
		return l.tcpBreaks + 1
	}
	return l.tcpBreaks
}
