package obs

import (
	"fmt"
	"sync"

	"repro/internal/simkit"
)

// TraceEvent is the one record of something that happened: what (Kind), to
// whom (Scope + Subject) and when (virtual time At). Seq is a monotonic
// sequence number assigned at append time, so consumers can detect gaps
// left by ring overwrites.
type TraceEvent struct {
	Seq     uint64      `json:"seq"`
	At      simkit.Time `json:"at"`
	Scope   string      `json:"scope"`   // "vm", "host", "pool", "market"
	Subject string      `json:"subject"` // the entity's id
	Kind    string      `json:"kind"`    // e.g. "warned", "migrated", "flush-pause"
	Detail  string      `json:"detail,omitempty"`
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("%-12v %-15s %s", e.At, e.Kind, e.Detail)
}

// Trace is the event store: a fixed-capacity ring of every TraceEvent
// (appends overwrite the oldest entries once full) plus, for each subject
// passed to Keep, a timeline of that subject's newest TimelineCap events
// that ring overwrites do not touch. All methods are safe for concurrent
// use.
type Trace struct {
	mu    sync.Mutex
	buf   []TraceEvent            // guarded by mu
	start int                     // index of the oldest entry; guarded by mu
	n     int                     // live entries; guarded by mu
	seq   uint64                  // next sequence number; guarded by mu
	kept  map[string][]TraceEvent // timelines by subject; guarded by mu
}

// DefaultTraceCap bounds trace memory when callers don't choose a size.
const DefaultTraceCap = 4096

// TimelineCap bounds each kept subject's timeline; the newest events win.
const TimelineCap = 256

// NewTrace returns a store whose ring holds the last capacity events
// (DefaultTraceCap when capacity <= 0).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{buf: make([]TraceEvent, capacity), kept: map[string][]TraceEvent{}}
}

// Add appends an event to the ring — and to its subject's timeline when the
// subject is kept — stamping and returning its sequence number.
func (t *Trace) Add(ev TraceEvent) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev.Seq = t.seq
	t.seq++
	i := (t.start + t.n) % len(t.buf)
	t.buf[i] = ev
	if t.n < len(t.buf) {
		t.n++
	} else {
		t.start = (t.start + 1) % len(t.buf) // overwrote the oldest
	}
	if tl, ok := t.kept[ev.Subject]; ok {
		if len(tl) == TimelineCap {
			copy(tl, tl[1:]) // shift out the oldest
			tl = tl[:TimelineCap-1]
		}
		t.kept[ev.Subject] = append(tl, ev)
	}
	return ev.Seq
}

// Keep starts a timeline for subject: every later event about it is
// retained there as well as in the ring. Keeping a kept subject changes
// nothing.
func (t *Trace) Keep(subject string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.kept[subject]; !ok {
		t.kept[subject] = nil
	}
}

// Forget discards subject's timeline and stops keeping one (the subject is
// gone for good); the ring is untouched.
func (t *Trace) Forget(subject string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.kept, subject)
}

// Timeline returns subject's retained events oldest-first; empty for a
// subject that is not kept.
func (t *Trace) Timeline(subject string) []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEvent(nil), t.kept[subject]...)
}

// TraceDump is a consistent copy of the ring: of Total events ever
// appended, Dropped were overwritten and Events are the rest, oldest first.
type TraceDump struct {
	Total   uint64       `json:"total"`
	Dropped uint64       `json:"dropped"`
	Events  []TraceEvent `json:"events"`
}

// Dump copies the ring and its counters under one lock acquisition, so
// Total-Dropped == len(Events) holds however many goroutines are appending.
func (t *Trace) Dump() TraceDump {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceDump{Total: t.seq, Dropped: t.seq - uint64(t.n), Events: make([]TraceEvent, 0, t.n)}
	for i := 0; i < t.n; i++ {
		d.Events = append(d.Events, t.buf[(t.start+i)%len(t.buf)])
	}
	return d
}
