package simkit

import "fmt"

// event is one slot in the scheduler's slab: the live state of a scheduled
// callback. Slots are allocated in chunks and recycled through a free list,
// so steady-state scheduling performs no per-event allocation. A slot's gen
// increments every time it is reused for a new event; handles carry the gen
// they were issued under, which is what keeps stale handles inert after the
// slot has been recycled.
//
// An event carries its callback in one of two forms: fn, a closure (At,
// After), or afn with arg, a function bound once by the caller plus the
// 64-bit word that tells it what fired (AtArg, AfterArg) — so a caller that
// schedules per entity builds no closure per event. The slot is 64 bytes,
// one cache line.
type event struct {
	fn    func()
	afn   func(uint64)
	arg   uint64
	label string
	gen   uint64 // occupancy generation; bumped on slot reuse
	cgen  uint64 // gen of the most recent canceled occupancy (0 = none)
	index int32  // heap position, -1 when not pending
}

// entry is one element of the pending heap: the event's ordering key held
// by value beside its slot, so sifting compares keys within the heap's own
// array and follows a slot pointer only to record the slot's new position.
type entry struct {
	at  Time
	seq uint64
	e   *event
}

// before orders the heap: earliest time first, FIFO among simultaneous
// events. (at, seq) is unique per event, so the order is total and the pop
// sequence is independent of the heap's arity and internal layout.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventChunk is how many slots a slab allocation carries. Chunking keeps
// the allocation rate at one per eventChunk events even before the free
// list reaches steady state.
const eventChunk = 128

// Event is a weak, generation-checked handle to a scheduled callback,
// returned by the scheduling methods so callers can cancel pending events
// (e.g. a forced spot termination that is preempted by the migration
// finishing early). The zero Event refers to nothing; Cancel on it is a
// no-op.
//
// Handles stay safe after their event fires or is canceled: the scheduler
// recycles the underlying slot, and a later Cancel through a stale handle
// sees a generation mismatch and does nothing — it can never touch the
// slot's next occupant or corrupt the heap.
type Event struct {
	e   *event
	gen uint64
	at  Time
}

// At reports when the event fires (or fired). It stays valid for the
// lifetime of the handle.
func (h Event) At() Time { return h.at }

// Canceled reports whether Cancel was called on this event before it fired.
// Events that fired normally — including events Cancel was called on only
// after they fired — report false. The answer is generation-checked, so a
// handle whose slot has been recycled for later events keeps reporting its
// own outcome (until the slot's current occupant is itself canceled, which
// reclaims the cancellation mark).
func (h Event) Canceled() bool { return h.e != nil && h.e.cgen == h.gen }

// Pending reports whether the event is still queued: not yet fired and not
// canceled.
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.index >= 0
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use: simulations are deterministic single-goroutine runs.
//
// The pending queue is a hand-rolled 4-ary min-heap over (at, seq) — no
// container/heap interface boxing on the dispatch hot path, half a binary
// heap's levels, and a node's four children adjacent in memory — and fired
// or canceled events are recycled through a free list, so steady-state
// scheduling allocates nothing.
type Scheduler struct {
	now     Time
	seq     uint64
	pending []entry  // 4-ary min-heap ordered by (at, seq)
	free    []*event // recycled slots awaiting reuse
	fired   uint64
}

// arity is the heap's fan-out: the children of node i are arity*i+1 …
// arity*i+arity.
const arity = 4

// NewScheduler returns a scheduler positioned at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports the number of events still queued.
func (s *Scheduler) Pending() int { return len(s.pending) }

// alloc takes a slot off the free list, or carves a fresh chunk when the
// list is empty. The returned slot has a new generation.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.gen++
		return e
	}
	chunk := make([]event, eventChunk)
	for i := 1; i < eventChunk; i++ {
		s.free = append(s.free, &chunk[i])
	}
	e := &chunk[0]
	e.gen = 1
	return e
}

// recycle returns an ended (fired or canceled) slot to the free list,
// dropping the closure so it can be collected.
func (s *Scheduler) recycle(e *event) {
	e.fn = nil
	e.afn = nil
	e.label = ""
	e.index = -1
	s.free = append(s.free, e)
}

// siftUp places x at or above the hole at position i, shifting parents
// down into the hole until the heap property holds.
func (s *Scheduler) siftUp(i int, x entry) {
	h := s.pending
	for i > 0 {
		parent := (i - 1) / arity
		if !x.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].e.index = int32(i)
		i = parent
	}
	h[i] = x
	x.e.index = int32(i)
}

// siftDown places x at or below the hole at position i, pulling the least
// child up into the hole until the heap property holds.
func (s *Scheduler) siftDown(i int, x entry) {
	h := s.pending
	n := len(h)
	for {
		first := arity*i + 1
		if first >= n || first < 0 { // first < 0 after int overflow
			break
		}
		m := first
		for c, end := first+1, min(first+arity, n); c < end; c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		h[i].e.index = int32(i)
		i = m
	}
	h[i] = x
	x.e.index = int32(i)
}

// popRoot removes and returns the earliest pending entry. The caller
// recycles its slot, which is what marks it no longer pending.
func (s *Scheduler) popRoot() entry {
	h := s.pending
	n := len(h) - 1
	root, last := h[0], h[n]
	h[n] = entry{}
	s.pending = h[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
	return root
}

// remove deletes the entry at heap position i; as with popRoot, the caller
// recycles the slot.
func (s *Scheduler) remove(i int) {
	h := s.pending
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	s.pending = h[:n]
	if i < n {
		// The last entry fills the hole; it may belong above it or below.
		if i > 0 && last.before(h[(i-1)/arity]) {
			s.siftUp(i, last)
		} else {
			s.siftDown(i, last)
		}
	}
}

// At schedules fn at absolute virtual time t. label names the kind of event
// — a constant such as "flush-done", never a per-entity string: building one
// would put formatting on every caller's hot path. Scheduling in the past
// panics: it would silently reorder causality, which is always a bug in the
// caller.
func (s *Scheduler) At(t Time, label string, fn func()) Event {
	if fn == nil {
		panic("simkit: nil event func")
	}
	e := s.push(t, label)
	e.fn = fn
	return Event{e: e, gen: e.gen, at: t}
}

// AtArg schedules fn(arg) at absolute virtual time t. It is At for callers
// that would otherwise build one closure per event: fn is bound once (a
// method value kept on the caller), arg says which entity and step fired.
// Both forms share the slab, the sequence counter and the heap, so events
// pop in (at, seq) order whichever call scheduled them.
func (s *Scheduler) AtArg(t Time, label string, fn func(uint64), arg uint64) Event {
	if fn == nil {
		panic("simkit: nil event func")
	}
	e := s.push(t, label)
	e.afn, e.arg = fn, arg
	return Event{e: e, gen: e.gen, at: t}
}

// push takes a slot for an event labelled label at time t and queues it; the
// caller fills in the callback. Scheduling in the past panics (see At).
func (s *Scheduler) push(t Time, label string) *event {
	if t < s.now {
		panic(fmt.Sprintf("simkit: scheduling %q at %v, before now %v", label, t, s.now))
	}
	e := s.alloc()
	e.label = label
	s.pending = append(s.pending, entry{})
	s.siftUp(len(s.pending)-1, entry{at: t, seq: s.seq, e: e})
	s.seq++
	return e
}

// After schedules fn at now+d.
func (s *Scheduler) After(d Time, label string, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("simkit: negative delay %v for %q", d, label))
	}
	return s.At(s.now+d, label, fn)
}

// AfterArg schedules fn(arg) at now+d (see AtArg).
func (s *Scheduler) AfterArg(d Time, label string, fn func(uint64), arg uint64) Event {
	if d < 0 {
		panic(fmt.Sprintf("simkit: negative delay %v for %q", d, label))
	}
	return s.AtArg(s.now+d, label, fn, arg)
}

// Cancel removes a pending event. Canceling an already-fired, already-
// canceled or zero event is a harmless no-op: the generation check makes
// stale handles inert even after their slot has been recycled.
func (s *Scheduler) Cancel(h Event) {
	e := h.e
	if e == nil || e.gen != h.gen || e.index < 0 {
		return
	}
	e.cgen = e.gen
	s.remove(int(e.index))
	s.recycle(e)
}

// Step executes the next pending event, advancing the clock to its time.
// It reports false when the queue is empty. The slot is recycled before the
// callback runs, so an event rescheduling its successor reuses its own
// slot — the common self-ticking pattern touches one cache line.
func (s *Scheduler) Step() bool {
	if len(s.pending) == 0 {
		return false
	}
	root := s.popRoot()
	s.now = root.at
	s.fired++
	fn, afn, arg := root.e.fn, root.e.afn, root.e.arg
	s.recycle(root.e)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
	return true
}

// RunUntil executes events in order until the queue is exhausted or the next
// event lies strictly after t, then sets the clock to exactly t.
func (s *Scheduler) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("simkit: RunUntil(%v) before now %v", t, s.now))
	}
	for len(s.pending) > 0 {
		// Peek: heap root is the earliest event.
		if s.pending[0].at > t {
			break
		}
		if !s.Step() {
			break
		}
	}
	s.now = t
}

// Run executes every pending event (including events scheduled by events)
// until the queue drains. The limit guards against runaway self-scheduling
// loops; Run panics if it is exceeded.
func (s *Scheduler) Run(limit uint64) {
	var n uint64
	for s.Step() {
		n++
		if limit > 0 && n > limit {
			panic(fmt.Sprintf("simkit: Run exceeded %d events (self-scheduling loop?)", limit))
		}
	}
}
