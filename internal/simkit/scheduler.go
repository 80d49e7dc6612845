package simkit

import (
	"fmt"
	"math"
	"math/bits"
)

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
// schedules per entity builds no closure per event. A slot is queued exactly
// while one of the two is set: firing and canceling both clear them.
type event struct {
	fn  func()
	afn func(uint64)
	arg uint64
	gen uint64 // occupancy generation; bumped on slot reuse
	id  uint32 // the slot's number: its chunk and its place in it
}

func (e *event) queued() bool { return e.fn != nil || e.afn != nil }

// eventChunk is how many slots a slab allocation carries. Chunking keeps
// the allocation rate at one per eventChunk events even before the free
// list reaches steady state.
const eventChunk = 128

// eventChunkSlots is one slab allocation; slot id lives at
// slots[id/eventChunk][id%eventChunk].
type eventChunkSlots [eventChunk]event

// entry is one element of the pending queue: the event's firing time, its
// slot number and the low 32 bits of the generation it was scheduled under.
// It holds no Go pointer, so the queue's storage is never scanned by the
// collector and moving an entry needs no write barrier. An entry whose tag
// no longer matches its slot, or whose slot is no longer queued, is an
// orphan left by Cancel; the queue drops it when it reaches it.
type entry struct {
	at  Time
	id  uint32
	tag uint32
}

// blockLen is how many entries a queue block holds: 1 KiB of entries.
const blockLen = 64

// block is a fixed piece of a bucket's FIFO chain. Blocks are addressed by
// index, linked through a separate array (so a block is exactly 1 KiB and
// no entry straddles a cache line) and recycled through a free list, so a
// bucket grows and shrinks a block at a time and a block freed by one
// bucket is the next one another takes.
type block [blockLen]entry

// bucket is one FIFO chain of blocks: entries are read at (head, lo) and
// written at (tail, hi). min is the earliest time among its entries, kept
// on push so the scheduler can peek at the next event without touching the
// bucket; orphans may hold it lower than the earliest live entry.
type bucket struct {
	head, tail int32
	lo, hi     int32
	min        Time
}

// buckets is the number of radix buckets: bucket b holds the entries whose
// time first differs from the queue's reference time at bit b-1, bucket 0
// the ones equal to it. Times are never negative, so bit 63 never differs.
const buckets = 64

// maxTime is the largest virtual time.
const maxTime = Time(math.MaxInt64)

// Event is a weak, generation-checked handle to a scheduled callback,
// returned by the scheduling methods so callers can cancel pending events
// (e.g. a forced spot termination that is preempted by the migration
// finishing early). The zero Event refers to nothing; Cancel on it is a
// no-op.
//
// Handles stay safe after their event fires or is canceled: the scheduler
// recycles the underlying slot, and a later Cancel through a stale handle
// sees a generation mismatch and does nothing — it can never touch the
// slot's next occupant or corrupt the queue.
type Event struct {
	e   *event
	gen uint64
	at  Time
}

// At reports when the event fires (or fired). It stays valid for the
// lifetime of the handle.
func (h Event) At() Time { return h.at }

// Pending reports whether the event is still queued: not yet fired and not
// canceled.
func (h Event) Pending() bool {
	return h.e != nil && h.e.gen == h.gen && h.e.queued()
}

// Scheduler is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use: simulations are deterministic single-goroutine runs.
//
// The pending queue is a monotone radix heap: scheduling before now panics,
// so the times popped never decrease, and each entry sits in the bucket
// named by the highest bit in which its time differs from last, the queue's
// reference time, which is never after now (see redistribute). Events of
// one instant always share a bucket and a bucket is a FIFO, so they pop in
// the order they were scheduled. Fired or canceled slots and emptied blocks
// are recycled through free lists, so steady-state scheduling allocates
// nothing.
type Scheduler struct {
	now   Time
	last  Time   // the queue's reference time: last ≤ now ≤ every entry's at
	used  uint64 // bit b set: bucket b is not empty
	bkt   [buckets]bucket
	blks  []block // the buckets' storage
	links []int32 // per block: the chain's next block, or the free list's
	spare int32   // head of the free block list, -1 when empty
	size  int     // entries in the buckets, orphans included
	live  int     // pending events
	slots []*eventChunkSlots
	free  []uint32 // recycled slot numbers awaiting reuse
	fired uint64
}

// NewScheduler returns a scheduler positioned at virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{spare: -1} }

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports the number of events still queued.
func (s *Scheduler) Pending() int { return s.live }

// slot returns the slab slot numbered id.
func (s *Scheduler) slot(id uint32) *event { return &s.slots[id/eventChunk][id%eventChunk] }

// alloc takes a slot off the free list, or carves a fresh chunk when the
// list is empty. The returned slot has a new generation.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.slot(s.free[n-1])
		s.free = s.free[:n-1]
		if uint32(e.gen+1) == 0 {
			// The slot's tag is about to repeat: drop every orphan, so no
			// entry left by an earlier occupancy can match the new one.
			s.compact()
		}
		e.gen++
		return e
	}
	chunk := new(eventChunkSlots)
	base := uint32(len(s.slots)) * eventChunk
	s.slots = append(s.slots, chunk)
	for i := 1; i < eventChunk; i++ {
		chunk[i].id = base + uint32(i)
		s.free = append(s.free, base+uint32(i))
	}
	e := &chunk[0]
	e.id, e.gen = base, 1
	return e
}

// recycle returns an ended (fired or canceled) slot to the free list,
// dropping the callback so it can be collected and the slot reads as no
// longer queued.
func (s *Scheduler) recycle(e *event) {
	e.fn = nil
	e.afn = nil
	s.free = append(s.free, e.id)
}

// isLive reports whether en still stands for its slot's pending event, and
// returns the slot.
func (s *Scheduler) isLive(en entry) (*event, bool) {
	e := s.slot(en.id)
	return e, uint32(e.gen) == en.tag && e.queued()
}

// grow adds a block to the store, on the free list.
func (s *Scheduler) grow() {
	s.blks = append(s.blks, block{})
	s.links = append(s.links, s.spare)
	s.spare = int32(len(s.blks) - 1)
}

// takeBlock takes a block off the free list, which must not be empty.
func (s *Scheduler) takeBlock() int32 {
	b := s.spare
	s.spare = s.links[b]
	return b
}

// freeBlock returns block b to the free list.
func (s *Scheduler) freeBlock(b int32) {
	s.links[b] = s.spare
	s.spare = b
}

// put appends en to bucket i, taking a block off the free list when the
// bucket is empty or its tail block full: the caller makes sure the list
// has one.
func (s *Scheduler) put(i int, en entry) {
	q := &s.bkt[i]
	switch {
	case s.used&(1<<i) == 0:
		b := s.takeBlock()
		*q = bucket{head: b, tail: b, min: en.at}
		s.used |= 1 << i
	case q.hi == blockLen:
		b := s.takeBlock()
		s.links[q.tail] = b
		q.tail, q.hi = b, 0
		q.min = min(q.min, en.at)
	case en.at < q.min:
		q.min = en.at
	}
	s.blks[q.tail][q.hi] = en
	q.hi++
}

// bucketOf returns the bucket an entry at t belongs in.
func (s *Scheduler) bucketOf(t Time) int { return bits.Len64(uint64(t ^ s.last)) }

// takeFront removes the first entry of bucket 0.
func (s *Scheduler) takeFront() entry {
	q := &s.bkt[0]
	en := s.blks[q.head][q.lo]
	q.lo++
	s.size--
	switch {
	case q.head == q.tail && q.lo == q.hi:
		s.freeBlock(q.head)
		s.used &^= 1
	case q.lo == blockLen:
		b := q.head
		q.head, q.lo = s.links[b], 0
		s.freeBlock(b)
	}
	return en
}

// redistribute empties bucket i, the lowest non-empty one, into the buckets
// below it after moving last to its earliest time. Every entry of bucket i
// shares last's bits above bit i-1, so entries of higher buckets keep
// their buckets; the buckets below are empty, and walking bucket i in order
// keeps each of them a FIFO in scheduling order.
func (s *Scheduler) redistribute(i int) {
	q := s.bkt[i]
	s.used &^= 1 << i
	s.last = q.min
	if q.head == q.tail && q.hi-q.lo == 1 {
		// A lone entry is at last: its chain becomes bucket 0 as it is.
		s.bkt[0] = q
		s.used |= 1
		return
	}
	for b, lo := q.head, q.lo; ; lo = 0 {
		hi := int32(blockLen)
		if b == q.tail {
			hi = q.hi
		}
		for lo = s.deal(b, lo, hi); lo < hi; lo = s.deal(b, lo, hi) {
			s.grow()
		}
		next := s.links[b]
		s.freeBlock(b)
		if b == q.tail {
			return
		}
		b = next
	}
}

// deal is put for entries lo through hi-1 of block b, by hand: a call in
// this loop, the queue's hottest, would spill its registers on every
// entry. It stops at the first entry that needs a block when the free list
// is empty, and returns where it stopped.
func (s *Scheduler) deal(b, lo, hi int32) int32 {
	src, last := &s.blks[b], s.last
	for k := lo; k < hi; k++ {
		en := src[k]
		j := bits.Len64(uint64(en.at^last)) & (buckets - 1)
		t := &s.bkt[j]
		switch {
		case s.used&(1<<j) == 0:
			if s.spare < 0 {
				return k
			}
			nb := s.takeBlock()
			*t = bucket{head: nb, tail: nb, min: en.at}
			s.used |= 1 << j
		case t.hi == blockLen:
			if s.spare < 0 {
				return k
			}
			nb := s.takeBlock()
			s.links[t.tail] = nb
			t.tail, t.hi = nb, 0
			t.min = min(t.min, en.at)
		case en.at < t.min:
			t.min = en.at
		}
		s.blks[t.tail][t.hi] = en
		t.hi++
	}
	return hi
}

// freeChain returns the blocks from b through tail to the free list.
func (s *Scheduler) freeChain(b, tail int32) {
	for {
		next := s.links[b]
		s.freeBlock(b)
		if b == tail {
			return
		}
		b = next
	}
}

// front brings the earliest pending event to the front of bucket 0 and
// returns its slot, dropping the orphans it passes. It reports false when
// nothing is pending at or before limit, and then leaves last at or before
// limit: a later push at any time from now on still has its bucket.
func (s *Scheduler) front(limit Time) (*event, bool) {
	for {
		if s.live == 0 {
			s.clear()
			return nil, false
		}
		if s.used&1 != 0 {
			q := &s.bkt[0]
			if e, ok := s.isLive(s.blks[q.head][q.lo]); ok {
				return e, true
			}
			s.takeFront()
			continue
		}
		i := bits.TrailingZeros64(s.used)
		if s.bkt[i].min > limit {
			return nil, false
		}
		s.redistribute(i)
	}
}

// clear drops every entry — all orphans, as nothing is pending — and puts
// last back to now.
func (s *Scheduler) clear() {
	for used := s.used; used != 0; used &= used - 1 {
		q := &s.bkt[bits.TrailingZeros64(used)]
		s.freeChain(q.head, q.tail)
	}
	s.used, s.size, s.last = 0, 0, s.now
}

// compact drops every orphan, keeping each bucket's live entries in order,
// and resets the buckets' minimums to their live entries'.
func (s *Scheduler) compact() {
	if s.live == 0 {
		s.clear()
		return
	}
	for used := s.used; used != 0; used &= used - 1 {
		i := bits.TrailingZeros64(used)
		q := &s.bkt[i]
		// The write cursor w never passes the read cursor, so the chain is
		// rewritten in place.
		w := bucket{head: q.head, tail: q.head, hi: q.lo, lo: q.lo}
		read, kept := 0, 0
		for b, lo := q.head, q.lo; ; b, lo = s.links[b], 0 {
			hi := int32(blockLen)
			if b == q.tail {
				hi = q.hi
			}
			read += int(hi - lo)
			for _, en := range s.blks[b][lo:hi] {
				if _, ok := s.isLive(en); !ok {
					continue
				}
				if w.hi == blockLen {
					w.tail, w.hi = s.links[w.tail], 0
				}
				if kept == 0 || en.at < w.min {
					w.min = en.at
				}
				s.blks[w.tail][w.hi] = en
				w.hi++
				kept++
			}
			if b == q.tail {
				break
			}
		}
		s.size -= read - kept
		switch {
		case kept == 0:
			s.freeChain(q.head, q.tail)
			s.used &^= 1 << i
			continue
		case w.tail != q.tail:
			s.freeChain(s.links[w.tail], q.tail)
		}
		*q = w
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
// Both forms share the slab and the queue, so events pop in the order they
// were scheduled among equal times whichever call scheduled them.
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
	if s.spare < 0 {
		s.grow()
	}
	s.put(s.bucketOf(t), entry{at: t, id: e.id, tag: uint32(e.gen)})
	s.size++
	s.live++
	return e
}

// after returns now+d for an event labelled label, panicking on a negative
// delay or one that runs past the largest Time.
func (s *Scheduler) after(d Time, label string) Time {
	if d < 0 {
		panic(fmt.Sprintf("simkit: negative delay %v for %q", d, label))
	}
	if d > maxTime-s.now {
		panic(fmt.Sprintf("simkit: delay %v for %q at %v overflows virtual time", d, label, s.now))
	}
	return s.now + d
}

// After schedules fn at now+d.
func (s *Scheduler) After(d Time, label string, fn func()) Event {
	return s.At(s.after(d, label), label, fn)
}

// AfterArg schedules fn(arg) at now+d (see AtArg).
func (s *Scheduler) AfterArg(d Time, label string, fn func(uint64), arg uint64) Event {
	return s.AtArg(s.after(d, label), label, fn, arg)
}

// Cancel removes a pending event. Canceling an already-fired, already-
// canceled or zero event is a harmless no-op: the generation check makes
// stale handles inert even after their slot has been recycled. The slot is
// recycled at once; its queue entry becomes an orphan, and the queue is
// compacted once orphans outnumber pending events.
func (s *Scheduler) Cancel(h Event) {
	e := h.e
	if e == nil || e.gen != h.gen || !e.queued() {
		return
	}
	s.recycle(e)
	s.live--
	if s.size-s.live > s.live {
		s.compact()
	}
}

// Step executes the next pending event, advancing the clock to its time.
// It reports false when the queue is empty. The slot is recycled before the
// callback runs, so an event rescheduling its successor reuses its own
// slot — the common self-ticking pattern touches one cache line.
func (s *Scheduler) Step() bool {
	e, ok := s.front(maxTime)
	if !ok {
		return false
	}
	s.fire(e)
	return true
}

// fire runs e, the live event at the front of bucket 0.
func (s *Scheduler) fire(e *event) {
	s.takeFront()
	s.now = s.last
	s.live--
	s.fired++
	fn, afn, arg := e.fn, e.afn, e.arg
	s.recycle(e)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// RunUntil executes events in order until the queue is exhausted or the next
// event lies strictly after t, then sets the clock to exactly t.
func (s *Scheduler) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("simkit: RunUntil(%v) before now %v", t, s.now))
	}
	for {
		e, ok := s.front(t)
		if !ok {
			break
		}
		s.fire(e)
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
