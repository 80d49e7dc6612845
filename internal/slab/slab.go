// Package slab provides chunked, generation-checked slab allocators for
// fleet-scale simulation state. It generalizes the idiom the event
// scheduler proved out (internal/simkit): objects live in pre-sized chunks
// addressed by small integer handles, freed slots recycle through a LIFO
// free list, and every handle carries the generation it was issued under so
// a stale handle — one whose slot has since been freed or reused — is
// detectably inert instead of silently aliasing the slot's next occupant.
//
// Chunks are fixed-size arrays allocated once and never moved, so the *T
// returned by Alloc and Get stays valid for the lifetime of the slab even
// as other allocations grow it. Internal subsystems can therefore hold
// plain pointers on hot paths and reserve handles for weak references that
// must survive (or detect) recycling: scheduled callbacks, boundary-map
// entries, cross-object back-references.
//
// A Slab is not safe for concurrent use; simulations are single-threaded
// by construction.
package slab

import "fmt"

// chunkSize is how many slots one backing allocation carries. 256 slots
// amortizes allocation to one per 256 objects while keeping the first
// chunk small enough that tiny fleets (unit tests, the paper's 40-VM runs)
// don't pay for capacity they never touch.
const chunkSize = 256

// Handle is a weak, generation-checked reference to a slab slot. The zero
// Handle refers to nothing: Get returns nil and Free reports false. Handles
// are value types — two handles to the same allocation compare equal.
type Handle struct {
	idx uint32 // 1-based slot index; 0 is the zero Handle
	gen uint32 // generation the handle was issued under (odd = live)
}

// IsZero reports whether h is the zero Handle.
func (h Handle) IsZero() bool { return h.idx == 0 }

// Index is the handle's slot number: what Slab.At resolves, and small enough
// (32 bits) to travel in an event argument beside other fields.
func (h Handle) Index() uint32 { return h.idx }

// Pack returns the handle as one 64-bit word — what an argument-carrying
// event has room for; Unpack is its inverse. The word keeps the generation,
// so a handle that went stale while the event was pending still resolves to
// nil.
func (h Handle) Pack() uint64 { return uint64(h.idx)<<32 | uint64(h.gen) }

// Unpack rebuilds the handle Pack encoded.
func Unpack(w uint64) Handle { return Handle{idx: uint32(w >> 32), gen: uint32(w)} }

// String formats the handle for diagnostics.
func (h Handle) String() string { return fmt.Sprintf("slab(%d@g%d)", h.idx, h.gen) }

// entry is one slot: the value plus its occupancy generation. The
// generation's parity encodes liveness — it starts at 0 (free), Alloc
// bumps it to odd, Free bumps it to even — so liveness and staleness are
// one integer compare and no separate bookkeeping can fall out of sync.
type entry[T any] struct {
	gen uint32
	val T
}

// Slab is a chunked allocator of T values addressed by Handle.
type Slab[T any] struct {
	chunks []*[chunkSize]entry[T]
	free   []uint32 // LIFO free list of 1-based slot indices
	next   uint32   // next never-used 1-based index
	live   int
}

// New returns a slab pre-sized for capacity live objects: backing chunks
// and the free-list are allocated up front so a fleet of known size never
// grows the slab mid-run. capacity <= 0 starts empty and grows on demand.
func New[T any](capacity int) *Slab[T] {
	s := &Slab[T]{}
	if capacity > 0 {
		nChunks := (capacity + chunkSize - 1) / chunkSize
		s.chunks = make([]*[chunkSize]entry[T], 0, nChunks)
		for i := 0; i < nChunks; i++ {
			s.chunks = append(s.chunks, new([chunkSize]entry[T]))
		}
		s.free = make([]uint32, 0, nChunks*chunkSize)
	}
	return s
}

// slot returns the entry at 1-based index i.
func (s *Slab[T]) slot(i uint32) *entry[T] {
	return &s.chunks[(i-1)/chunkSize][(i-1)%chunkSize]
}

// Alloc takes a slot — reusing the most recently freed one, else the next
// never-used one, growing by a chunk when the slab is full — and returns
// the value pointer plus its handle. The value is NOT zeroed on reuse:
// callers owning recycled state must reset every field they read, exactly
// as with any pool.
func (s *Slab[T]) Alloc() (*T, Handle) {
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if int(s.next) >= len(s.chunks)*chunkSize {
			s.chunks = append(s.chunks, new([chunkSize]entry[T]))
		}
		s.next++
		i = s.next
	}
	e := s.slot(i)
	e.gen++ // even (free) -> odd (live)
	s.live++
	return &e.val, Handle{idx: i, gen: e.gen}
}

// Get returns the value for a live handle, or nil when h is zero, freed,
// or stale (its slot has been recycled for a newer occupant).
func (s *Slab[T]) Get(h Handle) *T {
	if h.idx == 0 || h.idx > s.next {
		return nil
	}
	e := s.slot(h.idx)
	if e.gen != h.gen {
		return nil
	}
	return &e.val
}

// At returns the value in slot idx whoever occupies it — live, freed or
// recycled — or nil when the slab never issued that slot. It does no
// generation check: it is for callers that keep their own occupancy stamp
// inside T (one that survives recycling) and compare it themselves.
func (s *Slab[T]) At(idx uint32) *T {
	if idx == 0 || idx > s.next {
		return nil
	}
	return &s.slot(idx).val
}

// Free releases a live handle's slot to the free list and reports whether
// it freed anything; zero, already-freed and stale handles are inert and
// report false — a double free through an old handle can never release the
// slot's next occupant. The slot's value is left as-is (dropped references
// the caller wants collected must be nilled before Free).
func (s *Slab[T]) Free(h Handle) bool {
	if h.idx == 0 || h.idx > s.next {
		return false
	}
	e := s.slot(h.idx)
	if e.gen != h.gen {
		return false
	}
	e.gen++ // odd (live) -> even (free)
	s.free = append(s.free, h.idx)
	s.live--
	return true
}

// Len reports the number of live objects.
//
//lint:testonly core's recycle and release tests check that VM slots are freed
func (s *Slab[T]) Len() int { return s.live }

// Cap reports the total slots currently backed by chunks.
//
//lint:testonly core's recycle test checks that the free list is reused
func (s *Slab[T]) Cap() int { return len(s.chunks) * chunkSize }
