package slab

import "sort"

// Ref pairs a slab handle with the sequence number its list orders by, so
// list operations compare entries without dereferencing the slab. Refs are
// pointer-free: a []Ref is invisible to the GC and its copies skip the
// write barrier. A zero Slot marks a dead entry awaiting compaction.
type Ref struct {
	Slot Handle
	Seq  uint64
}

// RefList is a seq-ordered list of slab objects built for O(1) mutation:
// Add appends (seqs arrive nearly monotonic, so appends are already nearly
// sorted), Remove marks the entry dead in place through the index the
// element caches, and the list compacts once dead entries outnumber live
// ones. Walkers that need the deterministic seq order call Ordered, which
// re-sorts lazily — only when an out-of-order Add has dirtied the list.
//
// Elements cache their own position: Add returns it, and setIndex refreshes
// it whenever compaction or a re-sort moves an entry — the only two
// operations that pay the callback. The list must not be mutated during an
// Ordered walk.
type RefList[T any] struct {
	slab     *Slab[T]
	setIndex func(*T, int)
	// tieLess orders two live elements with equal Seq (nil: seqs are
	// unique, or their relative order does not matter).
	tieLess func(a, b *T) bool

	refs     []Ref
	live     int
	unsorted bool
	lastSeq  uint64 // largest seq ever added
}

// NewRefList returns an empty list over s. setIndex stores an element's
// list position; tieLess may be nil.
func NewRefList[T any](s *Slab[T], setIndex func(*T, int), tieLess func(a, b *T) bool) RefList[T] {
	return RefList[T]{slab: s, setIndex: setIndex, tieLess: tieLess}
}

// Len reports the number of live entries.
func (l *RefList[T]) Len() int { return l.live }

// Add appends h and returns its position, which the caller caches on the
// element for Remove.
func (l *RefList[T]) Add(h Handle, seq uint64) int {
	if len(l.refs) == 0 || seq > l.lastSeq {
		l.lastSeq = seq
	} else {
		l.unsorted = true
	}
	l.refs = append(l.refs, Ref{Slot: h, Seq: seq})
	l.live++
	return len(l.refs) - 1
}

// Remove marks the entry for h at its cached position idx dead. Callers
// guard against removing a non-member (they hold the membership flag).
func (l *RefList[T]) Remove(h Handle, idx int) {
	l.live--
	if idx < len(l.refs) && l.refs[idx].Slot == h {
		l.refs[idx].Slot = Handle{}
	}
	if l.live*2 < len(l.refs) {
		l.compact()
	}
}

// compact drops dead entries, preserving the live members' order and
// refreshing their cached positions.
func (l *RefList[T]) compact() {
	kept := l.refs[:0]
	for _, r := range l.refs {
		if r.Slot.IsZero() {
			continue
		}
		l.setIndex(l.slab.Get(r.Slot), len(kept))
		kept = append(kept, r)
	}
	l.refs = kept
}

// Ordered returns the entries in (seq, tieLess) order, restoring it first
// if out-of-order Adds have dirtied it. Entries removed since the last
// compaction are still present with a zero Slot; walkers skip them.
func (l *RefList[T]) Ordered() []Ref {
	if l.unsorted {
		l.compact()
		s := l.refs
		sort.Slice(s, func(i, j int) bool {
			if s[i].Seq != s[j].Seq || l.tieLess == nil {
				return s[i].Seq < s[j].Seq
			}
			return l.tieLess(l.slab.Get(s[i].Slot), l.slab.Get(s[j].Slot))
		})
		for i, r := range s {
			l.setIndex(l.slab.Get(r.Slot), i)
		}
		l.unsorted = false
	}
	return l.refs
}
