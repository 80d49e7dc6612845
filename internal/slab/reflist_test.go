package slab

import (
	"math/rand"
	"sort"
	"testing"
)

type member struct {
	name string
	seq  uint64
	idx  int
	in   bool
}

func setMemberIdx(m *member, i int) { m.idx = i }
func memberLess(a, b *member) bool  { return a.name < b.name }

// liveNames walks Ordered the way callers do: skipping dead entries.
func liveNames(t *testing.T, s *Slab[member], l *RefList[member]) []string {
	t.Helper()
	var out []string
	for i, r := range l.Ordered() {
		m := s.Get(r.Slot)
		if m == nil || !m.in {
			continue
		}
		if m.idx != i {
			t.Fatalf("%s caches index %d, sits at %d", m.name, m.idx, i)
		}
		out = append(out, m.name)
	}
	return out
}

func TestRefListOrderAndTieBreak(t *testing.T) {
	s := New[member](0)
	l := NewRefList(s, setMemberIdx, memberLess)
	add := func(name string, seq uint64) *member {
		m, h := s.Alloc()
		*m = member{name: name, seq: seq, in: true}
		m.idx = l.Add(h, seq)
		return m
	}
	add("c", 3)
	add("a", 1) // out of order: dirties the list
	add("z", 0) // seq-0 ties order by tieLess
	add("y", 0)
	add("d", 4)
	got := liveNames(t, s, &l)
	want := []string{"y", "z", "a", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if l.Len() != 5 {
		t.Errorf("Len = %d, want 5", l.Len())
	}
}

// TestRefListMatchesSortedModel drives random adds and removes against a
// plain sorted-slice model: the live walk must equal the model after every
// step, cached indexes must stay exact, and dead entries must never exceed
// the live ones (the compaction bound).
func TestRefListMatchesSortedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New[member](0)
	l := NewRefList(s, setMemberIdx, nil)
	type entry struct {
		h Handle
		m *member
	}
	var model []entry
	next := uint64(1)
	for step := 0; step < 5000; step++ {
		if len(model) == 0 || rng.Intn(3) > 0 {
			seq := next
			next++
			if rng.Intn(10) == 0 && seq > 5 {
				// A late completion: lands behind newer entries.
				seq -= 5
				for _, e := range model {
					if e.m.seq == seq {
						seq = next
						next++
						break
					}
				}
			}
			m, h := s.Alloc()
			*m = member{seq: seq, in: true}
			m.idx = l.Add(h, seq)
			model = append(model, entry{h, m})
		} else {
			i := rng.Intn(len(model))
			e := model[i]
			e.m.in = false
			l.Remove(e.h, e.m.idx)
			s.Free(e.h)
			model = append(model[:i], model[i+1:]...)
		}
		if l.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model has %d", step, l.Len(), len(model))
		}
		if step%7 != 0 {
			continue // let dead entries and disorder accumulate between walks
		}
		sort.Slice(model, func(i, j int) bool { return model[i].m.seq < model[j].m.seq })
		refs := l.Ordered()
		if dead := len(refs) - l.Len(); dead > l.Len() {
			t.Fatalf("step %d: %d dead entries outnumber %d live", step, dead, l.Len())
		}
		k := 0
		for i, r := range refs {
			m := s.Get(r.Slot)
			if m == nil {
				continue
			}
			if k >= len(model) || m != model[k].m {
				t.Fatalf("step %d: walk position %d diverges from the sorted model", step, k)
			}
			if m.idx != i || r.Seq != m.seq {
				t.Fatalf("step %d: entry %d caches idx %d seq %d, ref seq %d", step, i, m.idx, m.seq, r.Seq)
			}
			k++
		}
		if k != len(model) {
			t.Fatalf("step %d: walk saw %d live entries, model has %d", step, k, len(model))
		}
	}
}

// TestRefListMutationSkipsCallback pins the cost model: an in-order Add and
// a Remove that does not trigger compaction never call setIndex.
func TestRefListMutationSkipsCallback(t *testing.T) {
	s := New[member](0)
	calls := 0
	l := NewRefList(s, func(m *member, i int) { calls++; m.idx = i }, nil)
	var hs []Handle
	for i := 0; i < 8; i++ {
		m, h := s.Alloc()
		m.idx = l.Add(h, uint64(i+1))
		hs = append(hs, h)
	}
	for i := 0; i < 4; i++ { // 4 live of 8: not yet more dead than live
		l.Remove(hs[i], s.Get(hs[i]).idx)
	}
	l.Ordered()
	if calls != 0 {
		t.Errorf("setIndex called %d times without compaction or re-sort", calls)
	}
	l.Remove(hs[4], s.Get(hs[4]).idx) // 3 live of 8: compacts
	if calls != 3 {
		t.Errorf("compaction refreshed %d indexes, want 3", calls)
	}
	if got := len(l.Ordered()); got != 3 {
		t.Errorf("list holds %d entries after compaction, want 3", got)
	}
}
