package slab

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzRefList drives a RefList with a byte script of adds (in order, late,
// or tying an earlier seq), removes and walks against a sorted-slice model.
// After every operation Len must match the model and every live member's
// cached index must point at its own entry, across compactions and lazy
// re-sorts; every walk must list the live members in (seq, name) order.
func FuzzRefList(f *testing.F) {
	f.Add([]byte{0, 4, 8, 3, 2, 0, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 2, 1, 2, 1, 3, 2, 0, 3})
	f.Add([]byte{1, 201, 5, 9, 13, 3, 2, 7, 2, 3, 2, 5, 3, 0, 2, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		s := New[member](0)
		l := NewRefList(s, setMemberIdx, memberLess)
		type entry struct {
			h Handle
			m *member
		}
		var model []entry
		var next uint64
		for step := 0; step < len(script); step++ {
			b := script[step]
			switch op := b & 3; {
			case op <= 1 || len(model) == 0:
				// An add: op 0 takes the next seq; op 1 lands b>>2 seqs
				// behind it, a late completion that may tie an earlier one.
				seq := next
				next++
				if op == 1 {
					seq -= min(seq, uint64(b>>2))
				}
				m, h := s.Alloc()
				*m = member{name: fmt.Sprintf("m%03d", step), seq: seq, in: true}
				m.idx = l.Add(h, seq)
				model = append(model, entry{h, m})
			case op == 2:
				step++
				var pick int
				if step < len(script) {
					pick = int(script[step])
				}
				i := pick % len(model)
				e := model[i]
				e.m.in = false
				l.Remove(e.h, e.m.idx)
				s.Free(e.h)
				model = append(model[:i], model[i+1:]...)
			default:
				sort.Slice(model, func(i, j int) bool {
					a, b := model[i].m, model[j].m
					return a.seq < b.seq || a.seq == b.seq && memberLess(a, b)
				})
				k := 0
				for i, r := range l.Ordered() {
					if r.Slot.IsZero() {
						continue
					}
					if k >= len(model) || r.Slot != model[k].h || r.Seq != model[k].m.seq {
						t.Fatalf("step %d: walk entry %d is not the model's member %d", step, i, k)
					}
					k++
				}
				if k != len(model) {
					t.Fatalf("step %d: walk saw %d live members, model has %d", step, k, len(model))
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("step %d: Len = %d, model has %d", step, l.Len(), len(model))
			}
			for _, e := range model {
				if e.m.idx >= len(l.refs) || l.refs[e.m.idx].Slot != e.h {
					t.Fatalf("step %d: %s caches index %d, which does not hold it", step, e.m.name, e.m.idx)
				}
			}
		}
	})
}
