package slab

import "testing"

type obj struct {
	id  int
	ptr *int
}

func TestAllocGetFree(t *testing.T) {
	s := New[obj](0)
	v, h := s.Alloc()
	v.id = 7
	if got := s.Get(h); got != v {
		t.Fatalf("Get returned %p, want %p", got, v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Free(h) {
		t.Fatal("Free reported false for a live handle")
	}
	if s.Len() != 0 {
		t.Fatalf("Len after free = %d, want 0", s.Len())
	}
	if got := s.Get(h); got != nil {
		t.Fatalf("Get after free = %p, want nil", got)
	}
}

func TestZeroHandleInert(t *testing.T) {
	s := New[obj](0)
	var zero Handle
	if !zero.IsZero() {
		t.Fatal("zero Handle does not report IsZero")
	}
	if s.Get(zero) != nil {
		t.Fatal("Get(zero) != nil")
	}
	if s.Free(zero) {
		t.Fatal("Free(zero) reported true")
	}
}

func TestStaleHandleInertAfterReuse(t *testing.T) {
	s := New[obj](0)
	v1, h1 := s.Alloc()
	v1.id = 1
	s.Free(h1)

	// LIFO reuse: the next Alloc must take the same slot under a new gen.
	v2, h2 := s.Alloc()
	if v2 != v1 {
		t.Fatalf("slot not reused: %p vs %p", v2, v1)
	}
	if h2 == h1 {
		t.Fatal("recycled slot reissued the same handle")
	}
	v2.id = 2

	// The stale handle must not see, nor free, the new occupant.
	if got := s.Get(h1); got != nil {
		t.Fatalf("stale Get = %p, want nil", got)
	}
	if s.Free(h1) {
		t.Fatal("stale Free reported true")
	}
	if got := s.Get(h2); got == nil || got.id != 2 {
		t.Fatalf("live handle broken by stale ops: %+v", got)
	}
	// A handle survives the trip through an event argument, staleness included.
	if Unpack(h1.Pack()) != h1 || Unpack(h2.Pack()) != h2 || !Unpack(0).IsZero() {
		t.Fatalf("Pack/Unpack is not the identity: %v, %v", Unpack(h1.Pack()), Unpack(h2.Pack()))
	}
	if s.Get(Unpack(h1.Pack())) != nil || s.Get(Unpack(h2.Pack())) != v2 {
		t.Fatal("an unpacked handle resolves differently from the handle packed")
	}
}

func TestDoubleFreeInert(t *testing.T) {
	s := New[obj](0)
	_, h := s.Alloc()
	if !s.Free(h) {
		t.Fatal("first Free failed")
	}
	if s.Free(h) {
		t.Fatal("double Free reported true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len corrupted by double free: %d", s.Len())
	}
}

func TestPointerStabilityAcrossGrowth(t *testing.T) {
	s := New[obj](0)
	ptrs := make(map[*obj]Handle)
	// Span several chunks so growth definitely happens.
	for i := 0; i < 5*chunkSize; i++ {
		v, h := s.Alloc()
		v.id = i
		ptrs[v] = h
	}
	for v, h := range ptrs {
		if got := s.Get(h); got != v {
			t.Fatalf("pointer moved after growth: Get = %p, want %p", got, v)
		}
	}
}

func TestPreSizingAllocatesNoChunks(t *testing.T) {
	const n = 1000
	s := New[obj](n)
	if s.Cap() < n {
		t.Fatalf("Cap = %d, want >= %d", s.Cap(), n)
	}
	chunksBefore := len(s.chunks)
	for i := 0; i < n; i++ {
		s.Alloc()
	}
	if len(s.chunks) != chunksBefore {
		t.Fatalf("pre-sized slab grew: %d -> %d chunks", chunksBefore, len(s.chunks))
	}
}

func TestFreeListChurnStaysBounded(t *testing.T) {
	s := New[obj](0)
	handles := make([]Handle, 0, 64)
	for i := 0; i < 64; i++ {
		_, h := s.Alloc()
		handles = append(handles, h)
	}
	capAfterWarmup := s.Cap()
	// Churn far more objects than the peak population: release/revocation
	// cycles must recycle slots instead of growing the slab.
	for round := 0; round < 100; round++ {
		for _, h := range handles {
			if !s.Free(h) {
				t.Fatalf("round %d: Free failed", round)
			}
		}
		handles = handles[:0]
		for i := 0; i < 64; i++ {
			_, h := s.Alloc()
			handles = append(handles, h)
		}
	}
	if s.Cap() != capAfterWarmup {
		t.Fatalf("slab grew under churn: %d -> %d slots", capAfterWarmup, s.Cap())
	}
	if s.Len() != 64 {
		t.Fatalf("Len = %d, want 64", s.Len())
	}
}
