package simkit

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// millisecond spaces the tests' events finer than the model's units.
const millisecond = Second / 1000

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3*Second, "c", func() { order = append(order, 3) })
	s.At(1*Second, "a", func() { order = append(order, 1) })
	s.At(2*Second, "b", func() { order = append(order, 2) })
	s.Run(0)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*Second {
		t.Errorf("Now() = %v, want 3s", s.Now())
	}
}

func TestSchedulerFIFOAmongSimultaneous(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, "tie", func() { order = append(order, i) })
	}
	s.Run(0)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestSchedulerEventsScheduleEvents(t *testing.T) {
	s := NewScheduler()
	var fired int
	var chain func()
	chain = func() {
		fired++
		if fired < 5 {
			s.After(Second, "chain", chain)
		}
	}
	s.After(Second, "chain", chain)
	s.Run(0)
	if fired != 5 {
		t.Errorf("fired = %d, want 5", fired)
	}
	if s.Now() != 5*Second {
		t.Errorf("Now() = %v, want 5s", s.Now())
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	var fired bool
	e := s.At(Second, "x", func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // double-cancel is a no-op
	s.Run(0)
	if fired {
		t.Error("canceled event fired")
	}
	if e.Pending() {
		t.Error("Pending() = true after Cancel")
	}
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	var fired bool
	var victim Event
	s.At(Second, "canceler", func() { s.Cancel(victim) })
	victim = s.At(2*Second, "victim", func() { fired = true })
	s.Run(0)
	if fired {
		t.Error("event canceled mid-run still fired")
	}
}

// Cancel after the event already fired must be a no-op: the event executed,
// and the queue goes on working.
func TestSchedulerCancelAfterFire(t *testing.T) {
	s := NewScheduler()
	var fired bool
	e := s.At(Second, "x", func() { fired = true })
	s.Run(0)
	if !fired {
		t.Fatal("event did not fire")
	}
	s.Cancel(e) // no-op: already fired
	if e.Pending() {
		t.Error("Pending() = true after fire")
	}
	// The queue must still work normally afterwards.
	var again bool
	s.After(Second, "y", func() { again = true })
	s.Run(0)
	if !again {
		t.Error("scheduler broken after cancel-after-fire")
	}
}

func TestSchedulerDoubleCancel(t *testing.T) {
	s := NewScheduler()
	e := s.At(Second, "x", func() { t.Error("canceled event fired") })
	s.Cancel(e)
	s.Cancel(e) // second cancel: no-op, state unchanged
	if e.Pending() || s.Pending() != 0 {
		t.Error("event still queued after double cancel")
	}
	s.Run(0)
}

// A handle held after its event fired must stay inert once the slot is
// recycled for a new event: Cancel through the stale handle must neither
// cancel the slot's new occupant nor corrupt the queue.
func TestSchedulerStaleHandleAfterFire(t *testing.T) {
	s := NewScheduler()
	stale := s.At(Second, "old", func() {})
	s.Run(0) // fires; slot goes to the free list

	// Reuse the slot for a new event (white box: verify it really is the
	// same slot, i.e. the free list recycles).
	fresh := s.At(2*Second, "new", func() {})
	if fresh.e != stale.e {
		t.Fatalf("free list did not recycle the slot")
	}
	if fresh.gen == stale.gen {
		t.Fatalf("recycled slot kept its generation")
	}

	s.Cancel(stale) // stale: generation mismatch, must be a no-op
	if !fresh.Pending() {
		t.Fatal("stale-handle Cancel hit the slot's new occupant")
	}
	if stale.Pending() {
		t.Error("stale handle reports its slot's new occupant as pending")
	}
	var fired bool
	s.At(2*Second, "probe", func() { fired = true })
	fresh2 := fresh // copies stay valid
	s.Run(0)
	if !fired || s.Pending() != 0 {
		t.Error("queue corrupted by stale-handle Cancel")
	}
	if fresh2.Pending() {
		t.Error("recycled event reads pending after it fired")
	}
}

// Same inertness guarantee for handles of canceled events.
func TestSchedulerStaleHandleAfterCancel(t *testing.T) {
	s := NewScheduler()
	stale := s.At(Second, "old", func() { t.Error("canceled event fired") })
	s.Cancel(stale)
	if stale.Pending() {
		t.Fatal("Pending() = true right after Cancel")
	}

	fresh := s.At(Second, "new", func() {})
	if fresh.e != stale.e {
		t.Fatalf("free list did not recycle the canceled slot")
	}
	// The old handle keeps reporting its own outcome across the reuse.
	if stale.Pending() {
		t.Error("stale handle reports its slot's new occupant as pending")
	}
	s.Cancel(stale) // no-op: stale generation
	if !fresh.Pending() {
		t.Fatal("stale-handle Cancel removed the new occupant")
	}
	s.Run(0)
	if s.Pending() != 0 {
		t.Error("queue not drained")
	}
}

// The zero Event is inert everywhere.
func TestSchedulerZeroEvent(t *testing.T) {
	s := NewScheduler()
	var e Event
	s.Cancel(e) // no-op
	if e.Pending() || e.At() != 0 {
		t.Error("zero Event not inert")
	}
}

// Steady-state scheduling must not allocate: after a warm-up burst, the
// free list feeds every new event.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm up: grow the queue blocks, slab and free list past steady state.
	for i := 0; i < 4*eventChunk; i++ {
		s.After(Time(i)*millisecond, "warm", fn)
	}
	s.Run(0)
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(millisecond, "steady", fn)
		s.Run(0)
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule+fire allocates %.2f allocs/op, want 0", allocs)
	}
}

// The argument-carrying form is the one hot paths schedule through: after
// warm-up it must allocate nothing, and its slot must stay within a cache
// line however the two callback forms share it.
func TestAtArgSteadyStateAllocs(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 64 {
		t.Errorf("event slot is %d bytes, want <= 64", size)
	}
	s := NewScheduler()
	var sum uint64
	fn := func(arg uint64) { sum += arg }
	for i := 0; i < 4*eventChunk; i++ {
		s.AfterArg(Time(i)*millisecond, "warm", fn, uint64(i))
	}
	s.Run(0)
	want := sum + 1000*7 + 7 // AllocsPerRun calls once more to warm up
	allocs := testing.AllocsPerRun(1000, func() {
		s.AfterArg(millisecond, "steady", fn, 7)
		h := s.AtArg(s.Now()+2*millisecond, "dropped", fn, 1<<40)
		s.Cancel(h)
		s.Run(0)
	})
	if allocs > 0 {
		t.Errorf("steady-state AtArg schedule+cancel+fire allocates %.2f allocs/op, want 0", allocs)
	}
	if sum != want {
		t.Errorf("argument events delivered a sum of %d, want %d (a canceled event fired, or an argument was lost)", sum, want)
	}
}

// Heavy interleaved schedule/cancel/fire churn with handle copies retained
// across recycling: pop order must match a reference sort and the queue
// must never lose or duplicate events.
func TestSchedulerChurnOrdering(t *testing.T) {
	s := NewScheduler()
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	var handles []Event
	n := 0
	schedule := func(d Time) {
		id := n
		n++
		handles = append(handles, s.After(d, "churn", func() {
			fired = append(fired, rec{s.Now(), id})
		}))
	}
	for round := 0; round < 50; round++ {
		for k := 0; k < 20; k++ {
			schedule(Time((k*37+round*11)%100) * millisecond)
		}
		// Cancel every third handle ever issued — most are stale by now.
		for i := 0; i < len(handles); i += 3 {
			s.Cancel(handles[i])
		}
		s.RunUntil(s.Now() + 40*millisecond)
	}
	s.Run(0)
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("events fired out of time order at %d: %v then %v", i, fired[i-1], fired[i])
		}
	}
	if s.Pending() != 0 {
		t.Errorf("events stranded in queue: %d", s.Pending())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, d := range []Time{Second, 2 * Second, 3 * Second} {
		d := d
		s.At(d, "t", func() { fired = append(fired, d) })
	}
	s.RunUntil(2 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2*Second {
		t.Errorf("Now() = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", s.Pending())
	}
	s.RunUntil(10 * Second)
	if s.Now() != 10*Second {
		t.Errorf("Now() = %v, want 10s", s.Now())
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(Second, "x", func() {})
	s.Run(0)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	s.At(0, "past", func() {})
}

func TestSchedulerNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-Second, "neg", func() {})
}

func TestSchedulerRunLimitPanics(t *testing.T) {
	s := NewScheduler()
	var loop func()
	loop = func() { s.After(Second, "loop", loop) }
	s.After(Second, "loop", loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip the limit")
		}
	}()
	s.Run(100)
}

func TestSchedulerFiredCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.After(Time(i)*Second, "n", func() {})
	}
	s.Run(0)
	if s.Fired() != 7 {
		t.Errorf("Fired() = %d, want 7", s.Fired())
	}
}

// Property: for any set of non-negative offsets, events fire in
// non-decreasing time order and the clock ends at the max offset.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := NewScheduler()
		var fired []Time
		var maxT Time
		for _, o := range offsets {
			d := Time(o) * millisecond
			if d > maxT {
				maxT = d
			}
			s.At(d, "p", func() { fired = append(fired, s.Now()) })
		}
		s.Run(0)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(offsets) == 0 || s.Now() == maxT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}

	// Cancel-heavy mix against a sorted-slice reference: every fired event
	// must be the reference's head (same id, same time, so FIFO among ties
	// too). Queue sizes sit on either side of one, two and several 64-entry
	// blocks, so a bucket's chain gains and drops blocks at its boundaries,
	// and over 30 % of the ops cancel an event from the middle of the order,
	// leaving orphans that the pops drop and compaction rewrites in place.
	// Half the times are a few distinct milliseconds ahead (many ties, one
	// bucket), half are a power of two nanoseconds ahead, give or take one,
	// so they straddle the radix buckets' boundaries.
	type rec struct {
		at Time
		id int
		h  Event
	}
	ops, cancels := 0, 0
	for _, size := range []int{1, 2, 63, 64, 65, 127, 128, 129, 300, 700} {
		rng := rand.New(rand.NewSource(int64(size)))
		s := NewScheduler()
		var ref []rec // the pending events, sorted by (at, id)
		var fired []int
		next := 0
		// Half the events carry their id as an argument to one shared
		// function, half in a closure: both forms share the slab and the
		// queue, so the pop order is a function of time and scheduling
		// order alone — and a canceled or fired argument event must stay
		// inert however its slot is reused, as a closure event does.
		fireArg := func(id uint64) { fired = append(fired, int(id)) }
		add := func() {
			at := s.Now() + Time(rng.Intn(40))*millisecond
			if rng.Intn(2) == 0 {
				at = s.Now() + 1<<rng.Intn(45) + Time(rng.Intn(3)) - 1
			}
			id := next
			next++
			var h Event
			if rng.Intn(2) == 0 {
				h = s.AtArg(at, "p", fireArg, uint64(id))
			} else {
				h = s.At(at, "p", func() { fired = append(fired, id) })
			}
			// ids only grow, so the new event sorts after every tie.
			i := sort.Search(len(ref), func(i int) bool { return ref[i].at > at })
			ref = slices.Insert(ref, i, rec{at, id, h})
		}
		var dead []Event // handles of fired and canceled events: stale once their slot is reused
		step := func() {
			want, n := ref[0], len(fired)
			dead = append(dead, want.h)
			ref = ref[1:]
			if !s.Step() || len(fired) != n+1 || fired[n] != want.id || s.Now() != want.at {
				t.Fatalf("size %d: fired %v at %v, reference head is event %d at %v", size, fired[n:], s.Now(), want.id, want.at)
			}
		}
		for len(ref) < size {
			add()
		}
		for range 6*size + 60 {
			ops++
			switch r := rng.Intn(10); {
			case len(ref) < size/2 || r >= 8:
				add()
			case r < 5 && len(ref) > 2:
				i := len(ref)/4 + rng.Intn(len(ref)/2)
				s.Cancel(ref[i].h)
				if ref[i].h.Pending() {
					t.Fatalf("size %d: canceled event %d still pending", size, ref[i].id)
				}
				dead = append(dead, ref[i].h)
				ref = slices.Delete(ref, i, i+1)
				cancels++
			case len(ref) > 0:
				step()
			}
			if len(dead) > 0 {
				// A stale handle of either form cancels nothing: the pending
				// count below and the reference order catch it if it does.
				s.Cancel(dead[rng.Intn(len(dead))])
			}
			if s.Pending() != len(ref) {
				t.Fatalf("size %d: %d pending, reference holds %d", size, s.Pending(), len(ref))
			}
		}
		for len(ref) > 0 {
			step()
		}
		if s.Step() {
			t.Fatalf("size %d: an event outlived the reference", size)
		}
	}
	if cancels*10 < ops*3 {
		t.Errorf("%d cancels in %d ops: the mix is not cancel-heavy", cancels, ops)
	}
}

func TestTimeHelpers(t *testing.T) {
	if got := Hours(1.5); got != Time(90*time.Minute) {
		t.Errorf("Hours(1.5) = %v", got)
	}
	if got := Seconds(0.5); got != Time(500*time.Millisecond) {
		t.Errorf("Seconds(0.5) = %v", got)
	}
	if (2 * Hour).Hours() != 2 {
		t.Error("Hours() conversion wrong")
	}
	if (3 * Second).Seconds() != 3 {
		t.Error("Seconds() conversion wrong")
	}
	if (2 * Hour).Sub(Hour) != time.Hour {
		t.Error("Sub wrong")
	}
	if s := (25 * Hour).String(); s != "1d1h0m0s" {
		t.Errorf("String() = %q", s)
	}
	if s := (90 * Minute).String(); s != "1h30m0s" {
		t.Errorf("String() = %q", s)
	}
}

// A delay that runs past the largest Time panics naming the overflow, not as
// a schedule before now.
func TestSchedulerOverflowPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		schedule func(s *Scheduler, d Time)
	}{
		{"After", func(s *Scheduler, d Time) { s.After(d, "x", func() {}) }},
		{"AfterArg", func(s *Scheduler, d Time) { s.AfterArg(d, "x", func(uint64) {}, 0) }},
	} {
		for _, d := range []Time{maxTime, maxTime - Hour + 1} {
			s := NewScheduler()
			s.RunUntil(Hour)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "overflows") {
						t.Errorf("%s(%d) one hour in: panic %q, want one naming the overflow", tc.name, d, msg)
					}
				}()
				tc.schedule(s, d)
			}()
		}
		// The largest delay that still fits is accepted and fires there.
		s := NewScheduler()
		s.RunUntil(Hour)
		tc.schedule(s, maxTime-Hour)
		if !s.Step() || s.Now() != maxTime {
			t.Errorf("%s(maxTime-1h) one hour in: fired at %v, want %v", tc.name, s.Now(), maxTime)
		}
	}
}

// An entry's tag is the low 32 bits of its slot's generation. Before a
// slot's tag repeats the queue drops every orphan, so an entry left by an
// occupancy 2^32 reuses ago never fires the slot's current occupant early.
func TestSchedulerTagWrap(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	fn := func() { fired = append(fired, s.Now()) }
	for range 4 { // enough pending events that two orphans force no compaction
		s.At(4*Hour, "keep", fn)
	}
	old := s.At(Hour, "old", fn)
	s.Cancel(old) // an orphan at 1h, with old's tag
	// Fast-forward the free slot to the last generation before its tag
	// wraps, as 2^32 reuses would.
	old.e.gen += 1<<32 - 2
	wrapped := s.At(2*Hour, "wrapped", fn) // tag 0: the queue compacts first
	if wrapped.e != old.e || uint32(wrapped.gen) != 0 {
		t.Fatalf("slot %p gen %#x, want old's slot %p at a wrapped tag", wrapped.e, wrapped.gen, old.e)
	}
	s.Cancel(wrapped)
	again := s.At(3*Hour, "again", fn) // old's tag once more
	if again.e != old.e || uint32(again.gen) != uint32(old.gen) {
		t.Fatalf("slot %p gen %#x, want old's slot and tag %#x", again.e, again.gen, uint32(old.gen))
	}
	s.Run(0)
	if want := []Time{3 * Hour, 4 * Hour, 4 * Hour, 4 * Hour, 4 * Hour}; !slices.Equal(fired, want) {
		t.Errorf("fired at %v, want %v: an orphan from before the wrap fired the slot's new occupant", fired, want)
	}
}

// The queue's storage holds no Go pointer: the collector never scans it and
// moving an entry needs no write barrier. An entry is 16 bytes.
func TestQueueStorageHoldsNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
			return false
		}
		return true
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[entry](), reflect.TypeFor[block](), reflect.TypeFor[bucket]()} {
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
	if size := unsafe.Sizeof(entry{}); size != 16 {
		t.Errorf("queue entry is %d bytes, want 16", size)
	}
}

// A redistribution may start a block in every bucket below the one it
// empties. From a fresh queue — one block in use, none spare — bucket i
// holds 2^(i-1) plus each lower power of two, which deals one entry into
// each of the i buckets below it; they must pop in time order.
func TestSchedulerDealIntoEveryBucket(t *testing.T) {
	for _, i := range []int{1, 2, 10, 40, 63} {
		s := NewScheduler()
		base := Time(1) << (i - 1)
		want := []Time{base}
		for j := i - 2; j >= 0; j-- {
			want = append(want, base+Time(1)<<j)
		}
		for _, at := range want {
			s.At(at, "deal", func() {})
		}
		slices.Sort(want)
		for _, at := range want {
			if !s.Step() || s.Now() != at {
				t.Fatalf("bucket %d: popped %v, want %v", i, s.Now(), at)
			}
		}
	}
	// A deal may also fill a block with the free list empty: the first
	// source block starts buckets 0 and 1, the second fills bucket 1's
	// block, starts bucket 3 with the block the first one freed, and then
	// needs one more block for bucket 1.
	s := NewScheduler()
	base := Time(1) << 40
	times := []Time{base}
	for range 64 {
		times = append(times, base+1)
	}
	times = append(times, base+4, base+1)
	var fired []Time
	for _, at := range times {
		s.At(at, "deal", func() { fired = append(fired, s.Now()) })
	}
	s.Run(0)
	want := slices.Clone(times)
	slices.Sort(want)
	if !slices.Equal(fired, want) {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

// TestRecordSizes pins the size of a scheduler slot (64-bit platforms):
// every event ever pending at once keeps one, so a field added here is
// paid for at the fleet's deepest queue.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("event is %d bytes, want 40", got)
	}
}

// TestSchedulerStormDeals pins the queue's re-sorting work on a synthetic
// revocation storm: 10 000 events at nanosecond offsets spread over 120 s,
// scheduled an hour ahead, while a monitor ticks on a 10-minute grid for
// six hours. With 4-bit digits an entry is dealt at most 15 times, and the
// storm's entries, which share their high digits, far fewer: the count
// moves only if the radix or the bucket rule changes.
func TestSchedulerStormDeals(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	fired, last := 0, Time(0)
	check := func(uint64) {
		if s.Now() < last {
			t.Fatalf("popped %v after %v", s.Now(), last)
		}
		last = s.Now()
		fired++
	}
	var tick func(uint64)
	tick = func(n uint64) {
		check(n)
		if n < 36 {
			s.AfterArg(10*Minute, "tick", tick, n+1)
		}
	}
	s.AtArg(0, "tick", tick, 0)
	for range 10_000 {
		s.AtArg(Hour+Time(rng.Int63n(int64(120*Second))), "storm", check, 0)
	}
	s.Run(0)
	if fired != 10_037 {
		t.Fatalf("fired %d events, want 10 037", fired)
	}
	if got, want := s.Dealt(), uint64(42_099); got != want {
		t.Errorf("dealt %d entries for %d events, want %d", got, fired, want)
	}
}

// TestSchedulerYields checks that a run gives up the processor every
// yieldEvery events: with one processor, a goroutine that became runnable
// before the run (standing in for the collector's mark worker) runs by
// then, not only once the runtime preempts the loop after the run's last
// event.
func TestSchedulerYields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewScheduler()
	var ran atomic.Bool
	seen := uint64(0) // the first event that saw the other goroutine's store
	for i := range 2 * yieldEvery {
		s.AtArg(Time(i), "e", func(n uint64) {
			if seen == 0 && ran.Load() {
				seen = n
			}
		}, uint64(i+1))
	}
	go ran.Store(true)
	s.Run(0)
	switch {
	case seen == 0:
		t.Errorf("the other goroutine did not run during %d events; want it to run by event %d", 2*yieldEvery, yieldEvery)
	case seen > yieldEvery:
		t.Errorf("the other goroutine first ran before event %d; want it to run by event %d", seen, yieldEvery)
	}
}
