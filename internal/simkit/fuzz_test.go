package simkit

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// schedModel is FuzzScheduler's reference: the pending events as a slice
// sorted by (time, scheduling order), plus every handle ever issued and what
// became of it. Events check themselves against the model as they fire.
type schedModel struct {
	t       *testing.T
	s       *Scheduler
	pending []modelEvent // sorted by (at, id)
	handles []Event      // by id
	state   []byte       // by id: modelPending, modelFired or modelCanceled
	action  []byte       // by id: what the event does when it fires
	now     Time
	fired   uint64
	fireArg func(uint64)
}

type modelEvent struct {
	at Time
	id int
}

const (
	modelPending byte = iota
	modelFired
	modelCanceled
)

func newSchedModel(t *testing.T) *schedModel {
	m := &schedModel{t: t, s: NewScheduler()}
	m.fireArg = func(arg uint64) { m.fire(int(arg)) }
	return m
}

// schedule queues an event at now+d whose firing does action; odd actions
// use the closure form.
func (m *schedModel) schedule(d Time, action byte) {
	id := len(m.handles)
	at := m.now + d
	var h Event
	if action&1 == 0 {
		h = m.s.AtArg(at, "fuzz", m.fireArg, uint64(id))
	} else {
		h = m.s.At(at, "fuzz", func() { m.fire(id) })
	}
	if h.At() != at {
		m.t.Fatalf("event %d: handle says %v, scheduled at %v", id, h.At(), at)
	}
	m.handles = append(m.handles, h)
	m.state = append(m.state, modelPending)
	m.action = append(m.action, action)
	// ids only grow, so the new event sorts after every one at its time.
	i := sort.Search(len(m.pending), func(i int) bool { return m.pending[i].at > at })
	m.pending = slices.Insert(m.pending, i, modelEvent{at, id})
}

// cancel cancels the event with the given id, whatever became of it.
func (m *schedModel) cancel(id int) {
	h := m.handles[id]
	m.s.Cancel(h)
	if m.state[id] != modelPending {
		return
	}
	i := slices.IndexFunc(m.pending, func(e modelEvent) bool { return e.id == id })
	m.pending = slices.Delete(m.pending, i, i+1)
	m.state[id] = modelCanceled
	// Pops may leave orphans behind, but a Cancel compacts once they
	// outnumber the pending events.
	if orphans := m.s.size - m.s.live; orphans > m.s.live {
		m.t.Fatalf("%d orphans outnumber %d pending events after a Cancel", orphans, m.s.live)
	}
}

// fire is every event's callback: it must be the model's head, at the
// model's head time. It then does its action from inside the callback,
// while the rest of its instant may still wait in the queue.
func (m *schedModel) fire(id int) {
	if len(m.pending) == 0 || m.pending[0].id != id || m.s.Now() != m.pending[0].at {
		m.t.Fatalf("event %d fired at %v; the model's head is %v", id, m.s.Now(), m.pending[:min(1, len(m.pending))])
	}
	m.now = m.pending[0].at
	m.pending = m.pending[1:]
	m.state[id] = modelFired
	m.fired++
	if m.handles[id].Pending() {
		m.t.Fatalf("event %d reads pending inside its own callback", id)
	}
	a := m.action[id]
	switch a >> 1 % 8 {
	case 1: // cancel the next event of this instant, if any
		if len(m.pending) > 0 && m.pending[0].at == m.now {
			m.cancel(m.pending[0].id)
		}
	case 2: // cancel any handle ever issued
		m.cancel(int(a) * 7919 % len(m.handles))
	case 3: // schedule another event at this instant
		m.schedule(0, 0)
	case 4: // schedule one a little later
		m.schedule(Time(a), 0)
	case 5: // cancel the last pending event of all
		if n := len(m.pending); n > 0 {
			m.cancel(m.pending[n-1].id)
		}
	}
}

// check compares every observable with the model.
func (m *schedModel) check() {
	s := m.s
	if s.Now() != m.now || s.Pending() != len(m.pending) || s.Fired() != m.fired {
		m.t.Fatalf("scheduler: now %v, %d pending, %d fired; model: now %v, %d pending, %d fired",
			s.Now(), s.Pending(), s.Fired(), m.now, len(m.pending), m.fired)
	}
	for id, h := range m.handles {
		if h.Pending() != (m.state[id] == modelPending) {
			m.t.Fatalf("event %d: Pending %v; model state %d", id, h.Pending(), m.state[id])
		}
	}
}

// step fires the next event, or checks that there is none.
func (m *schedModel) step() {
	want := len(m.pending) > 0
	if got := m.s.Step(); got != want {
		m.t.Fatalf("Step() = %v with %d pending in the model", got, len(m.pending))
	}
}

// runUntil runs to t; every event the model has at or before t fires.
func (m *schedModel) runUntil(t Time) {
	m.s.RunUntil(t)
	if len(m.pending) > 0 && m.pending[0].at <= t {
		m.t.Fatalf("RunUntil(%v) left event %d at %v", t, m.pending[0].id, m.pending[0].at)
	}
	m.now = t
}

// delay draws 1<<k plus a jitter for k in [0, 50] — one delay per radix
// bucket a queue a day or so deep uses — or, one time in eight, zero.
func fuzzDelay(b0, b1 byte) Time {
	if b0%8 == 0 {
		return 0
	}
	return 1<<(b0%51) + Time(b1)
}

// FuzzScheduler drives the scheduler with a byte program and checks every
// pop, Now, Pending, Fired and every handle's Pending against schedModel
// after each operation; an event the model has canceled fails fire if it
// ever runs. The program schedules across every radix
// bucket and at shared instants, cancels live, fired and stale handles (some
// from inside callbacks, while their instant is half read, and in batches
// that force compaction), runs to just short of the next event and then
// schedules before it, and empties the queue by cancelling before scheduling
// again.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 9, 3, 0, 0, 5, 3, 3, 3})
	f.Add([]byte{0, 8, 0, 6, 0, 8, 0, 4, 0, 0, 0, 2, 3, 3, 3, 3, 3})
	f.Add([]byte{0, 40, 7, 0, 41, 9, 0, 12, 2, 5, 1, 3, 5, 0, 3, 3, 3})
	f.Add([]byte{0, 30, 0, 0, 31, 1, 4, 0, 3, 7, 0, 0, 5, 0, 9, 3})
	f.Add([]byte{0, 3, 4, 0, 3, 6, 0, 3, 8, 0, 3, 10, 0, 3, 12, 3, 3, 3, 3, 3})
	// The last live event fires with an orphan still queued after it; then
	// an event lands before the orphan's time.
	f.Add([]byte{0, 1, 0, 0, 0, 20, 0, 0, 4, 1, 3, 3, 0, 10, 0, 0, 3})
	// A pop reaches an orphan whose slot nobody has taken since.
	f.Add([]byte{0, 1, 0, 0, 0, 20, 0, 0, 0, 21, 0, 0, 4, 1, 3, 3, 3})
	// Chains longer than a block: 150 events at one instant (bucket 0), at
	// one later instant (a bucket that is redistributed whole), and 400 over
	// two buckets, compacted by cancel batches to a few blocks each.
	for _, b0 := range []byte{0, 9} {
		var prog []byte
		for range 150 {
			prog = append(prog, 0, b0, 0, 0)
		}
		for range 151 {
			prog = append(prog, 3)
		}
		f.Add(prog)
	}
	var storm []byte
	for i := range 400 {
		storm = append(storm, 0, byte(20+i%2), byte(i), byte(i*2))
	}
	for range 5 {
		storm = append(storm, 6, 47)
	}
	storm = append(storm, 5, 9, 0)
	for range 201 {
		storm = append(storm, 3)
	}
	f.Add(storm)
	// Times that span 2^40, and same-instant ties on digit boundaries (16,
	// 2^20, 2^40; a first byte of 91 draws 2^40 and 51 draws 1): each
	// instant gets an event scheduled from time zero and
	// ties scheduled from one tick before it, after a run to just short of
	// it, and one tie schedules another at its own instant as it fires.
	f.Add([]byte{
		0, 91, 0, 0, 0, 91, 0, 6, 0, 20, 0, 0, 0, 4, 0, 0,
		5, 0, 0, 0, 51, 0, 0, 0, 51, 0, 6, 3, 3, 3, 3, 3,
		5, 0, 0, 0, 51, 0, 2, 0, 51, 0, 0, 3, 3, 3, 3,
		5, 0, 0, 0, 51, 0, 0, 0, 51, 0, 12, 0, 51, 0, 6, 3, 3, 3, 3, 3, 3, 3, 3,
	})
	// One event per power of two up to 2^40, each with a tie, drained in
	// one pass: every level of the radix is dealt. (A first byte that is a
	// multiple of 8 draws no delay; k+51 draws the same power.)
	var ladder []byte
	for k := range byte(41) {
		if k%8 == 0 {
			k += 51
		}
		ladder = append(ladder, 0, k, 255, 0, 0, k, 255, 6)
	}
	for range 130 {
		ladder = append(ladder, 3)
	}
	f.Add(ladder)
	// Long programs: many events over every bucket, cancel storms.
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := make([]byte, 600)
		for i := range prog {
			prog[i] = byte(r.Intn(256))
		}
		f.Add(prog)
	}
	f.Fuzz(runFuzzProgram)
}

// runFuzzProgram runs one FuzzScheduler program. check walks every handle
// after every operation, so programs are cut to 2 KiB to keep that cheap.
func runFuzzProgram(t *testing.T, data []byte) {
	data = data[:min(len(data), 2048)]
	m := newSchedModel(t)
	arg := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 {
		switch op := arg(); op % 8 {
		case 0, 1, 2:
			m.schedule(fuzzDelay(arg(), arg()), arg())
		case 3:
			m.step()
		case 4: // cancel any handle: live, fired, canceled or stale
			if n := len(m.handles); n > 0 {
				m.cancel(int(arg()) % n)
			}
		case 5: // run to just short of the next event, then schedule before it
			if len(m.pending) == 0 || m.pending[0].at <= m.now {
				break
			}
			head := m.pending[0].at
			m.runUntil(head - 1 - Time(arg())%(head-m.now))
			m.schedule((head-m.now)/2, arg())
		case 6: // cancel a batch of pending events: orphans pile up past compaction
			for n := int(arg()) % 48; n > 0 && len(m.pending) > 0; n-- {
				m.cancel(m.pending[(n*31)%len(m.pending)].id)
			}
		case 7:
			if op&8 == 0 {
				m.runUntil(m.now + fuzzDelay(arg(), arg()))
				break
			}
			// Cancel everything, step the empty queue, schedule again.
			for len(m.pending) > 0 {
				m.cancel(m.pending[len(m.pending)-1].id)
			}
			m.step()
			m.schedule(fuzzDelay(arg(), arg()), arg())
		}
		m.check()
	}
	for len(m.pending) > 0 {
		m.step()
		m.check()
	}
	m.step()
}
