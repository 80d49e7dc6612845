package obs

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simkit"
)

func TestTraceBasics(t *testing.T) {
	tr := NewTrace(4)
	if len(tr.buf) != 4 {
		t.Fatalf("capacity = %d, want 4", len(tr.buf))
	}
	for i := 0; i < 3; i++ {
		seq := tr.Add(TraceEvent{At: simkit.Time(i), Scope: "vm", Subject: "v1", Kind: "tick"})
		if seq != uint64(i) {
			t.Errorf("Add #%d returned seq %d", i, seq)
		}
	}
	d := tr.Dump()
	if len(d.Events) != 3 || d.Total != 3 || d.Dropped != 0 {
		t.Errorf("Events/Total/Dropped = %d/%d/%d, want 3/3/0", len(d.Events), d.Total, d.Dropped)
	}
	for i, ev := range d.Events {
		if ev.Seq != uint64(i) || ev.At != simkit.Time(i) {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
}

// TestTraceWraparound drives the ring past capacity and checks that the
// oldest events fall out while sequence numbers stay continuous.
func TestTraceWraparound(t *testing.T) {
	tests := []struct {
		name      string
		capacity  int
		adds      int
		wantLen   int
		wantDrop  uint64
		wantFirst uint64 // Seq of the oldest retained event
	}{
		{"exactly full", 4, 4, 4, 0, 0},
		{"one past", 4, 5, 4, 1, 1},
		{"many wraps", 4, 11, 4, 7, 7},
		{"capacity one", 1, 3, 1, 2, 2},
		{"default capacity", 0, 2, 2, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := NewTrace(tt.capacity)
			for i := 0; i < tt.adds; i++ {
				tr.Add(TraceEvent{At: simkit.Time(i), Kind: "k"})
			}
			d := tr.Dump()
			if len(d.Events) != tt.wantLen {
				t.Errorf("retained %d events, want %d", len(d.Events), tt.wantLen)
			}
			if d.Total != uint64(tt.adds) {
				t.Errorf("Total = %d, want %d", d.Total, tt.adds)
			}
			if d.Dropped != tt.wantDrop {
				t.Errorf("Dropped = %d, want %d", d.Dropped, tt.wantDrop)
			}
			evs := d.Events
			if len(evs) != tt.wantLen {
				t.Fatalf("Events len = %d, want %d", len(evs), tt.wantLen)
			}
			for i, ev := range evs {
				want := tt.wantFirst + uint64(i)
				if ev.Seq != want {
					t.Errorf("event %d Seq = %d, want %d (oldest-first, gap-free)", i, ev.Seq, want)
				}
			}
		})
	}
}

// TestTraceConcurrent appends from several goroutines while each also
// dumps: every dump must be one consistent cut of the ring (the three
// fields /trace serves), which three separate locked reads could not give.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	tr.Keep("v")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				tr.Add(TraceEvent{Subject: "v", Kind: "k"})
				if i%50 != 0 {
					continue
				}
				d := tr.Dump()
				if d.Total-d.Dropped != uint64(len(d.Events)) {
					t.Errorf("dump: total %d - dropped %d != %d events", d.Total, d.Dropped, len(d.Events))
				}
				if last := d.Events[len(d.Events)-1].Seq; last != d.Total-1 {
					t.Errorf("dump: newest seq %d, total %d", last, d.Total)
				}
				_ = tr.Timeline("v")
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if d := tr.Dump(); d.Total != 2000 || len(d.Events) != 64 || len(tr.Timeline("v")) != TimelineCap {
		t.Errorf("Total/Events/timeline = %d/%d/%d, want 2000/64/%d", d.Total, len(d.Events), len(tr.Timeline("v")), TimelineCap)
	}
}

// TestTraceTimelineBounded: a kept subject's timeline retains its newest
// TimelineCap events however many arrive and whatever the ring overwrites;
// Forget empties the timeline and leaves the ring alone.
func TestTraceTimelineBounded(t *testing.T) {
	tr := NewTrace(8)
	tr.Add(TraceEvent{Subject: "v", Detail: "before Keep"})
	tr.Keep("v")
	for i := 0; i < 1000; i++ {
		tr.Add(TraceEvent{At: simkit.Time(i), Subject: "v", Kind: "migrated", Detail: "n" + strconv.Itoa(i)})
		tr.Add(TraceEvent{Subject: "other", Kind: "noise"})
	}
	tl := tr.Timeline("v")
	if len(tl) != TimelineCap {
		t.Fatalf("timeline holds %d events, want %d", len(tl), TimelineCap)
	}
	if tl[0].Detail != "n744" || tl[len(tl)-1].Detail != "n999" {
		t.Errorf("timeline spans %q..%q, want the newest: n744..n999", tl[0].Detail, tl[len(tl)-1].Detail)
	}
	if got := tr.Timeline("other"); len(got) != 0 {
		t.Errorf("subject never kept has a timeline: %v", got)
	}

	before := tr.Dump()
	tr.Forget("v")
	if got := tr.Timeline("v"); len(got) != 0 {
		t.Errorf("Forget left %d events", len(got))
	}
	if after := tr.Dump(); !reflect.DeepEqual(before, after) {
		t.Errorf("Forget changed the ring: %+v -> %+v", before, after)
	}
	tr.Add(TraceEvent{Subject: "v", Kind: "late"})
	if got := tr.Timeline("v"); len(got) != 0 {
		t.Errorf("a forgotten subject's late event restarted its timeline: %v", got)
	}
}

// Fuzz op bytes: the low two bits pick the subject, the next two the op.
const (
	opAdd byte = iota << 2
	opKeep
	opForget
	opCheck
)

// FuzzTrace drives a Trace and a slice-based model — every event ever
// added, and every event per subject since its Keep — through the same op
// string and compares ring dump and timelines at each check op and at the
// end. Its seed corpus runs under plain `go test`.
func FuzzTrace(f *testing.F) {
	f.Add(uint8(4), "")
	f.Add(uint8(4), string([]byte{opAdd, opKeep, opAdd, opAdd | 1, opCheck, opForget, opAdd, opKeep | 1}))
	f.Add(uint8(1), string([]byte{opKeep | 2, opAdd | 2, opAdd | 2, opCheck, opAdd | 3, opForget | 3}))
	f.Add(uint8(0), string([]byte{opKeep, opKeep})+strings.Repeat(string([]byte{opAdd, opAdd | 1}), TimelineCap+40))
	f.Fuzz(func(t *testing.T, capacity uint8, ops string) {
		tr := NewTrace(int(capacity))
		var all []TraceEvent
		kept := map[string][]TraceEvent{}
		newest := func(evs []TraceEvent, n int) []TraceEvent { return evs[max(0, len(evs)-n):] }
		check := func() {
			t.Helper()
			want := newest(all, len(tr.buf))
			d := tr.Dump()
			if d.Total != uint64(len(all)) || d.Dropped != uint64(len(all)-len(want)) || !slices.Equal(d.Events, want) {
				t.Fatalf("dump = %d total, %d dropped, %v; model has %d total, retains %v", d.Total, d.Dropped, d.Events, len(all), want)
			}
			for _, subject := range []string{"a", "b", "c", "d"} {
				if got, want := tr.Timeline(subject), newest(kept[subject], TimelineCap); !slices.Equal(got, want) {
					t.Fatalf("Timeline(%s) = %v, want %v", subject, got, want)
				}
			}
		}
		for i := 0; i < len(ops); i++ {
			subject := string(rune('a' + ops[i]&3))
			switch ops[i] & (3 << 2) {
			case opAdd:
				ev := TraceEvent{At: simkit.Time(i), Scope: "vm", Subject: subject, Kind: "k", Detail: strconv.Itoa(i)}
				if seq := tr.Add(ev); seq != uint64(len(all)) {
					t.Fatalf("Add #%d returned seq %d", len(all), seq)
				}
				ev.Seq = uint64(len(all))
				all = append(all, ev)
				if _, ok := kept[subject]; ok {
					kept[subject] = append(kept[subject], ev)
				}
			case opKeep:
				tr.Keep(subject)
				if _, ok := kept[subject]; !ok {
					kept[subject] = nil
				}
			case opForget:
				tr.Forget(subject)
				delete(kept, subject)
			case opCheck:
				check()
			}
		}
		check()
	})
}
