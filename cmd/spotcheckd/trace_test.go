package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkit"
)

// checkTrace writes d through writeTrace and compares the body with the
// Encoder's. It returns the size of every Write the body took.
func checkTrace(t *testing.T, d obs.TraceDump) []int {
	t.Helper()
	w := &writeSizes{ResponseRecorder: httptest.NewRecorder()}
	writeTrace(w, d)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content-type %q", w.Code, w.Header().Get("Content-Type"))
	}
	if want := encoderBody(t, d); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("%d events: body\n%q\nwant\n%q", len(d.Events), w.Body, want)
	}
	return w.writes
}

// FuzzTraceJSON checks the trace writer against an encoding/json Encoder
// with SetIndent("", "  "), byte for byte: dumps with a nil, an empty and a
// one-event list, and one with enough events to cross the indentChunk
// flush. Scope, Subject, Kind and Detail take arbitrary bytes (an empty
// Detail is left out, omitempty), Seq, At and the counters any value.
func FuzzTraceJSON(f *testing.F) {
	f.Add(uint64(3), uint64(0), uint64(2), int64(7200*simkit.Second), "vm", "nvm-00001", "placed", "on i-000001 (m3.medium/us-east-1a/spot)", uint8(2))
	f.Add(uint64(0), uint64(0), uint64(0), int64(0), "", "", "", "", uint8(0))
	f.Add(^uint64(0), ^uint64(0)-1, ^uint64(0), int64(-1), "<script>&amp;</script>", "\"quoted\" \\back\\",
		"\x00\x01\x08\x0c\n\r\t\x1f\x7f", "\xff\xfe\xc3    é \U0001F600 \xe2\x80 \xed\xa0\x80", uint8(3))
	f.Add(uint64(1), uint64(1), uint64(1<<63), int64(1<<62), "host", "i-000042", "warned", "", uint8(1))
	f.Fuzz(func(t *testing.T, total, dropped, seq uint64, at int64, scope, subject, kind, detail string, size uint8) {
		e := obs.TraceEvent{Seq: seq, At: simkit.Time(at), Scope: scope, Subject: subject, Kind: kind, Detail: detail}
		d := obs.TraceDump{Total: total, Dropped: dropped}
		switch size % 4 {
		case 0:
			checkTrace(t, d)
		case 1:
			d.Events = []obs.TraceEvent{}
			checkTrace(t, d)
		case 2:
			d.Events = []obs.TraceEvent{e}
			checkTrace(t, d)
		default:
			// Enough events that the list passes indentChunk at least once;
			// every other one drops its Detail.
			one, bare := encoderBody(t, e), e
			bare.Detail = ""
			d.Events = make([]obs.TraceEvent, indentChunk/len(encoderBody(t, bare))+2)
			for i := range d.Events {
				d.Events[i] = e
				d.Events[i].Seq += uint64(i)
				if i%2 == 1 {
					d.Events[i].Detail = ""
				}
			}
			writes := checkTrace(t, d)
			if len(writes) < 2 {
				t.Fatalf("%d events went out in %d write", len(d.Events), len(writes))
			}
			for _, n := range writes {
				if n > indentChunk+2*len(one) {
					t.Fatalf("a write of %d bytes: the list was buffered past indentChunk", n)
				}
			}
		}
	})
}
