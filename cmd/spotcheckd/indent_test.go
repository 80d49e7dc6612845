package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simkit"
)

// encoderBody is what writeJSON wrote before the indenter: an Encoder
// with SetIndent("", "  ").
func encoderBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteJSONMatchesEncoder(t *testing.T) {
	d := &daemon{}
	// Several indentChunks of compact JSON, so the body goes out in pieces:
	// a trace dump is the largest body writeJSON still sends.
	large := obs.TraceDump{Total: 4000, Events: make([]obs.TraceEvent, 4000)}
	for i := range large.Events {
		large.Events[i] = obs.TraceEvent{Seq: uint64(i), At: simkit.Time(i) * simkit.Second, Scope: "vm",
			Subject: fmt.Sprintf("nvm-%05d", i), Kind: "placed", Detail: "on i-1 \"c<\\>\" \u2028"}
	}
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"empty map", map[string]string{}},
		{"empty slice", []core.VMInfo{}},
		{"nil slice", []core.VMInfo(nil)},
		{"null", nil},
		{"number", 42},
		{"nested empties", []any{[]any{}, map[string]any{}, []any{[]any{}, map[string]any{"a": []any{}}}}},
		{"html and separators", map[string]string{"<a>&b": "\"x\"\\ \u2028\u2029 <script> \x00\x1f", "b": "\xff\xfe"}},
		{"report", core.Report{StormSizes: []int{1, 2}, BillingErrSample: "i-1: <gone>"}},
		{"vms", []core.VMInfo{{ID: "nvm-00001", Phase: "running", Availability: 0.999}, {ID: "nvm-00002"}}},
		{"large", large},
		{"trace", obs.TraceDump{Events: []obs.TraceEvent{{Scope: "vm", Subject: "nvm-00001", Kind: "placed", Detail: "on i-1 (m3.medium/zone-a/spot)"}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			d.writeJSON(rec, http.StatusOK, tc.v)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			if want := encoderBody(t, tc.v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("body\n%s\nwant\n%s", rec.Body, want)
			}
		})
	}
}

// A value encoding/json rejects is answered 500 with an error body, not
// with the caller's status and an empty body.
func TestWriteJSONRejectsUnencodable(t *testing.T) {
	d := &daemon{}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"NaN", map[string]float64{"cost": math.NaN()}, "unsupported value: NaN"},
		{"+Inf", []float64{math.Inf(1)}, "unsupported value: +Inf"},
		{"chan", map[string]any{"c": make(chan int)}, "unsupported type: chan int"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			d.writeJSON(rec, http.StatusCreated, tc.v)
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("status %d, want 500", rec.Code)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("content-type %q", ct)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("body %q: %v", rec.Body, err)
			}
			if !strings.Contains(body["error"], tc.want) {
				t.Errorf("error %q, want it to name %q", body["error"], tc.want)
			}
		})
	}
}

// checkIndent compares the indenter with json.Indent on compact, with and
// without the encoder's trailing newline, fed whole and a byte at a time.
func checkIndent(t *testing.T, compact []byte) {
	t.Helper()
	for _, src := range [][]byte{compact, append(compact[:len(compact):len(compact)], '\n')} {
		var want bytes.Buffer
		if err := json.Indent(&want, src, "", "  "); err != nil {
			t.Fatalf("json.Indent(%q): %v", src, err)
		}
		if got := new(indenter).append(nil, src); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indent(%q)\n= %q\nwant %q", src, got, want.Bytes())
		}
		var ix indenter
		var got []byte
		for i := range src {
			got = ix.append(got, src[i:i+1])
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indent(%q) a byte at a time\n= %q\nwant %q", src, got, want.Bytes())
		}
	}
}

// FuzzIndentJSON checks the indenter against json.Indent(…, "", "  ") on
// encoding/json output built from the input: the input as a string (any
// bytes, invalid UTF-8 included), and, when the input is JSON, its decoded
// value re-marshalled and its compact form (which keeps key order and
// leaves <, >, & and U+2028 unescaped).
func FuzzIndentJSON(f *testing.F) {
	for _, body := range endpointBodies(f) {
		f.Add(body)
	}
	for _, s := range []string{
		`"quote \" and backslash \\ inside"`,
		`{"k\"ey":"\\","<>&":"<script>&amp;</script>","sep":"` + "\u2028\u2029" + `"}`,
		"\"invalid \xff\xfe UTF-8 \xc3\"",
		"\\\"\\",
		`[[],{},[[]],[{}],{"a":[]},{"a":{}},[[],[{"b":[[]]}]]]`,
		`null`,
		`[null,true,false,-1.5e-7,0,"",{}]`,
		`{"a":{"b":{"c":{"d":{"e":{"f":{"g":{"h":{"i":{"j":{"k":{"l":{"m":{"n":{"o":{"p":{"q":{"r":{"s":{"t":{"u":{"v":{"w":{"x":{"y":{"z":{"A":{"B":{"C":{"D":{"E":{"F":{"G":1}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		str, err := json.Marshal(string(data))
		if err != nil {
			t.Fatal(err)
		}
		checkIndent(t, str)
		if !json.Valid(data) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		checkIndent(t, compact.Bytes())
		var v any
		if json.Unmarshal(data, &v) != nil {
			return // valid JSON a float64 cannot hold, e.g. 1e999
		}
		re, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		checkIndent(t, re)
	})
}
