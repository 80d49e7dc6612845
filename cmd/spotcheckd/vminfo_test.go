package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/nestedvm"
)

// writeSizes is an http.ResponseWriter that records the body it is sent
// and the size of every Write.
type writeSizes struct {
	*httptest.ResponseRecorder
	writes []int
}

func (w *writeSizes) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.ResponseRecorder.Write(p)
}

// checkVMInfos writes vms through writeVMInfos and compares the body with
// the Encoder's. It returns the size of every Write the body took.
func checkVMInfos(t *testing.T, vms []core.VMInfo) []int {
	t.Helper()
	w := &writeSizes{ResponseRecorder: httptest.NewRecorder()}
	writeVMInfos(w, vms)
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content-type %q", w.Code, w.Header().Get("Content-Type"))
	}
	if want := encoderBody(t, vms); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("%d VMs: body\n%q\nwant\n%q", len(vms), w.Body, want)
	}
	return w.writes
}

// FuzzVMInfoJSON checks the VMInfo writer against an encoding/json Encoder
// with SetIndent("", "  "), byte for byte: one VM at depth 0 (GET
// /servers/{id}), and lists of none, one and enough copies to cross the
// indentChunk flush (GET /servers). Every string field takes arbitrary
// bytes, the ints any value, and Availability any finite float64 bits.
func FuzzVMInfoJSON(f *testing.F) {
	f.Add("nvm-00001", "alice", "m3.medium", "running", "i-00000001", "m3.large", "m3.large/us-east-1a/spot",
		"10.0.0.1", "backup-1", "normal", 2, 1, math.Float64bits(0.9993055555555556), uint8(3))
	f.Add("", "<script>&amp;</script>", "\"quoted\" \\back\\", "\x00\x01\x08\x0c\n\r\t\x1f\x7f", "\xff\xfe\xc3",
		"\u2028\u2029", "\u00e9 \u4e16\u754c \U0001F600", "\xe2\x80", "\xed\xa0\x80", "", -1, math.MinInt, math.Float64bits(5e-324), uint8(1))
	for _, a := range []float64{0, math.Copysign(0, -1), 1, 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 1.5e300, -2.5e-8, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		f.Add("nvm-00002", "b", "m3.medium", "migrating", "", "", "", "", "", "down", math.MaxInt, 0, math.Float64bits(a), uint8(2))
	}
	f.Fuzz(func(t *testing.T, id, customer, typ, phase, host, hostType, market, ip, backup, condition string,
		migrations, revocations int, availBits uint64, size uint8) {
		avail := math.Float64frombits(availBits)
		if math.IsNaN(avail) || math.IsInf(avail, 0) {
			return // Ledger.Availability is finite by construction
		}
		v := core.VMInfo{ID: nestedvm.ID(id), Customer: customer, Type: typ, Phase: phase, Host: cloud.InstanceID(host),
			HostType: hostType, Market: market, IP: ip, BackupServer: backup, Migrations: migrations,
			Revocations: revocations, Availability: avail, Condition: condition}

		w := httptest.NewRecorder()
		writeVMInfo(w, v)
		if want := encoderBody(t, v); !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("one VM: body\n%q\nwant\n%q", w.Body, want)
		}

		switch size % 4 {
		case 0:
			checkVMInfos(t, nil)
		case 1:
			checkVMInfos(t, []core.VMInfo{})
		case 2:
			checkVMInfos(t, []core.VMInfo{v})
		default:
			// Enough VMs that the list passes indentChunk at least once.
			vms := make([]core.VMInfo, indentChunk/w.Body.Len()+2)
			for i := range vms {
				vms[i] = v
				vms[i].Migrations += i
			}
			writes := checkVMInfos(t, vms)
			if len(writes) < 2 {
				t.Fatalf("%d VMs went out in %d write", len(vms), len(writes))
			}
			for _, n := range writes {
				if n > indentChunk+2*w.Body.Len() {
					t.Fatalf("a write of %d bytes: the list was buffered past indentChunk", n)
				}
			}
		}
	})
}

// TestDaemonHostileCustomerNames creates VMs for customers whose names
// arrive percent-encoded in the query string — HTML, quotes, backslashes,
// NUL, an invalid UTF-8 byte, U+2028 — enough of them that GET /servers
// crosses indentChunk, and checks both VMInfo routes against the Encoder
// over a real connection.
func TestDaemonHostileCustomerNames(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	names := []string{"%3Cscript%3E", "%22", "%5C", "%00", "%FF", "%E2%80%A8", "%E2%80%A9",
		"a%26b%3E", "%08%0C%0A%0D%09%1F%7F", "%C3", "%F0%9F%98%80"}
	ids := make([]string, 320)
	for i := range ids {
		resp, err := client.Post(srv.URL+"/servers?customer="+names[i%len(names)]+fmt.Sprint(i%3), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var created map[string]string
		decode(t, resp, http.StatusCreated, &created)
		ids[i] = created["id"]
	}
	resp, err := client.Post(srv.URL+"/advance?d=30m", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, nil)

	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	vms, _ := d.locked(func() (any, error) { return d.ctrl.ListVMs(), nil })
	body := get("/servers")
	if want := encoderBody(t, vms); !bytes.Equal(body, want) {
		t.Fatalf("GET /servers: %d bytes, want the Encoder's %d", len(body), len(want))
	}
	if len(body) <= indentChunk {
		t.Fatalf("GET /servers answered %d bytes, not enough to cross indentChunk", len(body))
	}
	if !strings.Contains(string(body), `"\u003cscript\u003e0"`) || !strings.Contains(string(body), `"\u20282"`) {
		t.Errorf("GET /servers lacks the escaped customer names")
	}
	for _, id := range ids {
		info, err := d.locked(func() (any, error) { return d.ctrl.DescribeVM(nestedvm.ID(id)) })
		if err != nil {
			t.Fatal(err)
		}
		if body, want := get("/servers/"+id), encoderBody(t, info); !bytes.Equal(body, want) {
			t.Fatalf("GET /servers/%s\n%s\nwant\n%s", id, body, want)
		}
	}
}

// discard is an http.ResponseWriter that keeps nothing but a byte count,
// so a benchmark's B/op is the handler's own.
type discard struct {
	h http.Header
	n int
}

func (w *discard) Header() http.Header         { return w.h }
func (w *discard) WriteHeader(int)             {}
func (w *discard) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkRoutes times every JSON read route in-process through the
// route table at the daemon benchmark's preload: 2 000 VMs on 6-month
// traces at seed 42, then 24 h advanced. ListVMs is GET /servers' share
// under the lock. docs/ARCHITECTURE.md's per-route table comes from
//
//	go test -run '^$' -bench BenchmarkRoutes -benchmem ./cmd/spotcheckd
func BenchmarkRoutes(b *testing.B) {
	d, err := newDaemon(6, 42)
	if err != nil {
		b.Fatal(err)
	}
	h := d.mux()
	serve := func(method, path string) *discard {
		w := &discard{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(method, path, nil))
		return w
	}
	for i := 0; i < 2000; i++ {
		serve(http.MethodPost, fmt.Sprintf("/servers?customer=cust-%d", i%16))
	}
	serve(http.MethodPost, "/advance?d=24h")
	for _, r := range []struct{ name, path string }{
		{"list", "/servers"},
		{"describe", "/servers/nvm-01000"},
		{"events", "/servers/nvm-01000/events"},
		{"estimate", "/servers/nvm-01000/estimate"},
		{"pools", "/pools"},
		{"prices", "/prices"},
		{"report", "/report"},
		{"customers", "/customers"},
		{"trace", "/trace"},
		{"clock", "/clock"},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			var w *discard
			for i := 0; i < b.N; i++ {
				w = serve(http.MethodGet, r.path)
			}
			b.ReportMetric(float64(w.n), "body-B")
		})
	}
	b.Run("ListVMs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.locked(func() (any, error) { return d.ctrl.ListVMs(), nil })
		}
	})
}
