package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// stub returns a server that records the last request and replies with a
// canned payload per path.
func stub(t *testing.T) (*httptest.Server, *http.Request) {
	t.Helper()
	var last http.Request
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		last = *r
		switch {
		case r.URL.Path == "/servers" && r.Method == http.MethodPost:
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"nvm-00001"}`))
		case r.URL.Path == "/servers":
			w.Write([]byte(`[{"ID":"nvm-00001","Phase":"running"}]`))
		case strings.HasSuffix(r.URL.Path, "/events"):
			w.Write([]byte(`[{"kind":"requested"},{"kind":"placed"}]`))
		case r.URL.Path == "/servers/nvm-00001" && r.Method == http.MethodDelete:
			w.Write([]byte(`{"released":"nvm-00001"}`))
		case r.URL.Path == "/servers/nvm-00001":
			w.Write([]byte(`{"ID":"nvm-00001","Market":"spot"}`))
		case r.URL.Path == "/report":
			w.Write([]byte(`{"VMHours":42}`))
		case r.URL.Path == "/trace":
			w.Write([]byte(`{"total":1,"dropped":0,"events":[{"seq":0,"kind":"requested"}]}`))
		case r.URL.Path == "/metrics":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write([]byte("# TYPE spotcheck_vms_created_total counter\nspotcheck_vms_created_total 1\n"))
		case r.URL.Path == "/advance":
			w.Write([]byte(`{"virtualTime":"1h0m0s"}`))
		case r.URL.Path == "/missing":
			http.Error(w, `{"error":"nope"}`, http.StatusNotFound)
		default:
			w.Write([]byte(`[]`))
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &last
}

func runCtl(t *testing.T, srv *httptest.Server, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(&b, srv.Client(), srv.URL, args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return b.String()
}

func TestCreateBuildsQuery(t *testing.T) {
	srv, last := stub(t)
	out := runCtl(t, srv, "create", "-customer", "alice", "-type", "m3.large", "-stateless")
	if !strings.Contains(out, "nvm-00001") {
		t.Errorf("output = %q", out)
	}
	q := last.URL.Query()
	if q.Get("customer") != "alice" || q.Get("type") != "m3.large" || q.Get("stateless") != "true" {
		t.Errorf("query = %v", q)
	}
	if last.Method != http.MethodPost {
		t.Errorf("method = %s", last.Method)
	}
}

func TestSubcommands(t *testing.T) {
	srv, last := stub(t)
	cases := []struct {
		args       []string
		wantPath   string
		wantMethod string
		wantOut    string
	}{
		{[]string{"servers"}, "/servers", http.MethodGet, "running"},
		{[]string{"describe", "nvm-00001"}, "/servers/nvm-00001", http.MethodGet, "spot"},
		{[]string{"events", "nvm-00001"}, "/servers/nvm-00001/events", http.MethodGet, "placed"},
		{[]string{"release", "nvm-00001"}, "/servers/nvm-00001", http.MethodDelete, "released"},
		{[]string{"report"}, "/report", http.MethodGet, "42"},
		{[]string{"advance", "1h"}, "/advance", http.MethodPost, "virtualTime"},
		{[]string{"pools"}, "/pools", http.MethodGet, "[]"},
		{[]string{"estimate", "nvm-00001"}, "/servers/nvm-00001/estimate", http.MethodGet, "[]"},
		{[]string{"status"}, "/status", http.MethodGet, "[]"},
		{[]string{"trace"}, "/trace", http.MethodGet, "\"dropped\": 0"},
		{[]string{"metrics"}, "/metrics", http.MethodGet, "spotcheck_vms_created_total 1\n"},
	}
	usage := run(io.Discard, srv.Client(), srv.URL, nil).Error()
	for _, c := range cases {
		if !strings.Contains(usage, c.args[0]) {
			t.Errorf("usage message %q does not list %s", usage, c.args[0])
		}
		out := runCtl(t, srv, c.args...)
		if last.URL.Path != c.wantPath || last.Method != c.wantMethod {
			t.Errorf("%v -> %s %s, want %s %s", c.args, last.Method, last.URL.Path, c.wantMethod, c.wantPath)
		}
		if !strings.Contains(out, c.wantOut) {
			t.Errorf("%v output %q missing %q", c.args, out, c.wantOut)
		}
	}
}

func TestErrorSurfacing(t *testing.T) {
	srv, _ := stub(t)
	var b strings.Builder
	err := run(&b, srv.Client(), srv.URL, []string{"describe", "..%2Fmissing"})
	_ = err // path escaping keeps this a /servers request; use direct path below
	if err := do(&b, srv.Client(), http.MethodGet, srv.URL+"/missing"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("error = %v, want server message surfaced", err)
	}
}

func TestUsageErrors(t *testing.T) {
	srv, _ := stub(t)
	var b strings.Builder
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"describe"},
		{"advance"},
		{"release", "a", "b"},
	} {
		if err := run(&b, srv.Client(), srv.URL, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
