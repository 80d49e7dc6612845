package main

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// endpointDigests are the sha256 of every body endpointBodies collects,
// recorded on linux/amd64 with the encoding/json Encoder (SetIndent "",
// "  ") that the one-pass indenter replaced. A change that moves one of
// them changes what clients read.
var endpointDigests = map[string]string{
	"writes":                         "ac37fade58357f4dfb05b5ac1d5174c3fa85cc349057433e0e362b288b63d9c8",
	"/servers":                       "daf978cbdc7062953b8b805437658add3a633ace8ebe97eac74086a1e23ac550",
	"/servers/nvm-00001":             "4e5ad0f239970f456d2f18ea9cad0057918ed8c4ff8a35c5c91122b0b56a098d",
	"/servers/nvm-00002":             "091431d52134d75bb18ed316621a378c6bf65a98afe090dbb9f70a888b23a73b",
	"/servers/nvm-99999":             "8eff256683c12bb2acad5c1e27bd7d996ebef61e3fdd271d486d6ea5832ce696",
	"/servers/nvm-00001/events":      "e0a52f2087126798766cfc5034b30ddedda4e9f4159cc27413b069570778cb37",
	"/servers/nvm-00001/estimate":    "f861fcc854845c34cd6c208b5e8799780d4b66fc74839ab438faded22cd3c381",
	"/pools":                         "a754ddfca8d49f17dd5a79336c2bbb625a15d726e3043e994f3414cbb8ff5c33",
	"/prices":                        "2440f8e465c6548a8189ad8cf590de3d4cdb967c83579be4333d035984acdd88",
	"/report":                        "7c7823616305fc7a3d8298abbe4ba198c150e9d909814a8c6f50faeea318671b",
	"/customers":                     "61b918eaae52b5e98fbc97e03cc37535ba9149381ff00f0fe63aafb6acb8e39f",
	"/status":                        "f1f9a16ede4c7baeece1fd2200c8d0c3fe5ff6c85d937160c90357e7f0c57879",
	"/metrics":                       "e2841c9f9720102407e2d16fe61743793b6f3b7f79e9440f68683c8da55cd73d",
	"/trace":                         "d52a83143e4cccd74a641aeb227d7c467b2a1606ab13f8e88c4120a9ce7bfd40",
	"/clock":                         "9f1d20d1abe858054169f7d88d340ebc11cbe3d71ef8901f7af6a620b243d579",
	"/customers after 1h":            "3162572a5396c6dccb42a9b8cc827a247fedfc7a6bdc9d5619b4adafdc100fc9",
	"/metrics after /customers":      "e8d8e91a7410943b4b639464cb6ae80ec5a8d8b837d586652302ae12c66717ca",
	"create for a new customer":      "fd4ca8ec505dfa56600d636ba52742fa83988cba33139d169bf96626a5a3f08e",
	"/customers with a new customer": "3162572a5396c6dccb42a9b8cc827a247fedfc7a6bdc9d5619b4adafdc100fc9",
}

// endpointBodies replays a fixed request log at seed 42 (create ×5,
// advance 168h, delete, create, advance 168h) and returns the body of
// every route read after it, keyed by path; "writes" is the write
// responses concatenated. It ends by advancing an hour and reading
// /customers and /metrics with no /report in between, so the customer
// bill is read from rentals no report has memoized, then creates a VM for a
// customer it has not seen and reads /customers at the same instant, while
// that VM is still provisioning.
func endpointBodies(tb testing.TB) map[string][]byte {
	tb.Helper()
	d, err := newDaemon(2, 42)
	if err != nil {
		tb.Fatal(err)
	}
	h := d.mux()
	out := map[string][]byte{}
	do := func(key, method, path string, want int) {
		tb.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if rec.Code != want {
			tb.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
		out[key] = append(out[key], rec.Body.Bytes()...)
	}
	for i := 0; i < 5; i++ {
		do("writes", http.MethodPost, "/servers?customer=c"+string(rune('a'+i%2)), http.StatusCreated)
	}
	do("writes", http.MethodPost, "/advance?d=168h", http.StatusOK)
	do("writes", http.MethodDelete, "/servers/nvm-00002", http.StatusOK)
	do("writes", http.MethodPost, "/servers?customer=cb&stateless=true", http.StatusCreated)
	do("writes", http.MethodPost, "/advance?d=168h", http.StatusOK)
	do("writes", http.MethodDelete, "/servers/nvm-00002", http.StatusNotFound)
	for _, r := range []struct {
		path string
		want int
	}{
		{"/servers", http.StatusOK},
		{"/servers/nvm-00001", http.StatusOK},
		{"/servers/nvm-00002", http.StatusOK},
		{"/servers/nvm-99999", http.StatusNotFound},
		{"/servers/nvm-00001/events", http.StatusOK},
		{"/servers/nvm-00001/estimate", http.StatusOK},
		{"/pools", http.StatusOK},
		{"/prices", http.StatusOK},
		{"/report", http.StatusOK},
		{"/customers", http.StatusOK},
		{"/status", http.StatusOK},
		{"/metrics", http.StatusOK},
		{"/trace", http.StatusOK},
		{"/clock", http.StatusOK},
	} {
		do(r.path, http.MethodGet, r.path, r.want)
	}
	do("writes", http.MethodPost, "/advance?d=1h", http.StatusOK)
	do("/customers after 1h", http.MethodGet, "/customers", http.StatusOK)
	do("/metrics after /customers", http.MethodGet, "/metrics", http.StatusOK)
	do("create for a new customer", http.MethodPost, "/servers?customer=cz", http.StatusCreated)
	// The new customer's only VM is still provisioning, not in service, so
	// this body is the one after 1h.
	do("/customers with a new customer", http.MethodGet, "/customers", http.StatusOK)
	return out
}

// TestDaemonEndpointBytes pins the body of every JSON and text route after
// a fixed request log byte for byte.
func TestDaemonEndpointBytes(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	got := endpointBodies(t)
	for key, body := range got {
		sum := sha256.Sum256(body)
		if hex.EncodeToString(sum[:]) != endpointDigests[key] {
			t.Errorf("%s: body sha256 %x, want %s", key, sum, endpointDigests[key])
		}
	}
	if len(got) != len(endpointDigests) {
		t.Errorf("%d bodies digested, %d pinned", len(got), len(endpointDigests))
	}
}
