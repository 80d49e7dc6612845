package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/simkit"
)

func testServer(t *testing.T) (*daemon, *httptest.Server) {
	t.Helper()
	d, err := newDaemon(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.mux())
	t.Cleanup(srv.Close)
	return d, srv
}

func decode(t *testing.T, resp *http.Response, wantStatus int, v any) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDaemonLifecycle(t *testing.T) {
	_, srv := testServer(t)
	client := srv.Client()

	// Create a server.
	resp, err := client.Post(srv.URL+"/servers?customer=alice&type=m3.medium", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	decode(t, resp, http.StatusCreated, &created)
	id := created["id"]
	if !strings.HasPrefix(id, "nvm-") {
		t.Fatalf("id = %q", id)
	}

	// Advance virtual time so provisioning completes.
	resp, err = client.Post(srv.URL+"/advance?d=30m", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var clock map[string]string
	decode(t, resp, http.StatusOK, &clock)
	if clock["virtualTime"] != "30m0s" {
		t.Errorf("clock = %v", clock)
	}

	// Describe it.
	resp, err = client.Get(srv.URL + "/servers/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		Phase, Market, IP string
	}
	decode(t, resp, http.StatusOK, &info)
	if info.Phase != "running" {
		t.Errorf("phase = %q, want running", info.Phase)
	}
	if info.IP == "" {
		t.Error("no IP assigned")
	}

	// List includes it.
	resp, err = client.Get(srv.URL + "/servers")
	if err != nil {
		t.Fatal(err)
	}
	var list []struct{ ID string }
	decode(t, resp, http.StatusOK, &list)
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("list = %+v", list)
	}

	// Pools and prices respond.
	resp, err = client.Get(srv.URL + "/pools")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, nil)
	resp, err = client.Get(srv.URL + "/prices")
	if err != nil {
		t.Fatal(err)
	}
	var prices []struct {
		Type     string  `json:"type"`
		Spot     float64 `json:"spot"`
		OnDemand float64 `json:"onDemand"`
	}
	decode(t, resp, http.StatusOK, &prices)
	if len(prices) == 0 {
		t.Fatal("no prices")
	}
	for _, p := range prices {
		if p.Spot <= 0 || p.OnDemand <= 0 {
			t.Errorf("bad price row %+v", p)
		}
	}

	// Report accounts the VM.
	resp, err = client.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var report struct{ VMHours float64 }
	decode(t, resp, http.StatusOK, &report)
	if report.VMHours <= 0 {
		t.Errorf("VMHours = %v", report.VMHours)
	}

	// Release it.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/servers/"+id, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusOK, nil)
	// Double release 404s.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/servers/"+id, nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)
}

// A server deleted while the controller is still placing it leaves nothing
// rented: a few wall-seconds after every POST at the default speedup.
func TestDaemonDeleteDuringProvisioning(t *testing.T) {
	_, srv := testServer(t)
	client := srv.Client()
	do := func(method, path string, want int, v any) {
		t.Helper()
		req, _ := http.NewRequest(method, srv.URL+path, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, want, v)
	}
	var created map[string]string
	do(http.MethodPost, "/servers?customer=alice&type=m3.medium", http.StatusCreated, &created)
	id := created["id"]
	do(http.MethodPost, "/advance?d=3m", http.StatusOK, nil)
	var info struct{ Phase string }
	do(http.MethodGet, "/servers/"+id, http.StatusOK, &info)
	if info.Phase != "provisioning" {
		t.Fatalf("phase %q three minutes after the request: the script no longer deletes mid-provisioning", info.Phase)
	}
	do(http.MethodDelete, "/servers/"+id, http.StatusOK, nil)
	do(http.MethodDelete, "/servers/"+id, http.StatusNotFound, nil)
	do(http.MethodPost, "/advance?d=1h", http.StatusOK, nil)

	do(http.MethodGet, "/servers/"+id, http.StatusOK, &info)
	if info.Phase != "released" {
		t.Errorf("phase %q an hour after the delete", info.Phase)
	}
	var pools []struct {
		Key        struct{ Type string }
		Hosts, VMs int
	}
	do(http.MethodGet, "/pools", http.StatusOK, &pools)
	for _, p := range pools {
		if p.Hosts != 0 || p.VMs != 0 {
			t.Errorf("pool %s keeps %d hosts for %d VMs", p.Key.Type, p.Hosts, p.VMs)
		}
	}
	var before, after struct{ TotalCost float64 }
	do(http.MethodGet, "/report", http.StatusOK, &before)
	do(http.MethodPost, "/advance?d=24h", http.StatusOK, nil)
	do(http.MethodGet, "/report", http.StatusOK, &after)
	if after.TotalCost != before.TotalCost {
		t.Errorf("bill still growing a day after the delete: %v -> %v", before.TotalCost, after.TotalCost)
	}
}

func TestDaemonErrors(t *testing.T) {
	_, srv := testServer(t)
	client := srv.Client()

	resp, err := client.Post(srv.URL+"/servers?type=bogus", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusBadRequest, nil)

	resp, err = client.Get(srv.URL + "/servers/nvm-99999")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)

	resp, err = client.Post(srv.URL+"/advance?d=-1h", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusBadRequest, nil)

	resp, err = client.Get(srv.URL + "/advance")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusMethodNotAllowed, nil)

	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/servers", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusMethodNotAllowed, nil)
}

func TestDaemonAdvanceDrivesMigration(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	decode(t, resp, http.StatusCreated, &created)

	// Run two simulated weeks: the 4P-ED placement rides real synthetic
	// markets, so revocations and migrations happen.
	d.advance(14 * 24 * simkit.Hour)

	resp, err = client.Get(srv.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		VMHours      float64
		Availability float64
	}
	decode(t, resp, http.StatusOK, &report)
	if report.VMHours < 300 {
		t.Errorf("VMHours = %v, want ~336", report.VMHours)
	}
	if report.Availability < 0.99 {
		t.Errorf("availability = %v", report.Availability)
	}
}

func TestDaemonCustomers(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	for _, customer := range []string{"alice", "alice", "bob"} {
		resp, err := client.Post(srv.URL+"/servers?customer="+customer, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, http.StatusCreated, nil)
	}
	d.advance(24 * simkit.Hour)
	resp, err := client.Get(srv.URL + "/customers")
	if err != nil {
		t.Fatal(err)
	}
	var customers []struct {
		Customer string
		VMs      int
		VMHours  float64
	}
	decode(t, resp, http.StatusOK, &customers)
	if len(customers) != 2 {
		t.Fatalf("customers = %+v", customers)
	}
	if customers[0].Customer != "alice" || customers[0].VMs != 2 {
		t.Errorf("alice row = %+v", customers[0])
	}
	if customers[1].Customer != "bob" || customers[1].VMs != 1 {
		t.Errorf("bob row = %+v", customers[1])
	}
	if customers[0].VMHours <= customers[1].VMHours {
		t.Error("alice (2 VMs) should have more VM-hours than bob (1)")
	}
}

func TestDaemonServerEvents(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	decode(t, resp, http.StatusCreated, &created)
	d.advance(simkit.Hour)

	resp, err = client.Get(srv.URL + "/servers/" + created["id"] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Kind   string `json:"kind"`
		Detail string `json:"detail"`
	}
	decode(t, resp, http.StatusOK, &events)
	if len(events) < 2 || events[0].Kind != "requested" || events[1].Kind != "placed" {
		t.Errorf("events = %+v", events)
	}

	resp, err = client.Get(srv.URL + "/servers/nvm-none/events")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)
}

// TestDaemonMetrics scrapes /metrics after simulated activity and checks the
// body is well-formed Prometheus text format 0.0.4 with live series.
func TestDaemonMetrics(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusCreated, nil)
	d.advance(7 * 24 * simkit.Hour)

	resp, err = client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	// Structural validity: every non-comment, non-blank line must be
	// "name{labels} value" or "name value"; HELP/TYPE must precede series.
	typed := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed series line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
			name = name[:i]
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric value in %q", line)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if s, ok := strings.CutSuffix(name, suffix); ok && typed[s] {
				base = s
				break
			}
		}
		if !typed[base] {
			t.Errorf("series %q has no preceding TYPE", name)
		}
	}

	// Activity over a week of 4P-ED markets must show up.
	for _, want := range []string{
		"spotcheck_vms_created_total 1",
		"spotcheck_pool_hosts{",
		"spotcheck_cloudsim_price_ticks_total{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDaemonTrace checks the /trace dump carries the VM's lifecycle events.
func TestDaemonTrace(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusCreated, nil)
	d.advance(simkit.Hour)

	resp, err = client.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Total   uint64 `json:"total"`
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Scope   string `json:"scope"`
			Subject string `json:"subject"`
			Kind    string `json:"kind"`
		} `json:"events"`
	}
	decode(t, resp, http.StatusOK, &dump)
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatalf("empty trace: %+v", dump)
	}
	if dump.Total-dump.Dropped != uint64(len(dump.Events)) {
		t.Errorf("total %d - dropped %d != %d events served", dump.Total, dump.Dropped, len(dump.Events))
	}
	kinds := map[string]bool{}
	for _, e := range dump.Events {
		kinds[e.Scope+"/"+e.Kind] = true
	}
	for _, want := range []string{"vm/requested", "vm/placed", "host/acquired", "market/bid"} {
		if !kinds[want] {
			t.Errorf("trace missing %s event", want)
		}
	}
}

// TestDaemonEventsAreTraceSubsequence: both endpoints read one store, so
// while the ring has dropped nothing a VM's /events is exactly the /trace
// events about that VM — same seq, at, kind and detail, in the same order.
func TestDaemonEventsAreTraceSubsequence(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	var ids []string
	for _, customer := range []string{"alice", "bob", "alice"} {
		resp, err := client.Post(srv.URL+"/servers?customer="+customer, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		var created map[string]string
		decode(t, resp, http.StatusCreated, &created)
		ids = append(ids, created["id"])
	}
	d.advance(14 * 24 * simkit.Hour) // long enough for revocations and returns

	resp, err := client.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.TraceDump
	decode(t, resp, http.StatusOK, &dump)
	if dump.Dropped != 0 || dump.Total != uint64(len(dump.Events)) {
		t.Fatalf("trace dropped %d of %d events (%d served); the comparison needs all of them", dump.Dropped, dump.Total, len(dump.Events))
	}
	for _, id := range ids {
		resp, err := client.Get(srv.URL + "/servers/" + id + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var events []obs.TraceEvent
		decode(t, resp, http.StatusOK, &events)
		var want []obs.TraceEvent
		for _, e := range dump.Events {
			if e.Scope == "vm" && e.Subject == id {
				want = append(want, e)
			}
		}
		if len(events) < 3 || !slices.Equal(events, want) {
			t.Errorf("%s: /events = %v\n/trace about it = %v", id, events, want)
		}
	}
}

func TestDaemonEstimate(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var created map[string]string
	decode(t, resp, http.StatusCreated, &created)
	d.advance(simkit.Hour)

	resp, err = client.Get(srv.URL + "/servers/" + created["id"] + "/estimate")
	if err != nil {
		t.Fatal(err)
	}
	var est struct {
		TotalDowntime int64
		BreaksTCP     bool
	}
	decode(t, resp, http.StatusOK, &est)
	if est.TotalDowntime <= 0 {
		t.Errorf("estimate = %+v", est)
	}
	if est.BreaksTCP {
		t.Error("SpotCheck-lazy estimate should not break TCP")
	}
	resp, err = client.Get(srv.URL + "/servers/nvm-none/estimate")
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusNotFound, nil)
}

func TestWallToSim(t *testing.T) {
	tests := []struct {
		name    string
		elapsed time.Duration
		speedup float64
		want    simkit.Time
	}{
		{"100ms at 60x", 100 * time.Millisecond, 60, simkit.Time(6 * time.Second)},
		{"delayed tick carries full elapsed time", 450 * time.Millisecond, 60, simkit.Time(27 * time.Second)},
		{"1x passthrough", time.Second, 1, simkit.Time(time.Second)},
		{"zero elapsed", 0, 60, 0},
		{"backwards wall clock", -time.Second, 60, 0},
		{"zero speedup", time.Second, 0, 0},
		{"NaN speedup", 100 * time.Millisecond, math.NaN(), 0},
		{"past the largest time", 100 * time.Millisecond, 1e11, maxSimTime},
		{"infinite speedup", 100 * time.Millisecond, math.Inf(1), maxSimTime},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := wallToSim(tt.elapsed, tt.speedup); got != tt.want {
				t.Errorf("wallToSim(%v, %v) = %v, want %v", tt.elapsed, tt.speedup, got, tt.want)
			}
		})
	}
}

// Advancing past the largest virtual time stops the clock there: it does
// not wrap to a negative time, which RunUntil refuses with a panic.
func TestDaemonAdvancePastTheEnd(t *testing.T) {
	d, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusCreated, nil)
	for _, dur := range []string{"2562047h", "47m", "1h"} {
		resp, err := client.Post(srv.URL+"/advance?d="+dur, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		decode(t, resp, http.StatusOK, nil)
	}
	if now := d.sched.Now(); now != maxSimTime {
		t.Errorf("clock at %v, want the largest time %v", now, maxSimTime)
	}
	d.advance(wallToSim(time.Second, 60)) // the clock loop's next tick
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		speedup, months float64
		ok              bool
	}{
		{60, 6, true},
		{0, 6, true}, // manual /advance only
		{-1, 6, false},
		{math.NaN(), 6, false},
		{math.Inf(1), 6, false},
		{60, 0, false},
		{60, -1, false},
		{60, math.NaN(), false},
		{60, math.Inf(1), false},
		{60, 1e6, false}, // past the largest virtual time
	} {
		if err := checkFlags(tc.speedup, tc.months); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %v) = %v, want ok=%v", tc.speedup, tc.months, err, tc.ok)
		}
		// The daemon converts -months with the same check.
		if tc.ok || tc.months == 6 {
			continue
		}
		if _, err := newDaemon(tc.months, 1); err == nil || !strings.Contains(err.Error(), "-months must be positive") {
			t.Errorf("newDaemon(%v) = %v, want an error naming -months", tc.months, err)
		}
	}
}

// TestClockLoopAdvancesByElapsedWallTime is the regression test for the
// speedup loop: virtual time must track the wall time actually elapsed
// between delivered ticks, not tick_period × tick_count. The old
// `for range time.Tick` loop advanced a fixed quantum per delivery, so
// every tick the runtime delayed or dropped (e.g. while /advance held the
// daemon lock) silently slowed the simulation below the advertised
// speedup — and the loop had no stop path at all.
func TestClockLoopAdvancesByElapsedWallTime(t *testing.T) {
	d, err := newDaemon(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	ticks := make(chan time.Time)
	stop := make(chan struct{})
	done := make(chan struct{})
	start := time.Unix(1000, 0)
	go func() {
		d.clockLoop(ticks, start, 60, stop)
		close(done)
	}()

	// A nominal tick, then one delivered 250ms late: together they span
	// 450ms of wall time and must yield exactly 27s of virtual time.
	ticks <- start.Add(100 * time.Millisecond)
	ticks <- start.Add(450 * time.Millisecond)
	// A duplicate and a backwards timestamp must advance nothing.
	ticks <- start.Add(450 * time.Millisecond)
	ticks <- start.Add(200 * time.Millisecond)

	// Closing stop terminates the loop — the cancellation path the old
	// time.Tick goroutine lacked.
	close(stop)
	<-done

	if got, want := d.sched.Now(), simkit.Time(27*time.Second); got != want {
		t.Errorf("virtual time = %v, want %v", got, want)
	}
}

// scrapeCounters reads every spotcheck_monitor_ticks_total and
// spotcheck_cloudsim_price_ticks_total series from one /metrics scrape.
func scrapeCounters(t *testing.T, client *http.Client, url string) map[string]float64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
		return nil
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "spotcheck_monitor_ticks_total") && !strings.HasPrefix(line, "spotcheck_cloudsim_price_ticks_total") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Errorf("bad series %q", line)
			continue
		}
		out[fields[0]] = v
	}
	return out
}

// TestDaemonMetricsDuringAdvance scrapes /metrics, which takes no lock,
// while /advance runs the event loop (run it under -race): the monitor's
// tick counter and every market's price-change counter only ever rise, and
// once the advances are done the tick counter reads one per monitor
// interval of virtual time — Settle runs inside each advance.
func TestDaemonMetricsDuringAdvance(t *testing.T) {
	_, srv := testServer(t)
	client := srv.Client()
	resp, err := client.Post(srv.URL+"/servers?customer=alice", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	decode(t, resp, http.StatusCreated, nil)

	const steps = 8
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			resp, err := client.Post(srv.URL+"/advance?d=6h", "", nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	last := map[string]float64{}
	check := func() {
		for name, v := range scrapeCounters(t, client, srv.URL) {
			if v < last[name] {
				t.Errorf("%s fell from %v to %v", name, last[name], v)
			}
			last[name] = v
		}
	}
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		check()
	}
	check()
	if want := float64(steps * 6 * 60); last["spotcheck_monitor_ticks_total"] != want {
		t.Errorf("spotcheck_monitor_ticks_total = %v after %d h, want %v (one per minute)", last["spotcheck_monitor_ticks_total"], steps*6, want)
	}
	if len(last) < 2 {
		t.Errorf("scrapes found only %v", last)
	}
}

// TestDaemonReadsDuringWrites runs readers of the routes that encode off
// the daemon lock (/servers, /report, /customers, /servers/{id}/events)
// against a writer that creates, advances and deletes (run it under
// -race): every body decodes, and the controller counts exactly the
// creates that succeeded.
func TestDaemonReadsDuringWrites(t *testing.T) {
	_, srv := testServer(t)
	client := srv.Client()
	do := func(method, path string) (int, []byte) {
		req, _ := http.NewRequest(method, srv.URL+path, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp.StatusCode, body
	}
	create := func() string {
		status, body := do(http.MethodPost, "/servers?customer=w")
		var created map[string]string
		if status != http.StatusCreated || json.Unmarshal(body, &created) != nil {
			t.Errorf("create: %d %s", status, body)
		}
		return created["id"]
	}
	watched := create() // read by /events, never deleted
	posts := 1

	done := make(chan struct{})
	readersDone := make(chan struct{})
	readers := []string{"/servers", "/report", "/customers", "/servers/" + watched + "/events"}
	for _, path := range readers {
		go func() {
			defer func() { readersDone <- struct{}{} }()
			for {
				select {
				case <-done:
					return
				default:
				}
				status, body := do(http.MethodGet, path)
				var v any
				if status != http.StatusOK || json.Unmarshal(body, &v) != nil {
					t.Errorf("GET %s: %d %q", path, status, body)
					return
				}
			}
		}()
	}
	var owned []string
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			owned = append(owned, create())
			posts++
		case 1:
			if status, body := do(http.MethodPost, "/advance?d=20m"); status != http.StatusOK {
				t.Errorf("advance: %d %s", status, body)
			}
		case 2:
			if len(owned) > 2 {
				if status, body := do(http.MethodDelete, "/servers/"+owned[0]); status != http.StatusOK {
					t.Errorf("delete %s: %d %s", owned[0], status, body)
				}
				owned = owned[1:]
			}
		}
	}
	close(done)
	for range readers {
		<-readersDone
	}
	status, body := do(http.MethodGet, "/report")
	var report core.Report
	if status != http.StatusOK || json.Unmarshal(body, &report) != nil {
		t.Fatalf("final /report: %d %s", status, body)
	}
	if report.Stats.VMsCreated != posts {
		t.Errorf("VMsCreated = %d, %d POSTs succeeded", report.Stats.VMsCreated, posts)
	}
}
