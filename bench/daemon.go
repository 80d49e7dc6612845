package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// The daemon workload is a closed loop with two connections: a caller of a
// management API waits for its reply before it sends the next request, so
// a slow daemon receives less load. One connection writes (create, advance,
// delete on a fixed schedule), one reads (a seeded mix over the preloaded
// VMs). Op counts are fixed, not the duration, so every count repeats.

// daemonRoutes are the measured routes, in the order the README lists them.
var daemonRoutes = []string{"create", "delete", "advance", "describe", "events", "estimate",
	"report", "metrics", "pools", "customers", "prices", "list"}

// readMix is the reader's route mix in percent (sums to 100).
var readMix = []struct {
	route string
	pct   int
}{
	{"describe", 60}, {"events", 10}, {"estimate", 10}, {"report", 5}, {"metrics", 5},
	{"pools", 4}, {"customers", 3}, {"prices", 2}, {"list", 1},
}

type daemonOp struct {
	route, method, path string
}

// sample is one measured request.
type sample struct {
	route      string
	start, end time.Duration // since the measured region began
	status     int
	bytes      int
}

type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	stopped bool
}

// startDaemon launches the built spotcheckd on a free loopback port with
// the clock loop off (-speedup 0: virtual time moves only on /advance, on
// the writer's schedule) and waits until it answers.
func startDaemon(ctx context.Context, e env) (*daemonProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, binPath(e, "spotcheckd"), "-listen", addr, "-speedup", "0",
		"-months", "6", "-seed", strconv.Itoa(marketSeed))
	cmd.Dir = e.root
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(d.base + "/clock")
		if err == nil {
			drain(resp)
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("spotcheckd did not answer on %s: %w", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the daemon and waits for it (once; later calls only read),
// returning its whole-life CPU seconds and peak RSS.
func (d *daemonProc) stop() (cpuS, rssMB float64) {
	if !d.stopped {
		d.stopped = true
		_ = d.cmd.Process.Kill() // already exited is fine: Wait reports it
		_ = d.cmd.Wait()         // a killed process always "fails"; only the rusage matters
	}
	return rusageOf(d.cmd)
}

// procCPU reads a live process's user+system CPU seconds from /proc.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks (USER_HZ, 100 on Linux).
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command", pid, len(f))
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

func drain(resp *http.Response) int {
	n, _ := io.Copy(io.Discard, resp.Body) // a short read shows up as a short byte count
	resp.Body.Close()
	return int(n)
}

// newConn is one keep-alive connection: the closed loop's unit of load.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// request issues one op and returns its status, body and size.
func (d *daemonProc) request(c *http.Client, op daemonOp, wantBody bool) (status int, body []byte, size int, err error) {
	req, err := http.NewRequest(op.method, d.base+op.path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	if wantBody {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body, len(body), err
	}
	return resp.StatusCode, nil, drain(resp), nil
}

// expect issues an unmeasured op that must answer with the given status.
func (d *daemonProc) expect(c *http.Client, op daemonOp, want int) ([]byte, error) {
	status, body, _, err := d.request(c, op, true)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", op.method, op.path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, body %q", op.method, op.path, status, body)
	}
	return body, nil
}

func (d *daemonProc) create(c *http.Client, customer string) (string, error) {
	body, err := d.expect(c, daemonOp{"create", http.MethodPost, "/servers?customer=" + customer}, http.StatusCreated)
	if err != nil {
		return "", err
	}
	var out struct{ ID string }
	if err := json.Unmarshal(body, &out); err != nil {
		return "", fmt.Errorf("POST /servers body %q: %w", body, err)
	}
	return out.ID, nil
}

// readerOps draws the reader's fixed-length op sequence from the seed.
func readerOps(seed int64, n int, ids []string) []daemonOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]daemonOp, n)
	for i := range ops {
		p := rng.Intn(100)
		route := ""
		for _, m := range readMix {
			if p < m.pct {
				route = m.route
				break
			}
			p -= m.pct
		}
		id := ids[rng.Intn(len(ids))]
		path := "/" + route
		switch route {
		case "describe":
			path = "/servers/" + id
		case "events", "estimate":
			path = "/servers/" + id + "/" + route
		case "list":
			path = "/servers"
		}
		ops[i] = daemonOp{route, http.MethodGet, path}
	}
	return ops
}

// daemonIter is one iteration of the daemon workload. With rec non-nil
// every request also becomes a client span.
func daemonIter(ctx context.Context, e env, rec *recorder) (iterResult, error) {
	sz := sizesFor(e.quick)
	var r iterResult
	t0 := time.Now()
	if err := buildBinaries(ctx, e); err != nil {
		return r, err
	}
	d, err := startDaemon(ctx, e)
	if err != nil {
		return r, err
	}
	defer d.stop()

	writer, reader := newConn(), newConn()
	defer writer.CloseIdleConnections()
	defer reader.CloseIdleConnections()
	ids := make([]string, sz.preload)
	for i := range ids {
		if ids[i], err = d.create(writer, fmt.Sprintf("cust-%d", i%16)); err != nil {
			return r, fmt.Errorf("preload: %w", err)
		}
	}
	if _, err := d.expect(writer, daemonOp{"advance", http.MethodPost, "/advance?d=24h"}, http.StatusOK); err != nil {
		return r, fmt.Errorf("preload: %w", err)
	}
	reads := readerOps(e.seed, sz.reads, ids)
	r.SetupS = time.Since(t0).Seconds()

	// Measured region: both connections run their fixed sequences.
	cpu0, cpuErr := procCPU(d.cmd.Process.Pid)
	begin := time.Now()
	var (
		wg           sync.WaitGroup
		wSamples     = make([]sample, 0, sz.writes)
		rSamples     = make([]sample, 0, sz.reads)
		wErr, rErr   error
		postsOK      = sz.preload
		ownedCreated []string
	)
	timed := func(c *http.Client, op daemonOp, wantBody bool) (sample, []byte, error) {
		start := time.Since(begin)
		status, body, size, err := d.request(c, op, wantBody)
		return sample{route: op.route, start: start, end: time.Since(begin), status: status, bytes: size}, body, err
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < sz.writes && ctx.Err() == nil; i++ {
			op := daemonOp{"create", http.MethodPost, fmt.Sprintf("/servers?customer=w-%d", i%8)}
			switch {
			case i%3 == 1:
				op = daemonOp{"advance", http.MethodPost, "/advance?d=10m"}
			case i%3 == 2 && len(ownedCreated) > 6:
				// Delete the writer's own oldest VM: about an hour old, so
				// it is running, and never one the reader asks about.
				op = daemonOp{"delete", http.MethodDelete, "/servers/" + ownedCreated[0]}
				ownedCreated = ownedCreated[1:]
			}
			s, body, err := timed(writer, op, op.route == "create")
			if err != nil {
				wErr = err
				return
			}
			if op.route == "create" && s.status == http.StatusCreated {
				var out struct{ ID string }
				if err := json.Unmarshal(body, &out); err != nil {
					wErr = fmt.Errorf("POST /servers body: %w", err)
					return
				}
				ownedCreated = append(ownedCreated, out.ID)
				postsOK++
			}
			wSamples = append(wSamples, s)
		}
	}()
	go func() {
		defer wg.Done()
		for _, op := range reads {
			if ctx.Err() != nil {
				return
			}
			s, _, err := timed(reader, op, false)
			if err != nil {
				rErr = err
				return
			}
			rSamples = append(rSamples, s)
		}
	}()
	wg.Wait()
	r.WallS = time.Since(begin).Seconds()
	cpu1, err := procCPU(d.cmd.Process.Pid)
	cpuErr = errors.Join(cpuErr, err)
	if err := errors.Join(wErr, rErr); err != nil {
		return r, fmt.Errorf("daemon load: %w", err)
	}

	// Not measured: the final report, then the server's rusage.
	body, err := d.expect(writer, daemonOp{"report", http.MethodGet, "/report"}, http.StatusOK)
	if err != nil {
		return r, err
	}
	var rep core.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return r, fmt.Errorf("final /report: %w", err)
	}
	lifeCPU, rss := d.stop()
	r.PeakRSSMB = rss
	r.CPUS = cpu1 - cpu0
	if cpuErr != nil {
		// No /proc: fall back to the server's whole life, preload included.
		r.CPUS = lifeCPU
	}
	r.VMHours = rep.VMHours
	r.Sim = simFromReport(rep)
	if rep.Stats.VMsCreated != postsOK {
		r.problemf("daemon: report says %d VMs created, %d POSTs succeeded", rep.Stats.VMsCreated, postsOK)
	}

	all := append(append([]sample(nil), wSamples...), rSamples...)
	r.Attempted = len(all)
	byRoute := map[string][]float64{}
	var lat, duringAdvance []float64
	var bytesOut int
	for _, s := range all {
		want := http.StatusOK
		if s.route == "create" {
			want = http.StatusCreated
		}
		if s.status != want {
			r.Failed++
		}
		ms := float64(s.end-s.start) / float64(time.Millisecond)
		lat = append(lat, ms)
		byRoute[s.route] = append(byRoute[s.route], ms)
		bytesOut += s.bytes
		if rec != nil {
			rec.span("spotcheckd."+s.route, int64(s.start), int64(s.end))
		}
	}
	// Reads that overlapped a writer /advance waited for the daemon lock
	// the way they would behind the clock loop.
	for _, s := range rSamples {
		for _, w := range wSamples {
			if w.route == "advance" && s.start < w.end && w.start < s.end {
				duringAdvance = append(duringAdvance, float64(s.end-s.start)/float64(time.Millisecond))
				break
			}
		}
	}
	r.setLayer("latency_p50_ms", percentile(lat, 0.50))
	r.setLayer("latency_p99_ms", percentile(lat, 0.99))
	r.setLayer("req_per_s", float64(len(all))/r.WallS)
	for _, route := range daemonRoutes {
		r.setLayer("spotcheckd."+route+".p50_ms", percentile(byRoute[route], 0.50))
		r.setLayer("spotcheckd."+route+".p99_ms", percentile(byRoute[route], 0.99))
	}
	r.setLayer("spotcheckd.cpu_ms_per_req", 1000*r.CPUS/float64(len(all)))
	r.setLayer("spotcheckd.bytes_out_mb", float64(bytesOut)/(1<<20))
	r.setLayer("spotcheckd.read_p99_during_advance_ms", percentile(duringAdvance, 0.99))
	r.layerFromSim()
	return r, nil
}
