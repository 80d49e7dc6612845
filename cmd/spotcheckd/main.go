// Command spotcheckd runs a live SpotCheck derivative cloud over the
// simulated native IaaS platform and exposes an EC2-like HTTP management
// API. Virtual time advances continuously at a configurable speedup so spot
// price dynamics, revocations and migrations happen while you watch.
//
// Usage:
//
//	spotcheckd [-listen :8080] [-speedup 60] [-seed 42] [-months 6]
//
// API:
//
//	POST   /servers?customer=alice&type=m3.medium   create a nested VM
//	GET    /servers                                 list nested VMs
//	GET    /servers/{id}                            describe one VM
//	DELETE /servers/{id}                            release a VM
//	GET    /servers/{id}/events                     the VM's audit timeline
//	GET    /servers/{id}/estimate                   what a revocation would cost now
//	GET    /pools                                   server pool summary
//	GET    /prices                                  current spot prices
//	GET    /report                                  cost/availability report
//	GET    /customers                               per-tenant accounting
//	GET    /status                                  operator status (text)
//	GET    /metrics                                 Prometheus text exposition
//	GET    /trace                                   controller event trace (JSON)
//	POST   /advance?d=1h                            advance virtual time
//	GET    /clock                                   current virtual time
//
// One mutex, d.mu, guards the scheduler, the platform and the controller.
// A handler holds it only for its controller call (daemon.locked); the value
// that call returns owns no controller memory (VMInfo, Report,
// CustomerReport, PoolInfo and MigrationEstimate are values, and Events
// returns a copy), so it is encoded after the lock is released and a large
// body never holds up a writer. /metrics and /trace take no daemon lock.
//
// The aggregate routes re-derive what they answer on every request and
// keep nothing from one request to the next; each costs about the size of
// its answer. /report and /customers walk the controller's VM table once,
// hashing and sorting nothing per VM, and bill each live rental with one
// subtraction: its market's cumulative price F(now), searched once per
// market per instant, less the F(launch) kept since it launched.
// /customers adds each VM into its customer's record by position. /servers
// walks the same table, already in id order, and describes each VM.
// /metrics appends every series to one buffer and writes it once.
//
// JSON bodies are the bytes an encoding/json Encoder with SetIndent("",
// "  ") writes. The VMInfo routes (GET /servers and GET /servers/{id}) and
// GET /trace, the largest bodies, are appended by hand, field by field,
// with encoding/json's string escaping and float format (vminfo.go,
// trace.go), and the two lists go to the client 64 KB at a time, so no
// body-sized buffer is ever held. Every other route goes through
// writeJSON: encoding/json marshals compactly and a one-pass indenter
// (indenter) that tracks only string and escape state streams the indented
// body to the client a chunk at a time. writeJSON marshals the value whole
// before the status is committed, so one encoding/json rejects is answered
// 500 with {"error": …}; a VMInfo or a trace dump always encodes.
//
// The server drops a client that has not sent its headers within
// readHeaderTimeout and a keep-alive connection idle for idleTimeout; it
// sets no write timeout, since a long /advance is legitimate. On SIGINT or
// SIGTERM it stops accepting, waits for the requests in flight, and shuts
// the controller down under d.mu, returning every rented instance.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

type daemon struct {
	mu    sync.Mutex
	sched *simkit.Scheduler  // guarded by mu (virtual time advances under lock)
	plat  *cloudsim.Platform // guarded by mu
	ctrl  *core.Controller   // guarded by mu
	reg   *obs.Registry      // self-synchronizing; metrics handler reads lock-free
	trace *obs.Trace         // self-synchronizing; trace handler reads lock-free
}

func newDaemon(months float64, seed int64) (*daemon, error) {
	horizon, err := experiments.MonthsHorizon(months)
	if err != nil {
		return nil, fmt.Errorf("-months %w", err)
	}
	traces, err := experiments.EvalTraces(horizon, seed)
	if err != nil {
		return nil, err
	}
	sched := simkit.NewScheduler()
	reg := obs.NewRegistry()
	trace := obs.NewTrace(0)
	plat, err := cloudsim.New(sched, cloudsim.Config{Traces: traces, Seed: seed, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ctrl, err := core.New(core.Config{
		Scheduler: sched,
		Provider:  plat,
		Mechanism: migration.SpotCheckLazy,
		Placement: core.Policy4PED(),
		Seed:      seed,
		Metrics:   reg,
		Trace:     trace,
	})
	if err != nil {
		return nil, err
	}
	return &daemon{sched: sched, plat: plat, ctrl: ctrl, reg: reg, trace: trace}, nil
}

// maxSimTime is the largest virtual time: the daemon's clock stops there
// instead of wrapping negative.
const maxSimTime = simkit.Time(math.MaxInt64)

// advance moves virtual time forward by dt (> 0), saturating at
// maxSimTime, under the lock, then settles the controller's tick
// accounting so the lock-free /metrics reads the monitor and price-change
// counters as of the new instant.
func (d *daemon) advance(dt simkit.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	to := maxSimTime
	if now := d.sched.Now(); dt < maxSimTime-now {
		to = now + dt
	}
	d.sched.RunUntil(to)
	d.ctrl.Settle()
}

// wallToSim converts elapsed wall-clock time to a virtual-time delta at the
// given speedup. This is the daemon's single wall→sim crossing point:
// everything behind it (scheduler, controller, traces, /metrics) sees only
// simkit virtual time. Non-positive elapsed time (a clock step, a
// duplicate tick) or speedup advances nothing; a delta past maxSimTime is
// maxSimTime.
func wallToSim(elapsed time.Duration, speedup float64) simkit.Time {
	if elapsed <= 0 || !(speedup > 0) {
		return 0
	}
	if v := float64(elapsed) * speedup; v < float64(maxSimTime) {
		return simkit.Time(v)
	}
	return maxSimTime
}

// clockLoop drives continuous virtual time from a wall-clock tick stream
// until stop closes. Each delivered tick advances the simulation by the
// wall time *actually elapsed* since the previous tick, not by the nominal
// tick period: ticker deliveries are delayed or dropped whenever /advance
// or a slow handler holds the daemon lock, and the pre-fix loop
// (`for range time.Tick(tick)`, advancing a fixed quantum) silently ran
// the simulation slower than the advertised speedup — and leaked its
// goroutine and ticker at shutdown, since time.Tick cannot be stopped.
func (d *daemon) clockLoop(ticks <-chan time.Time, start time.Time, speedup float64, stop <-chan struct{}) {
	last := start
	for {
		select {
		case t := <-ticks:
			if dt := wallToSim(t.Sub(last), speedup); dt > 0 {
				d.advance(dt)
				last = t
			}
		case <-stop:
			return
		}
	}
}

// indentChunk is how much of a JSON body goes to the client per write:
// jsonWriter indents this much compact JSON at a time, and writeVMInfos
// writes its buffer each time it passes this size. A few writes per large
// body, and a small buffer to keep.
const indentChunk = 64 << 10

// jsonWriter is the io.Writer writeJSON hands encoding/json. It indents
// what the encoder writes and passes it on to w a chunk at a time, through
// a buffer pooled across requests; its first Write commits status.
type jsonWriter struct {
	w      http.ResponseWriter
	status int
	wrote  bool
	ix     indenter
	buf    []byte
}

var jsonWriters = sync.Pool{New: func() any { return new(jsonWriter) }}

func (jw *jsonWriter) Write(p []byte) (int, error) {
	if !jw.wrote {
		jw.wrote = true
		jw.w.WriteHeader(jw.status)
	}
	for n := 0; n < len(p); {
		k := min(len(p)-n, indentChunk)
		jw.buf = jw.ix.append(jw.buf[:0], p[n:n+k])
		if _, err := jw.w.Write(jw.buf); err != nil {
			return n, err
		}
		n += k
	}
	return len(p), nil
}

// writeJSON answers with v encoded as an indented JSON body, the bytes an
// encoding/json Encoder with SetIndent("", "  ") writes. The Encoder
// marshals v whole before it writes a byte, so the status is committed only
// for a value that encodes: one encoding/json rejects (a NaN, a channel) is
// answered 500 with {"error": …} instead of status with an empty body.
func (d *daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	jw := jsonWriters.Get().(*jsonWriter)
	*jw = jsonWriter{w: w, status: status, buf: jw.buf}
	defer jsonWriters.Put(jw)
	err := json.NewEncoder(jw).Encode(v)
	switch {
	case err == nil:
	case jw.wrote:
		log.Printf("spotcheckd: write: %v", err)
	default:
		log.Printf("spotcheckd: encode: %v", err)
		jw.status = http.StatusInternalServerError
		// A map of strings always encodes.
		_ = json.NewEncoder(jw).Encode(map[string]string{"error": err.Error()})
	}
}

func (d *daemon) writeErr(w http.ResponseWriter, status int, err error) {
	d.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// locked runs call with d.mu held: the lock covers the controller call and
// nothing else.
func (d *daemon) locked(call func() (any, error)) (any, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return call()
}

// serve answers a request from the controller. call runs under d.mu; the
// value it returns is encoded after the lock is released, so a large body
// never holds up a writer. That value must own no controller memory (every
// core accessor the handlers call returns values or copies). A non-nil
// error is answered with errStatus.
func (d *daemon) serve(w http.ResponseWriter, status, errStatus int, call func() (any, error)) {
	v, err := d.locked(call)
	if err != nil {
		d.writeErr(w, errStatus, err)
		return
	}
	d.writeJSON(w, status, v)
}

func (d *daemon) handleServers(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		opts := core.ServerOptions{
			Customer:  r.URL.Query().Get("customer"),
			Type:      r.URL.Query().Get("type"),
			Stateless: r.URL.Query().Get("stateless") == "true",
		}
		if opts.Customer == "" {
			opts.Customer = "default"
		}
		if opts.Type == "" {
			opts.Type = cloud.M3Medium
		}
		d.serve(w, http.StatusCreated, http.StatusBadRequest, func() (any, error) {
			id, err := d.ctrl.RequestServerWithOptions(opts)
			return map[string]string{"id": string(id)}, err
		})
	case http.MethodGet:
		vms, _ := d.locked(func() (any, error) { return d.ctrl.ListVMs(), nil })
		writeVMInfos(w, vms.([]core.VMInfo))
	default:
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func (d *daemon) handleServer(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/servers/")
	if idStr, ok := strings.CutSuffix(rest, "/events"); ok {
		d.handleServerEvents(w, r, nestedvm.ID(idStr))
		return
	}
	if idStr, ok := strings.CutSuffix(rest, "/estimate"); ok {
		d.handleServerEstimate(w, r, nestedvm.ID(idStr))
		return
	}
	id := nestedvm.ID(rest)
	switch r.Method {
	case http.MethodGet:
		v, err := d.locked(func() (any, error) { return d.ctrl.DescribeVM(id) })
		if err != nil {
			d.writeErr(w, http.StatusNotFound, err)
			return
		}
		writeVMInfo(w, v.(core.VMInfo))
	case http.MethodDelete:
		d.serve(w, http.StatusOK, http.StatusNotFound, func() (any, error) {
			return map[string]string{"released": string(id)}, d.ctrl.ReleaseServer(id)
		})
	default:
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func (d *daemon) handleServerEvents(w http.ResponseWriter, r *http.Request, id nestedvm.ID) {
	if r.Method != http.MethodGet {
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	d.serve(w, http.StatusOK, http.StatusNotFound, func() (any, error) {
		if _, err := d.ctrl.DescribeVM(id); err != nil {
			return nil, err
		}
		return d.ctrl.Events(id), nil
	})
}

func (d *daemon) handleServerEstimate(w http.ResponseWriter, r *http.Request, id nestedvm.ID) {
	if r.Method != http.MethodGet {
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	d.serve(w, http.StatusOK, http.StatusNotFound, func() (any, error) { return d.ctrl.EstimateMigration(id) })
}

func (d *daemon) handlePools(w http.ResponseWriter, _ *http.Request) {
	d.serve(w, http.StatusOK, http.StatusInternalServerError, func() (any, error) { return d.ctrl.Pools(), nil })
}

func (d *daemon) handlePrices(w http.ResponseWriter, _ *http.Request) {
	type price struct {
		Type     string    `json:"type"`
		Zone     string    `json:"zone"`
		Spot     cloud.USD `json:"spot"`
		OnDemand cloud.USD `json:"onDemand"`
	}
	d.serve(w, http.StatusOK, http.StatusInternalServerError, func() (any, error) {
		var out []price
		for _, typ := range d.plat.Catalog() {
			for _, zone := range d.plat.Zones() {
				p, err := d.plat.SpotPrice(typ.Name, zone)
				if err != nil {
					if errors.Is(err, cloud.ErrNotFound) {
						continue // untraced market: nothing to list
					}
					return nil, err
				}
				out = append(out, price{Type: typ.Name, Zone: string(zone), Spot: p, OnDemand: typ.OnDemand})
			}
		}
		return out, nil
	})
}

func (d *daemon) handleReport(w http.ResponseWriter, _ *http.Request) {
	d.serve(w, http.StatusOK, http.StatusInternalServerError, func() (any, error) { return d.ctrl.Report(), nil })
}

func (d *daemon) handleCustomers(w http.ResponseWriter, _ *http.Request) {
	d.serve(w, http.StatusOK, http.StatusInternalServerError, func() (any, error) { return d.ctrl.Customers(), nil })
}

func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	text, _ := d.locked(func() (any, error) { return d.ctrl.StatusText(), nil })
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// handleMetrics serves the Prometheus text exposition. It deliberately does
// NOT take d.mu: the registry's instruments are atomics, so a scrape during
// an /advance tick is safe — the point of the obs package's design.
func (d *daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := d.reg.WritePrometheus(w); err != nil {
		log.Printf("spotcheckd: metrics: %v", err)
	}
}

// handleTrace dumps the controller's event-trace ring, oldest first, through
// writeTrace. Like handleMetrics it does not take d.mu; Dump is one
// consistent copy.
func (d *daemon) handleTrace(w http.ResponseWriter, _ *http.Request) {
	writeTrace(w, d.trace.Dump())
}

func (d *daemon) handleAdvance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	dur, err := time.ParseDuration(r.URL.Query().Get("d"))
	if err != nil || dur <= 0 {
		d.writeErr(w, http.StatusBadRequest, fmt.Errorf("need positive duration d, e.g. ?d=1h"))
		return
	}
	d.advance(simkit.Time(dur))
	d.handleClock(w, r)
}

func (d *daemon) handleClock(w http.ResponseWriter, _ *http.Request) {
	d.serve(w, http.StatusOK, http.StatusInternalServerError, func() (any, error) {
		return map[string]string{"virtualTime": d.sched.Now().String()}, nil
	})
}

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	speedup := flag.Float64("speedup", 60, "virtual seconds per wall second (0 = manual /advance only)")
	seed := flag.Int64("seed", 42, "simulation seed")
	months := flag.Float64("months", 6, "spot price trace horizon in months")
	flag.Parse()
	if err := checkFlags(*speedup, *months); err != nil {
		log.Fatal("spotcheckd: ", err)
	}

	d, err := newDaemon(*months, *seed)
	if err != nil {
		log.Fatal("spotcheckd: ", err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal("spotcheckd: ", err)
	}
	if *speedup > 0 {
		ticker := time.NewTicker(100 * time.Millisecond)
		defer ticker.Stop()
		stop := make(chan struct{})
		defer close(stop)
		go d.clockLoop(ticker.C, time.Now(), *speedup, stop)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	log.Printf("spotcheckd: listening on %s (speedup %.0fx, markets %v)",
		ln.Addr(), *speedup, marketNames())
	if err := d.run(newServer(d.mux()), ln, sig); err != nil {
		log.Fatal("spotcheckd: ", err)
	}
}

// newServer serves h. A client has readHeaderTimeout to send its request
// headers, and a keep-alive connection idle for idleTimeout is closed, so
// neither a slow client nor a vanished one holds a connection forever.
// There is deliberately no WriteTimeout: a long /advance is a legitimate
// request, and a write timeout would cut its answer off.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 30 * time.Second // how long run waits for requests in flight
)

// run serves srv on ln until a signal arrives on sig, then shuts down
// gracefully: the server stops accepting and waits up to shutdownGrace for
// the requests in flight, and then, under d.mu, the controller releases
// every VM and returns every native instance it rents.
func (d *daemon) run(srv *http.Server, ln net.Listener, sig <-chan os.Signal) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case s := <-sig:
		log.Printf("spotcheckd: %v: shutting down", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(ctx)
	<-served // http.ErrServerClosed
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ctrl.Shutdown()
	return err
}

// checkFlags rejects a speedup that is negative, NaN or infinite, and a
// horizon of months that is not positive or does not fit in virtual time.
func checkFlags(speedup, months float64) error {
	if !(speedup >= 0) || math.IsInf(speedup, 1) {
		return fmt.Errorf("-speedup %v: need a finite value >= 0", speedup)
	}
	if _, err := experiments.MonthsHorizon(months); err != nil {
		return fmt.Errorf("-months %w", err)
	}
	return nil
}

// mux builds the daemon's route table (shared with the tests).
func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/servers", d.handleServers)
	mux.HandleFunc("/servers/", d.handleServer)
	mux.HandleFunc("/pools", d.handlePools)
	mux.HandleFunc("/prices", d.handlePrices)
	mux.HandleFunc("/report", d.handleReport)
	mux.HandleFunc("/customers", d.handleCustomers)
	mux.HandleFunc("/status", d.handleStatus)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/trace", d.handleTrace)
	mux.HandleFunc("/advance", d.handleAdvance)
	mux.HandleFunc("/clock", d.handleClock)
	return mux
}

func marketNames() []string {
	keys := []spotmarket.MarketKey{
		{Type: cloud.M3Medium, Zone: experiments.EvalZone},
		{Type: cloud.M3Large, Zone: experiments.EvalZone},
		{Type: cloud.M3XLarge, Zone: experiments.EvalZone},
		{Type: cloud.M32XLarge, Zone: experiments.EvalZone},
	}
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	return out
}
