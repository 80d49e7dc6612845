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
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"
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
	horizon := simkit.Time(float64(30*simkit.Day) * months)
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

// advance moves virtual time forward under the lock, then settles the
// controller's tick accounting so the lock-free /metrics reads the monitor
// and price-change counters as of the new instant.
func (d *daemon) advance(dt simkit.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sched.RunUntil(d.sched.Now() + dt)
	d.ctrl.Settle()
}

// wallToSim converts elapsed wall-clock time to a virtual-time delta at the
// given speedup. This is the daemon's single wall→sim crossing point:
// everything behind it (scheduler, controller, traces, /metrics) sees only
// simkit virtual time. Non-positive elapsed time (a clock step, a
// duplicate tick) advances nothing.
func wallToSim(elapsed time.Duration, speedup float64) simkit.Time {
	if elapsed <= 0 || speedup <= 0 {
		return 0
	}
	return simkit.Time(float64(elapsed) * speedup)
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

func (d *daemon) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("spotcheckd: encode: %v", err)
	}
}

func (d *daemon) writeErr(w http.ResponseWriter, status int, err error) {
	d.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (d *daemon) handleServers(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch r.Method {
	case http.MethodPost:
		customer := r.URL.Query().Get("customer")
		typ := r.URL.Query().Get("type")
		if customer == "" {
			customer = "default"
		}
		if typ == "" {
			typ = cloud.M3Medium
		}
		id, err := d.ctrl.RequestServerWithOptions(core.ServerOptions{
			Customer:  customer,
			Type:      typ,
			Stateless: r.URL.Query().Get("stateless") == "true",
		})
		if err != nil {
			d.writeErr(w, http.StatusBadRequest, err)
			return
		}
		d.writeJSON(w, http.StatusCreated, map[string]string{"id": string(id)})
	case http.MethodGet:
		d.writeJSON(w, http.StatusOK, d.ctrl.ListVMs())
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
	d.mu.Lock()
	defer d.mu.Unlock()
	switch r.Method {
	case http.MethodGet:
		info, err := d.ctrl.DescribeVM(id)
		if err != nil {
			d.writeErr(w, http.StatusNotFound, err)
			return
		}
		d.writeJSON(w, http.StatusOK, info)
	case http.MethodDelete:
		if err := d.ctrl.ReleaseServer(id); err != nil {
			d.writeErr(w, http.StatusNotFound, err)
			return
		}
		d.writeJSON(w, http.StatusOK, map[string]string{"released": string(id)})
	default:
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

func (d *daemon) handleServerEvents(w http.ResponseWriter, r *http.Request, id nestedvm.ID) {
	if r.Method != http.MethodGet {
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.ctrl.DescribeVM(id); err != nil {
		d.writeErr(w, http.StatusNotFound, err)
		return
	}
	d.writeJSON(w, http.StatusOK, d.ctrl.Events(id))
}

func (d *daemon) handleServerEstimate(w http.ResponseWriter, r *http.Request, id nestedvm.ID) {
	if r.Method != http.MethodGet {
		d.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	est, err := d.ctrl.EstimateMigration(id)
	if err != nil {
		d.writeErr(w, http.StatusNotFound, err)
		return
	}
	d.writeJSON(w, http.StatusOK, est)
}

func (d *daemon) handlePools(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, d.ctrl.Pools())
}

func (d *daemon) handlePrices(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	type price struct {
		Type     string    `json:"type"`
		Zone     string    `json:"zone"`
		Spot     cloud.USD `json:"spot"`
		OnDemand cloud.USD `json:"onDemand"`
	}
	var out []price
	for _, typ := range d.plat.Catalog() {
		for _, zone := range d.plat.Zones() {
			p, err := d.plat.SpotPrice(typ.Name, zone)
			if err != nil {
				if errors.Is(err, cloud.ErrNotFound) {
					continue // untraced market: nothing to list
				}
				d.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
				return
			}
			out = append(out, price{Type: typ.Name, Zone: string(zone), Spot: p, OnDemand: typ.OnDemand})
		}
	}
	d.writeJSON(w, http.StatusOK, out)
}

func (d *daemon) handleReport(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, d.ctrl.Report())
}

func (d *daemon) handleCustomers(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, d.ctrl.Customers())
}

func (d *daemon) handleStatus(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, d.ctrl.StatusText())
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

// handleTrace dumps the controller's event-trace ring, oldest first. Like
// handleMetrics it does not take d.mu; Dump is one consistent copy.
func (d *daemon) handleTrace(w http.ResponseWriter, _ *http.Request) {
	d.writeJSON(w, http.StatusOK, d.trace.Dump())
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
	d.mu.Lock()
	defer d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, map[string]string{"virtualTime": d.sched.Now().String()})
}

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	speedup := flag.Float64("speedup", 60, "virtual seconds per wall second (0 = manual /advance only)")
	seed := flag.Int64("seed", 42, "simulation seed")
	months := flag.Float64("months", 6, "spot price trace horizon in months")
	flag.Parse()

	d, err := newDaemon(*months, *seed)
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
	log.Printf("spotcheckd: listening on %s (speedup %.0fx, markets %v)",
		*listen, *speedup, marketNames())
	log.Fatal(http.ListenAndServe(*listen, d.mux()))
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
