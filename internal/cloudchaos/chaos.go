// Package cloudchaos wraps a cloud.Provider with fault injection: extra
// control-plane latency and randomly failed asynchronous operations. The
// SpotCheck controller must tolerate a flaky native platform — operations
// that take longer than Table 1 promises, launches that fail outright,
// volume attaches and IP re-plumbing that error mid-migration — without
// losing VM state or corrupting its bookkeeping; this wrapper makes that
// testable, and the scenario library's chaos campaigns make it a reported
// number (internal/scenario).
//
// Concurrency contract: a Provider runs entirely on the simulation event
// loop — every method and every injected callback executes on the single
// scheduler goroutine, like the platform it wraps. Injected, the RNG and
// the fault counters therefore need no locking.
package cloudchaos

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/simkit"
)

// Config tunes the injected faults.
type Config struct {
	// FailProb is the probability that an asynchronous operation's
	// callback reports a transient failure instead of completing.
	// Launch failures surface as ErrCapacity (the retryable class);
	// volume-attach and IP-plumbing failures surface as ErrBadState (the
	// class the platform itself returns for transient state races, e.g.
	// "instance terminated during attach"). Every injected failure is
	// additionally marked with ErrInjected.
	FailProb float64
	// ExtraLatency adds a uniformly random delay in [0, ExtraLatency] to
	// every asynchronous completion.
	ExtraLatency simkit.Time
	// Seed drives the fault stream.
	Seed int64
	// Metrics, when set, counts every injected fault into the
	// spotcheck_chaos_injected_total counter labelled by operation, so
	// chaos campaigns report how much chaos actually fired rather than
	// assuming the probability did its job.
	Metrics *obs.Registry
}

// ErrInjected marks chaos-injected operation failures, so callers and
// tests can separate deliberate faults from organic platform errors with
// errors.Is(err, ErrInjected). It is a plain sentinel: every injection
// site additionally wraps the operation's organic error class — launch
// failures wrap cloud.ErrCapacity, the retryable class, matching what the
// real platform returns when it is out of capacity; attach/IP failures
// wrap cloud.ErrBadState, matching the platform's transient state races —
// so both classes stay visible through errors.Is.
var ErrInjected = errors.New("cloudchaos: injected failure")

// Operation labels on the spotcheck_chaos_injected_total counter.
const (
	OpRunOnDemand  = "run_on_demand"
	OpRequestSpot  = "request_spot"
	OpAttachVolume = "attach_volume"
	OpDetachVolume = "detach_volume"
	OpAssignIP     = "assign_ip"
	OpUnassignIP   = "unassign_ip"
)

// metricInjected counts injected faults by operation.
const metricInjected = "spotcheck_chaos_injected_total"

// chaosOp is one injectable operation: its metric label, the labels of its
// completion and failure events, the organic error class an injected
// failure wraps, and — for the two launches, whose errors name the type —
// the verb their text begins with. The table is in metric-label order.
type chaosOp struct {
	name, label, failLabel string
	organic                error
	verb                   string
}

const (
	opRunOnDemand = iota
	opRequestSpot
	opAttachVolume
	opDetachVolume
	opAssignIP
	opUnassignIP
	numOps
)

var chaosOps = [numOps]chaosOp{
	opRunOnDemand:  {OpRunOnDemand, "od-launch", "od-fail", cloud.ErrCapacity, "launch"},
	opRequestSpot:  {OpRequestSpot, "spot-launch", "spot-fail", cloud.ErrCapacity, "spot"},
	opAttachVolume: {OpAttachVolume, "attach-vol", "attach-vol-fail", cloud.ErrBadState, ""},
	opDetachVolume: {OpDetachVolume, "detach-vol", "detach-vol-fail", cloud.ErrBadState, ""},
	opAssignIP:     {OpAssignIP, "assign-ip", "assign-ip-fail", cloud.ErrBadState, ""},
	opUnassignIP:   {OpUnassignIP, "unassign-ip", "unassign-ip-fail", cloud.ErrBadState, ""},
}

// Provider wraps an inner provider with fault injection.
type Provider struct {
	cloud.Provider
	sched *simkit.Scheduler
	cfg   Config
	rng   *rand.Rand
	met   [numOps]*obs.Counter // nil without Config.Metrics

	// errs holds each volume and address operation's injected error, built
	// once; launchErrs holds the launch operations' — they name the type —
	// built on a type's first injected failure.
	errs       [numOps]error
	launchErrs [opRequestSpot + 1]map[string]error

	// flights holds every flight record ever built, by index; free lists
	// the idle ones. deliverFn is deliver bound once.
	flights   []*flight
	free      []uint32
	deliverFn func(uint64)

	// Injected counts faults delivered, for tests. Like every other field
	// it is only touched on the scheduler goroutine (see the package
	// concurrency contract); the per-operation breakdown lives in the
	// spotcheck_chaos_injected_total counter.
	Injected int
}

// Wrap builds a chaotic provider around inner.
func Wrap(inner cloud.Provider, sched *simkit.Scheduler, cfg Config) *Provider {
	p := &Provider{
		Provider: inner,
		sched:    sched,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	p.deliverFn = p.deliver
	if cfg.Metrics != nil {
		cfg.Metrics.Describe(metricInjected, "chaos-injected operation failures by operation")
	}
	for i, op := range chaosOps {
		if cfg.Metrics != nil {
			p.met[i] = cfg.Metrics.Counter(metricInjected, obs.L("op", op.name))
		}
		if op.verb == "" {
			p.errs[i] = fmt.Errorf("%s: %w: %w", op.label, ErrInjected, op.organic)
		} else {
			p.launchErrs[i] = map[string]error{}
		}
	}
	return p
}

// injectedErr is the error an injected failure of op delivers; typ is the
// instance type of a launch.
func (p *Provider) injectedErr(op int, typ string) error {
	if chaosOps[op].verb == "" {
		return p.errs[op]
	}
	err := p.launchErrs[op][typ]
	if err == nil {
		err = fmt.Errorf("%s %s: %w: %w", chaosOps[op].verb, typ, ErrInjected, chaosOps[op].organic)
		p.launchErrs[op][typ] = err
	}
	return err
}

// flight is one wrapped asynchronous operation between the caller's request
// and the delivery of its outcome: the caller's callback, the outcome once
// known, and the callbacks handed to the inner provider in the caller's
// place. Records are recycled, each with the callbacks bound to it when it
// was first built, so a warm provider wraps an operation without
// allocating.
type flight struct {
	p     *Provider
	idx   uint32
	label string // the completion event's label
	cb    cloud.Callback
	icb   cloud.InstanceCallback // launches
	inst  *cloud.Instance
	err   error

	done     cloud.Callback         // the inner operation's completion
	launched cloud.InstanceCallback // the inner launch's completion
}

// begin opens a flight for one call of op (typ names a launch's instance
// type). When a fault fires it schedules the failure's delivery and returns
// nil: the inner provider must not be invoked.
//
// Double-callback guard: when a fault fires the operation genuinely does
// not happen on the platform, so exactly one of {synchronous error,
// injected failure callback, inner completion callback} reaches the
// caller. Injecting by wrapping the inner callback instead would race the
// inner provider's synchronous-error path: the caller would observe both
// the returned error and a scheduled failure callback for one logical
// operation, corrupting retry bookkeeping (e.g. core's failed install unwinding
// the same reservation twice).
func (p *Provider) begin(op int, typ string, cb cloud.Callback, icb cloud.InstanceCallback) *flight {
	var f *flight
	if n := len(p.free); n > 0 {
		f, p.free = p.flights[p.free[n-1]], p.free[:n-1]
	} else {
		f = &flight{p: p, idx: uint32(len(p.flights))}
		f.done = func(err error) { f.err = err; p.delay(f) }
		f.launched = func(inst *cloud.Instance, err error) { f.inst, f.err = inst, err; p.delay(f) }
		p.flights = append(p.flights, f)
	}
	f.cb, f.icb, f.label = cb, icb, chaosOps[op].label
	if p.cfg.FailProb > 0 && p.rng.Float64() < p.cfg.FailProb {
		p.Injected++
		if c := p.met[op]; c != nil {
			c.Inc()
		}
		f.err, f.label = p.injectedErr(op, typ), chaosOps[op].failLabel
		p.delay(f)
		return nil
	}
	return f
}

// delay postpones the delivery of f's outcome by the injected extra
// latency.
func (p *Provider) delay(f *flight) {
	if p.cfg.ExtraLatency <= 0 {
		p.deliver(uint64(f.idx))
		return
	}
	// The draw is uniform over [0, ExtraLatency] inclusive, so the
	// exclusive Int63n bound is ExtraLatency+1 — except when ExtraLatency
	// is already MaxInt64, where +1 would overflow to a negative bound and
	// panic. Saturate instead: the lost top value is one nanosecond.
	bound := int64(p.cfg.ExtraLatency)
	if bound < math.MaxInt64 {
		bound++
	}
	d := simkit.Time(p.rng.Int63n(bound))
	p.sched.AfterArg(d, f.label, p.deliverFn, uint64(f.idx))
}

// deliver hands flight i's outcome to the caller; the record is idle again
// before the callback runs.
func (p *Provider) deliver(i uint64) {
	f := p.flights[i]
	cb, icb, inst, err := f.cb, f.icb, f.inst, f.err
	p.release(f)
	switch {
	case icb != nil:
		icb(inst, err)
	case cb != nil:
		cb(err)
	}
}

func (p *Provider) release(f *flight) {
	f.cb, f.icb, f.inst, f.err = nil, nil, nil, nil
	p.free = append(p.free, f.idx)
}

// RunOnDemand injects launch failures and completion delays.
func (p *Provider) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	if f := p.begin(opRunOnDemand, typ, nil, cb); f != nil {
		p.Provider.RunOnDemand(typ, zone, f.launched)
	}
}

// RequestSpot injects launch failures and completion delays.
func (p *Provider) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	if f := p.begin(opRequestSpot, typ, nil, cb); f != nil {
		p.Provider.RequestSpot(typ, zone, bid, f.launched)
	}
}

// settle closes a flight whose inner call was refused outright: err goes
// back to the caller synchronously and no callback will follow.
func (p *Provider) settle(f *flight, err error) error {
	if err != nil {
		p.release(f)
	}
	return err
}

// AttachVolume injects completion failures and delays. Injected failures
// wrap ErrBadState, the platform's organic class for attach-time races.
func (p *Provider) AttachVolume(vol cloud.VolumeID, inst cloud.InstanceID, cb cloud.Callback) error {
	f := p.begin(opAttachVolume, "", cb, nil)
	if f == nil {
		return nil
	}
	return p.settle(f, p.Provider.AttachVolume(vol, inst, f.done))
}

// DetachVolume injects completion failures and delays.
func (p *Provider) DetachVolume(vol cloud.VolumeID, cb cloud.Callback) error {
	f := p.begin(opDetachVolume, "", cb, nil)
	if f == nil {
		return nil
	}
	return p.settle(f, p.Provider.DetachVolume(vol, f.done))
}

// AssignIP injects completion failures and delays.
func (p *Provider) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	f := p.begin(opAssignIP, "", cb, nil)
	if f == nil {
		return nil
	}
	return p.settle(f, p.Provider.AssignIP(inst, addr, f.done))
}

// UnassignIP injects completion failures and delays.
func (p *Provider) UnassignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	f := p.begin(opUnassignIP, "", cb, nil)
	if f == nil {
		return nil
	}
	return p.settle(f, p.Provider.UnassignIP(inst, addr, f.done))
}

var _ cloud.Provider = (*Provider)(nil)
