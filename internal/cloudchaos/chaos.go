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

// injectableOps are every operation that can fail, in label order.
var injectableOps = []string{
	OpRunOnDemand, OpRequestSpot,
	OpAttachVolume, OpDetachVolume,
	OpAssignIP, OpUnassignIP,
}

// Provider wraps an inner provider with fault injection.
type Provider struct {
	cloud.Provider
	sched *simkit.Scheduler
	cfg   Config
	rng   *rand.Rand
	met   map[string]*obs.Counter

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
	if cfg.Metrics != nil {
		cfg.Metrics.Describe(metricInjected, "chaos-injected operation failures by operation")
		p.met = make(map[string]*obs.Counter, len(injectableOps))
		for _, op := range injectableOps {
			p.met[op] = cfg.Metrics.Counter(metricInjected, obs.L("op", op))
		}
	}
	return p
}

// delay postpones fn by the injected extra latency.
func (p *Provider) delay(label string, fn func()) {
	if p.cfg.ExtraLatency <= 0 {
		fn()
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
	p.sched.After(d, label, fn)
}

// inject decides whether a fault fires for the given operation, counting
// it when it does.
func (p *Provider) inject(op string) bool {
	if p.cfg.FailProb > 0 && p.rng.Float64() < p.cfg.FailProb {
		p.Injected++
		if c := p.met[op]; c != nil {
			c.Inc()
		}
		return true
	}
	return false
}

// RunOnDemand injects launch failures and completion delays.
func (p *Provider) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	if p.inject(OpRunOnDemand) {
		p.delay("od-fail", func() {
			cb(nil, fmt.Errorf("launch %s: %w: %w", typ, ErrInjected, cloud.ErrCapacity))
		})
		return
	}
	p.Provider.RunOnDemand(typ, zone, func(inst *cloud.Instance, err error) {
		p.delay("od-launch", func() { cb(inst, err) })
	})
}

// RequestSpot injects launch failures and completion delays.
func (p *Provider) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	if p.inject(OpRequestSpot) {
		p.delay("spot-fail", func() {
			cb(nil, fmt.Errorf("spot %s: %w: %w", typ, ErrInjected, cloud.ErrCapacity))
		})
		return
	}
	p.Provider.RequestSpot(typ, zone, bid, func(inst *cloud.Instance, err error) {
		p.delay("spot-launch", func() { cb(inst, err) })
	})
}

// injectAsync wraps one Callback-style asynchronous operation with both
// fault classes: an injected failure delivered through the callback, and
// the usual completion delay otherwise.
//
// Double-callback guard: when a fault fires the inner provider is never
// invoked — the operation genuinely does not happen on the platform — so
// exactly one of {synchronous error, injected failure callback, inner
// completion callback} reaches the caller. Injecting by wrapping the inner
// callback instead would race the inner provider's synchronous-error path:
// the caller would observe both the returned error and a scheduled failure
// callback for one logical operation, corrupting retry bookkeeping (e.g.
// core.abortInstall unwinding the same reservation twice).
func (p *Provider) injectAsync(op, label string, organic error, cb cloud.Callback, call func(cloud.Callback) error) error {
	if p.inject(op) {
		p.delay(label+"-fail", func() {
			if cb != nil {
				cb(fmt.Errorf("%s: %w: %w", label, ErrInjected, organic))
			}
		})
		return nil
	}
	return call(func(err error) {
		p.delay(label, func() {
			if cb != nil {
				cb(err)
			}
		})
	})
}

// AttachVolume injects completion failures and delays. Injected failures
// wrap ErrBadState, the platform's organic class for attach-time races.
func (p *Provider) AttachVolume(vol cloud.VolumeID, inst cloud.InstanceID, cb cloud.Callback) error {
	return p.injectAsync(OpAttachVolume, "attach-vol", cloud.ErrBadState, cb, func(inner cloud.Callback) error {
		return p.Provider.AttachVolume(vol, inst, inner)
	})
}

// DetachVolume injects completion failures and delays.
func (p *Provider) DetachVolume(vol cloud.VolumeID, cb cloud.Callback) error {
	return p.injectAsync(OpDetachVolume, "detach-vol", cloud.ErrBadState, cb, func(inner cloud.Callback) error {
		return p.Provider.DetachVolume(vol, inner)
	})
}

// AssignIP injects completion failures and delays.
func (p *Provider) AssignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	return p.injectAsync(OpAssignIP, "assign-ip", cloud.ErrBadState, cb, func(inner cloud.Callback) error {
		return p.Provider.AssignIP(inst, addr, inner)
	})
}

// UnassignIP injects completion failures and delays.
func (p *Provider) UnassignIP(inst cloud.InstanceID, addr cloud.Addr, cb cloud.Callback) error {
	return p.injectAsync(OpUnassignIP, "unassign-ip", cloud.ErrBadState, cb, func(inner cloud.Callback) error {
		return p.Provider.UnassignIP(inst, addr, inner)
	})
}

var _ cloud.Provider = (*Provider)(nil)
