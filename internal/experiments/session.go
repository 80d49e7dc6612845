package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// Session runs experiment sections over one worker bound, one set of default
// traces per (horizon, seed) and one result cache, so a simulation several
// sections ask for runs once: Table 3's pools and the headline are cells of
// the policy matrix, and the control arms of the bidding, stateless,
// predictive and billing ablations are matrix cells too. spotsim holds one
// for a whole invocation; each package-level entry point (PolicyMatrix,
// Table3, …) is a fresh session, so calls stay independent of each other.
// Results handed out twice are the same values: treat them as read-only. A
// Session is not safe for concurrent use.
type Session struct {
	workers int
	traces  map[traceKey]spotmarket.Set
	results map[runKey]PolicyRunResult
	// factory is the policy factory each shared run's policy name is bound
	// to: a name is part of the cache key, so one name may not stand for
	// two policies.
	factory map[string]uintptr
	// runs counts the simulations the session has run.
	runs int
}

// NewSession returns an empty session whose sweeps run at most workers
// simulations at once (<= 0 means GOMAXPROCS; 1 runs them in order).
func NewSession(workers int) *Session {
	return &Session{
		workers: workers,
		traces:  map[traceKey]spotmarket.Set{},
		results: map[runKey]PolicyRunResult{},
		factory: map[string]uintptr{},
	}
}

// runKey is every PolicyRunConfig field that reaches the simulation, for a
// run on the default traces of (horizon, seed): two specs with equal keys
// are the same simulation.
type runKey struct {
	policy      string
	mechanism   migration.Mechanism
	vms         int
	horizon     simkit.Time
	seed        int64
	monitor     simkit.Time
	netAware    bool
	bidding     core.BiddingPolicy
	destination core.DestinationPolicy
	hotSpares   int
	stateless   bool
	predictive  bool
	warning     simkit.Time
	billing     simkit.Time
}

// shareKey returns the cache key of a defaulted spec, or ok=false for a run
// the session does not share: one on its own traces, catalog or zones, with
// chaos, an arrival curve, per-VM downtimes or shards.
func (s *Session) shareKey(cfg PolicyRunConfig) (key runKey, ok bool, err error) {
	if cfg.Traces != nil || cfg.Catalog != nil || cfg.Zones != nil || cfg.Chaos != nil ||
		len(cfg.ArrivalOffsets) > 0 || cfg.CollectVMDowntimes || cfg.Shards > 1 ||
		!reflect.TypeOf(cfg.Bidding).Comparable() {
		return runKey{}, false, nil
	}
	fn := reflect.ValueOf(cfg.Policy.New).Pointer()
	if bound, seen := s.factory[cfg.Policy.Name]; seen && bound != fn {
		return runKey{}, false, fmt.Errorf("experiments: policy name %q is bound to two factories", cfg.Policy.Name)
	}
	s.factory[cfg.Policy.Name] = fn
	return runKey{
		policy:      cfg.Policy.Name,
		mechanism:   cfg.Mechanism,
		vms:         cfg.VMs,
		horizon:     cfg.Horizon,
		seed:        cfg.Seed,
		monitor:     cfg.MonitorInterval,
		netAware:    cfg.NetworkAwareSlicing,
		bidding:     cfg.Bidding,
		destination: cfg.Destination,
		hotSpares:   cfg.HotSpares,
		stateless:   cfg.Stateless,
		predictive:  cfg.Predictive,
		warning:     cfg.WarningWindow,
		billing:     cfg.BillingIncrement,
	}, true, nil
}

// defaultTraces returns the default trace set of (horizon, seed), generated
// on the session's first ask with its worker budget.
func (s *Session) defaultTraces(horizon simkit.Time, seed int64) (spotmarket.Set, error) {
	key := traceKey{horizon: horizon, seed: seed}
	set, ok := s.traces[key]
	if !ok {
		var err error
		if set, err = EvalTraces(horizon, seed, s.workers); err != nil {
			return nil, fmt.Errorf("experiments: shared traces for %v/seed=%d: %w", horizon, seed, err)
		}
		s.traces[key] = set
	}
	return set, nil
}

// Sweep runs every spec through RunPolicy on the session's worker pool and
// returns the results in spec order. A spec that is the same simulation as
// one the session already ran, or as an earlier spec of this sweep, is not
// run again: it gets that run's result. Errors are fail-fast and joined as
// *RunError in spec order (see forEachIndex).
func (s *Session) Sweep(specs []RunSpec) ([]PolicyRunResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	results := make([]PolicyRunResult, len(specs))
	cfgs := make([]PolicyRunConfig, len(specs))
	same := make([]int, len(specs)) // the spec whose run i's result is, or -1
	first := map[runKey]int{}
	var todo []int
	for i, spec := range specs {
		cfg := spec.Cfg.withDefaults()
		key, shared, err := s.shareKey(cfg)
		if err != nil {
			return nil, &RunError{ID: spec.ID, Err: err}
		}
		same[i] = -1
		if shared {
			if res, done := s.results[key]; done {
				results[i] = res
				continue
			}
			if j, dup := first[key]; dup {
				same[i] = j
				continue
			}
			first[key] = i
		}
		if cfg.Traces == nil {
			if cfg.Traces, err = s.defaultTraces(cfg.Horizon, cfg.Seed); err != nil {
				return nil, err
			}
		}
		cfgs[i] = cfg
		todo = append(todo, i)
	}
	err := forEachIndex(len(todo), s.workers, func(n int) error {
		i := todo[n]
		res, err := RunPolicy(cfgs[i])
		if err != nil {
			return &RunError{ID: specs[i].ID, Err: err}
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.runs += len(todo)
	for key, i := range first {
		s.results[key] = results[i]
	}
	for i, j := range same {
		if j >= 0 {
			results[i] = results[j]
		}
	}
	return results, nil
}
