package experiments

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudchaos"
	"repro/internal/core"
	"repro/internal/migration"
	"repro/internal/simkit"
)

// TestSessionRunsEachCellOnce pins what one spotsim invocation simulates:
// after the policy matrix, Table 3, the headline, the ablations and the
// catalog comparison add exactly 19 runs (8 of their 27 are matrix cells),
// and every section's result is deep-equal to a fresh package-level call.
func TestSessionRunsEachCellOnce(t *testing.T) {
	const vms, seed = 8, 42
	horizon := 10 * simkit.Day
	s := NewSession(1)
	matrix, err := s.PolicyMatrix(vms, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if s.runs != 20 {
		t.Fatalf("the matrix ran %d simulations, want 20", s.runs)
	}
	t3, err := s.Table3(vms, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	head, err := s.RunHeadline(vms, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if s.runs != 20 {
		t.Errorf("Table 3 and the headline ran %d new simulations, want 0", s.runs-20)
	}
	abl, err := s.RenderAblations(vms, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := s.CatalogComparison(vms, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.runs - 20; got != 19 {
		t.Errorf("the four sections after the matrix ran %d simulations, want 19", got)
	}

	freshMatrix, err := PolicyMatrix(vms, horizon, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	freshT3, err := Table3(vms, horizon, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	freshHead, err := RunHeadline(vms, horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	freshAbl, err := RenderAblations(vms, horizon, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	freshCat, err := CatalogComparison(vms, horizon, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]any{
		"matrix":   {matrix, freshMatrix},
		"table 3":  {t3, freshT3},
		"headline": {head, freshHead},
		"ablation": {abl, freshAbl},
		"catalog":  {cat, freshCat},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s from the session differs from a fresh package-level call", name)
		}
	}
	if t3[0].Policy != "1-Pool" || t3[2].Policy != "4-Pool" {
		t.Errorf("Table 3 rows are labelled %q..%q", t3[0].Policy, t3[2].Policy)
	}
}

// TestSessionSharesOnlyTheSameRun changes one field of a matrix cell at a
// time, every PolicyRunConfig field by reflection: a change that reaches the
// simulation (or one the session never shares) runs, and asking for the
// cell again, in any spelling that does not, runs nothing.
func TestSessionSharesOnlyTheSameRun(t *testing.T) {
	const vms, seed = 4, 9
	horizon := 2 * simkit.Day
	cell := PolicyRunConfig{
		Policy:    NamedPolicyFactories()[0],
		Mechanism: migration.SpotCheckLazy,
		VMs:       vms,
		Horizon:   horizon,
		Seed:      seed,
	}
	traces, err := EvalTraces(horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	// differs changes each PolicyRunConfig field that reaches the
	// simulation, so each is a different run; shares changes a field so the
	// run stays the cell's. Every field needs a row in one of them: a field
	// runKey misses would let two different runs share one cached result.
	differs := map[string]func(*PolicyRunConfig){
		"Policy":              func(c *PolicyRunConfig) { c.Policy.Name = "1-Pool" },
		"Mechanism":           func(c *PolicyRunConfig) { c.Mechanism = migration.XenLive },
		"VMs":                 func(c *PolicyRunConfig) { c.VMs++ },
		"Horizon":             func(c *PolicyRunConfig) { c.Horizon += simkit.Day },
		"Seed":                func(c *PolicyRunConfig) { c.Seed++ },
		"MonitorInterval":     func(c *PolicyRunConfig) { c.MonitorInterval = 5 * simkit.Minute },
		"NetworkAwareSlicing": func(c *PolicyRunConfig) { c.NetworkAwareSlicing = true },
		"Bidding":             func(c *PolicyRunConfig) { c.Bidding = core.MultipleBid{K: 2} },
		"Destination":         func(c *PolicyRunConfig) { c.Destination = core.DestStaging },
		"HotSpares":           func(c *PolicyRunConfig) { c.HotSpares = 1 },
		"Stateless":           func(c *PolicyRunConfig) { c.Stateless = true },
		"Predictive":          func(c *PolicyRunConfig) { c.Predictive = true },
		"WarningWindow":       func(c *PolicyRunConfig) { c.WarningWindow = 45 * simkit.Second },
		"BillingIncrement":    func(c *PolicyRunConfig) { c.BillingIncrement = simkit.Hour },
		"Traces":              func(c *PolicyRunConfig) { c.Traces = traces },
		"Zones":               func(c *PolicyRunConfig) { c.Zones = cloud.DefaultZones() },
		"Catalog":             func(c *PolicyRunConfig) { c.Catalog = cloud.DefaultCatalog() },
		"Chaos":               func(c *PolicyRunConfig) { c.Chaos = &cloudchaos.Config{} },
		"ArrivalOffsets":      func(c *PolicyRunConfig) { c.ArrivalOffsets = make([]simkit.Time, vms) },
		"CollectVMDowntimes":  func(c *PolicyRunConfig) { c.CollectVMDowntimes = true },
		"Shards":              func(c *PolicyRunConfig) { c.Shards = 2 },
	}
	shares := map[string]func(*PolicyRunConfig){
		// The controller's default bid, spelled out.
		"Bidding": func(c *PolicyRunConfig) { c.Bidding = core.OnDemandBid{} },
		// Concurrency only: an unsharded run ignores it, and a sharded one
		// is byte-identical at every worker count (and never shared).
		"ShardWorkers": func(c *PolicyRunConfig) { c.ShardWorkers = 1 },
		// A dead field kept only so bench/ compiles; it changes nothing.
		"FleetMode": func(c *PolicyRunConfig) { c.FleetMode = true },
	}
	fields := reflect.TypeOf(PolicyRunConfig{})
	for i := 0; i < fields.NumField(); i++ {
		if name := fields.Field(i).Name; differs[name] == nil && shares[name] == nil {
			t.Errorf("PolicyRunConfig.%s has no row: a field that reaches the simulation goes in runKey and differs, any other in shares", name)
		}
	}
	s := NewSession(0)
	specs := []RunSpec{{ID: "cell", Cfg: cell}}
	for name, change := range differs {
		cfg := cell
		change(&cfg)
		specs = append(specs, RunSpec{ID: name, Cfg: cfg})
	}
	if _, err := s.Sweep(specs); err != nil {
		t.Fatal(err)
	}
	if s.runs != len(specs) {
		t.Errorf("%d specs, each a different simulation, ran %d", len(specs), s.runs)
	}
	// The cell again, and each spelling of it shares says is the same run.
	same := []RunSpec{{ID: "twice", Cfg: cell}}
	for name, change := range shares {
		cfg := cell
		change(&cfg)
		same = append(same, RunSpec{ID: name, Cfg: cfg})
	}
	if _, err := s.Sweep(same); err != nil {
		t.Fatal(err)
	}
	if s.runs != len(specs) {
		t.Errorf("asking for the cell again ran %d more simulations", s.runs-len(specs))
	}
	// A name already bound to one policy factory cannot name another.
	clash := cell
	clash.Policy.New = core.Policy4PED
	_, err = s.Sweep([]RunSpec{{ID: "clash", Cfg: clash}})
	var runErr *RunError
	if !errors.As(err, &runErr) || runErr.ID != "clash" {
		t.Errorf("a policy name bound to two factories gave %v, want a RunError for the spec", err)
	}
}
