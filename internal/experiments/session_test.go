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
	"repro/internal/workload"
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
// time: every change is a different simulation (or one the session never
// shares), so each runs; asking the cell itself again runs nothing.
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
	variants := map[string]func(*PolicyRunConfig){
		"policy name":      func(c *PolicyRunConfig) { c.Policy.Name = "1-Pool" },
		"mechanism":        func(c *PolicyRunConfig) { c.Mechanism = migration.XenLive },
		"vms":              func(c *PolicyRunConfig) { c.VMs++ },
		"horizon":          func(c *PolicyRunConfig) { c.Horizon += simkit.Day },
		"seed":             func(c *PolicyRunConfig) { c.Seed++ },
		"monitor interval": func(c *PolicyRunConfig) { c.MonitorInterval = 5 * simkit.Minute },
		"network slicing":  func(c *PolicyRunConfig) { c.NetworkAwareSlicing = true },
		"bidding":          func(c *PolicyRunConfig) { c.Bidding = core.MultipleBid{K: 2} },
		"destination":      func(c *PolicyRunConfig) { c.Destination = core.DestStaging },
		"hot spares":       func(c *PolicyRunConfig) { c.HotSpares = 1 },
		"stateless":        func(c *PolicyRunConfig) { c.Stateless = true },
		"predictive":       func(c *PolicyRunConfig) { c.Predictive = core.PredictiveConfig{Enabled: true} },
		"warning window":   func(c *PolicyRunConfig) { c.WarningWindow = 45 * simkit.Second },
		"billing":          func(c *PolicyRunConfig) { c.BillingIncrement = simkit.Hour },
		"workload":         func(c *PolicyRunConfig) { c.Workload = workload.SPECjbb() },
		"explicit traces":  func(c *PolicyRunConfig) { c.Traces = traces },
		"zones":            func(c *PolicyRunConfig) { c.Zones = cloud.DefaultZones() },
		"catalog":          func(c *PolicyRunConfig) { c.Catalog = cloud.DefaultCatalog() },
		"chaos":            func(c *PolicyRunConfig) { c.Chaos = &cloudchaos.Config{} },
		"arrivals":         func(c *PolicyRunConfig) { c.ArrivalOffsets = make([]simkit.Time, vms) },
		"downtimes":        func(c *PolicyRunConfig) { c.CollectVMDowntimes = true },
		"shards":           func(c *PolicyRunConfig) { c.Shards = 2 },
	}
	s := NewSession(0)
	specs := []RunSpec{{ID: "cell", Cfg: cell}}
	for name, change := range variants {
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
	// The cell again — spelled with the controller's default bid — is shared.
	again := cell
	again.Bidding = core.OnDemandBid{}
	if _, err := s.Sweep([]RunSpec{{ID: "again", Cfg: again}, {ID: "twice", Cfg: cell}}); err != nil {
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
