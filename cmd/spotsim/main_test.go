package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunHeadlineAndTable3(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "headline", vms: 8, months: 0.5, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "savings:") {
		t.Error("headline output missing")
	}
	b.Reset()
	if err := run(&b, runOpts{exp: "table3", vms: 8, months: 0.5, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table 3") {
		t.Error("table 3 output missing")
	}
}

func TestRunFigures(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "fig11", vms: 6, months: 0.5, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Fig 11") {
		t.Error("fig 11 missing")
	}
	if strings.Contains(out, "Fig 10") {
		t.Error("unrequested figure printed")
	}
}

// TestRunMetrics pins the -metrics snapshot table: it must render the
// headline run's registry with live migration, revocation and flush series.
func TestRunMetrics(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "headline", vms: 8, months: 0.5, seed: 42, metrics: true, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Metrics snapshot") {
		t.Fatal("metrics snapshot missing")
	}
	for _, name := range []string{
		"spotcheck_migrations_started_total",
		"spotcheck_revocation_warnings_total",
		"spotcheck_flush_residue_mb",
		"spotcheck_cloudsim_price_ticks_total",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics snapshot missing series %s", name)
		}
	}
}

// TestRunMetricsOnly verifies -metrics works without a named experiment.
func TestRunMetricsOnly(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "fig11", vms: 6, months: 0.5, seed: 42, metrics: true, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Metrics snapshot") {
		t.Error("metrics snapshot missing when combined with a figure")
	}
}

// TestRunScale exercises `-exp scale -fleet N`: a single-rung ladder must
// render the capacity table, and scale must stay out of -exp all.
func TestRunScale(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scale", vms: 40, months: 0.1, seed: 42, parallel: 1, fleet: 60}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Fleet capacity") || !strings.Contains(out, "ns/vm-hour") {
		t.Errorf("capacity table missing from scale output:\n%s", out)
	}
	if !strings.Contains(out, "60") {
		t.Errorf("-fleet 60 rung missing from output:\n%s", out)
	}
	b.Reset()
	if err := run(&b, runOpts{exp: "fig11", vms: 6, months: 0.5, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "Fleet capacity") {
		t.Error("scale ran without being requested")
	}
}

// TestRunCatalog exercises `-exp catalog`: the generated-catalog comparison
// must render all four policy arms, including the catalog-wide
// cheapest-compatible acquisition.
func TestRunCatalog(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "catalog", vms: 4, months: 0.2, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Catalog comparison") {
		t.Errorf("catalog table missing from output:\n%s", out)
	}
	for _, policy := range []string{"1P-M", "4P-ED", "greedy-4pool", "cheapest-compatible"} {
		if !strings.Contains(out, policy) {
			t.Errorf("policy %s missing from catalog output", policy)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "nope", vms: 8, months: 0.5, seed: 42, parallel: 1}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunUnknownWithMetrics pins the regression where -metrics suppressed
// the unknown-experiment check: `-exp fig13 -metrics` quietly ran the
// headline simulation instead of erroring on the typo.
func TestRunUnknownWithMetrics(t *testing.T) {
	var b strings.Builder
	err := run(&b, runOpts{exp: "fig13", vms: 8, months: 0.5, seed: 42, metrics: true, parallel: 1})
	if err == nil {
		t.Fatal("unknown experiment accepted when -metrics is set")
	}
	if !strings.Contains(err.Error(), "fig13") {
		t.Errorf("error %q does not name the bad experiment", err)
	}
	if b.Len() != 0 {
		t.Errorf("unknown experiment still produced output:\n%s", b.String())
	}
}

// TestRunParallelMatchesSequential requires byte-identical figure output
// for a fixed seed regardless of the sweep worker count.
func TestRunParallelMatchesSequential(t *testing.T) {
	var seq, par strings.Builder
	if err := run(&seq, runOpts{exp: "fig10", vms: 6, months: 0.5, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if err := run(&par, runOpts{exp: "fig10", vms: 6, months: 0.5, seed: 42, parallel: 4}); err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Errorf("parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seq.String(), par.String())
	}
}

// TestRunScenarios exercises `-exp scenarios`: the full library renders one
// SLO row per named scenario, and the campaign stays out of -exp all.
func TestRunScenarios(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scenarios", parallel: 2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "SLO report") {
		t.Fatalf("scenario report missing:\n%s", out)
	}
	for _, name := range []string{"diurnal", "storm", "price-war", "slow-api", "trace-replay"} {
		if !strings.Contains(out, name) {
			t.Errorf("scenario %s missing from report", name)
		}
	}
	b.Reset()
	if err := run(&b, runOpts{exp: "fig11", vms: 6, months: 0.5, seed: 42, parallel: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "SLO report") {
		t.Error("scenarios ran without being requested")
	}
}

// TestRunScenariosSubset pins the -scenarios comma list (the CI smoke path).
func TestRunScenariosSubset(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scenarios", scenarios: "storm, slow-api", parallel: 2}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"storm", "slow-api"} {
		if !strings.Contains(out, name) {
			t.Errorf("scenario %s missing from subset report", name)
		}
	}
	if strings.Contains(out, "price-war") {
		t.Error("unrequested scenario ran")
	}
	if err := run(&b, runOpts{exp: "scenarios", scenarios: "maelstrom"}); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

// TestRunScenarioFile exercises the -scenario JSON loader end to end.
func TestRunScenarioFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "probe.json")
	spec := `{"name":"probe","vms":6,"hours":48,"seed":7,"policy":"1P-M",
		"arrival":{"shape":"burst","window_hours":6},
		"faults":{"fail_prob":0.2,"extra_latency_seconds":20}}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scenarios", scenarioFile: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "probe") {
		t.Errorf("spec-file scenario missing from report:\n%s", b.String())
	}
	if err := run(&b, runOpts{exp: "scenarios", scenarioFile: path, scenarios: "storm"}); err == nil {
		t.Error("-scenario and -scenarios accepted together")
	}
	if err := run(&b, runOpts{exp: "scenarios", scenarioFile: filepath.Join(t.TempDir(), "no.json")}); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestRunScaleSharded exercises `-exp scale -shards N`: the rung splits
// across N event loops and the capacity table carries the shard count.
func TestRunScaleSharded(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scale", months: 0.1, seed: 42, parallel: 1, fleet: 64, shards: 4}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Fleet capacity") || !strings.Contains(out, "shards") {
		t.Errorf("sharded capacity table missing:\n%s", out)
	}
	if !strings.Contains(out, "64") || !strings.Contains(out, "4") {
		t.Errorf("sharded rung missing from output:\n%s", out)
	}
}

// TestRunRejectsIgnoredFlags pins that a flag only one experiment reads is
// an error under any other -exp (it used to be dropped without a word:
// `-exp all -shards 4` printed unsharded figures), and that -shards 0 and 1
// are the same one-shard run.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	base := runOpts{vms: 4, months: 0.1, seed: 42, parallel: 1}
	for _, tc := range []struct {
		name    string
		mod     func(*runOpts)
		wantErr string // empty: must succeed
	}{
		{"shards without scale", func(o *runOpts) { o.exp, o.shards = "all", 4 }, "only apply to -exp scale"},
		{"shards=1 without scale", func(o *runOpts) { o.exp, o.shards = "headline", 1 }, "only apply to -exp scale"},
		{"fleet without scale", func(o *runOpts) { o.exp, o.fleet = "fig10", 100 }, "only apply to -exp scale"},
		{"fleet under scenarios", func(o *runOpts) { o.exp, o.fleet = "scenarios", 100 }, "only apply to -exp scale"},
		{"scenarios without scenarios", func(o *runOpts) { o.exp, o.scenarios = "all", "storm" }, "only apply to -exp scenarios"},
		{"scenario file without scenarios", func(o *runOpts) { o.exp, o.scenarioFile = "scale", "x.json" }, "only apply to -exp scenarios"},
		{"unknown exp wins", func(o *runOpts) { o.exp, o.shards = "nope", 4 }, "unknown experiment"},
		{"scale with shards=0", func(o *runOpts) { o.exp, o.fleet, o.shards = "scale", 20, 0 }, ""},
		{"scale with shards=1", func(o *runOpts) { o.exp, o.fleet, o.shards = "scale", 20, 1 }, ""},
	} {
		o := base
		tc.mod(&o)
		var b strings.Builder
		err := run(&b, o)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		case tc.wantErr != "" && b.Len() > 0:
			t.Errorf("%s: rejected run still printed output:\n%s", tc.name, b.String())
		case tc.wantErr == "":
			// Both spellings of "one shard" render the same shards column.
			if fields := strings.Fields(lastLine(b.String())); len(fields) < 2 || fields[0] != "20" || fields[1] != "1" {
				t.Errorf("%s: capacity row = %q, want 20 VMs on 1 shard", tc.name, lastLine(b.String()))
			}
		}
	}
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// TestRunProfiles exercises -cpuprofile/-memprofile: both files must come
// out non-empty, and an unwritable path must error rather than silently
// dropping the profile.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var b strings.Builder
	if err := run(&b, runOpts{exp: "headline", vms: 8, months: 0.5, seed: 42, parallel: 1,
		cpuprofile: cpu, memprofile: mem}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	err := run(&b, runOpts{exp: "headline", vms: 8, months: 0.5, seed: 42, parallel: 1,
		cpuprofile: filepath.Join(dir, "no/such/dir/cpu.pprof")})
	if err == nil {
		t.Error("unwritable cpuprofile path accepted")
	}
}
