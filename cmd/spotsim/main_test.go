package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/spotmarket"
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

// TestRunParallelMatchesSequential requires byte-identical output of the
// policy matrix and of the ablations' one sweep for a fixed seed regardless
// of the sweep worker count.
func TestRunParallelMatchesSequential(t *testing.T) {
	for _, exp := range []string{"fig10", "ablations"} {
		var seq, par strings.Builder
		if err := run(&seq, runOpts{exp: exp, vms: 6, months: 0.5, seed: 42, parallel: 1}); err != nil {
			t.Fatal(err)
		}
		if err := run(&par, runOpts{exp: exp, vms: 6, months: 0.5, seed: 42, parallel: 4}); err != nil {
			t.Fatal(err)
		}
		if seq.String() != par.String() {
			t.Errorf("-exp %s: parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				exp, seq.String(), par.String())
		}
	}
}

// TestRunScenarios exercises `-exp scenarios`: the full library renders one
// SLO row per named scenario, and the campaign stays out of -exp all.
func TestRunScenarios(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scenarios", vms: 40, months: 6, parallel: 2}); err != nil {
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
	if err := run(&b, runOpts{exp: "scenarios", vms: 40, months: 6, scenarios: "storm, slow-api", parallel: 2}); err != nil {
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
	if err := run(&b, runOpts{exp: "scenarios", vms: 40, months: 6, scenarios: "maelstrom"}); err == nil {
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
	if err := run(&b, runOpts{exp: "scenarios", vms: 40, months: 6, scenarioFile: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "probe") {
		t.Errorf("spec-file scenario missing from report:\n%s", b.String())
	}
	if err := run(&b, runOpts{exp: "scenarios", vms: 40, months: 6, scenarioFile: path, scenarios: "storm"}); err == nil {
		t.Error("-scenario and -scenarios accepted together")
	}
	if err := run(&b, runOpts{exp: "scenarios", vms: 40, months: 6, scenarioFile: filepath.Join(t.TempDir(), "no.json")}); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestRunScaleSharded exercises `-exp scale -shards N`: the rung splits
// across N event loops and the capacity table carries the shard count.
func TestRunScaleSharded(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "scale", vms: 40, months: 0.1, seed: 42, parallel: 1, fleet: 64, shards: 4}); err != nil {
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
		{"zero months", func(o *runOpts) { o.exp, o.months = "headline", 0 }, "-months must be positive"},
		{"negative months", func(o *runOpts) { o.exp, o.months = "table3", -1 }, "-months must be positive"},
		{"zero months under traces", func(o *runOpts) { o.exp, o.months = "traces", 0 }, "-months must be positive"},
		{"months past virtual time", func(o *runOpts) { o.exp, o.months = "table3", 1e300 }, "-months must be positive and at most 3558"},
		{"infinite months", func(o *runOpts) { o.exp, o.months = "table3", math.Inf(1) }, "-months must be positive and at most 3558"},
		{"NaN months", func(o *runOpts) { o.exp, o.months = "headline", math.NaN() }, "-months must be positive and at most 3558"},
		{"months just past virtual time", func(o *runOpts) { o.exp, o.months = "table3", 3.6e9 }, "-months must be positive and at most 3558"},
		{"zero vms", func(o *runOpts) { o.exp, o.vms = "headline", 0 }, "-vms must be positive"},
		{"negative vms", func(o *runOpts) { o.exp, o.vms = "fig10", -4 }, "-vms must be positive"},
		{"replay under market", func(o *runOpts) { o.exp, o.replay = "market", "x.csv" }, "only applies to -exp fig6a"},
		{"replay under fig1", func(o *runOpts) { o.exp, o.replay = "fig1", "x.csv" }, "only applies to -exp fig6a"},
		{"replay under fig6c", func(o *runOpts) { o.exp, o.replay = "fig6c", "x.csv" }, "only applies to -exp fig6a"},
		{"missing replay file", func(o *runOpts) { o.exp, o.replay = "fig6b", "no/such.csv" }, "no/such.csv"},
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

// TestOutputDigests pins the stdout of the market and mechanism groups,
// each of their sections at the defaults, the -replay figures, the traces
// CSV and a month of the ablations. `-exp all` is pinned by bench's figures
// workload. Amd64-only for the reason the run digests are.
func TestOutputDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	const week = "../../internal/scenario/traces/m3medium_week.csv"
	for _, tc := range []struct {
		args   string
		mod    func(*runOpts)
		sha256 string
	}{
		{"-exp mechanisms -seed 1", func(o *runOpts) { o.exp, o.seed = "mechanisms", 1 }, "2a912ce4b5abfb57e01ae24f7a4f6f92e7348673fb5914ad01611c2f0bdac6ce"},
		{"-exp market", func(o *runOpts) { o.exp = "market" }, "b63e8a4af268b8a34161e3d33f74255a5e5c9fdde0964a1611912944e6739429"},
		{"-exp fig1", func(o *runOpts) { o.exp = "fig1" }, "8cb88d2fec131771de32d89964af5e5c95e555d7aa9a6dd7fa1bde7b8346d32b"},
		{"-exp fig6a", func(o *runOpts) { o.exp = "fig6a" }, "7dc1ec319a868d7de590e0b31d00fa56f5002684078cbd71ec752f5060515dde"},
		{"-exp fig6b", func(o *runOpts) { o.exp = "fig6b" }, "d1be7622500c23867c3dfed5547aca3448cdd914cefe0805e204000f01dd9d6d"},
		{"-exp fig6c", func(o *runOpts) { o.exp = "fig6c" }, "2ba6ed3353e56b7e01bb9c2f5c70b8ae685016c02e56440fb08ba49c5e34f3a5"},
		{"-exp fig6d", func(o *runOpts) { o.exp = "fig6d" }, "473713c610c3b6e6c07d78b7606604005de9088868a418e4b96e93133a17eb8d"},
		{"-exp bidcurve", func(o *runOpts) { o.exp = "bidcurve" }, "4adfab4c8ea71088d489e0db2b5649398d9ed9482a65bfa9edf9a5c0acc91c27"},
		{"-exp table1", func(o *runOpts) { o.exp = "table1" }, "36db5c4faee2b6785939fcbe4cf43788d02e8773e36e856b85b099997d21651c"},
		{"-exp fig7", func(o *runOpts) { o.exp = "fig7" }, "68ff97dd254db8417349bcb9005a126ae863566200438c541e20654f447843a3"},
		{"-exp fig8", func(o *runOpts) { o.exp = "fig8" }, "2d3d19dd35c7efa64eeea240abb5adeb4b912f92e11db7def1452c82384c066f"},
		{"-exp fig9", func(o *runOpts) { o.exp = "fig9" }, "a717683f2119ab926aee9266923554cb86f1b8140ba0ba936c42be2373164e84"},
		{"-exp fig6a -replay week", func(o *runOpts) { o.exp, o.replay = "fig6a", week }, "d7e612abc8db0e7a60e578738ca25433a40da3bac77530ffe149b7f007d7236f"},
		{"-exp fig6b -replay week", func(o *runOpts) { o.exp, o.replay = "fig6b", week }, "c67e60355ce3685ad2493b91385640a5e0fca7735c26b08889da9c29933547fa"},
		{"-exp traces", func(o *runOpts) { o.exp = "traces" }, "91ac9bdbc5e4340f6b7db780c500cb788a2a6ec07154c80af2f010e2931d8ec5"},
		{"-exp traces -months 1 -seed 7", func(o *runOpts) { o.exp, o.months, o.seed = "traces", 1, 7 }, "d39fef19ef8dfccb29370c93f3cd69731e42eeb4bff122320ba557f424b53bd5"},
		{"-exp ablations -months 1", func(o *runOpts) { o.exp, o.months = "ablations", 1 }, "c408d2ca88a3901fcec80514559433efe8a67797a68c116bd5655d8671efd7ce"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			o := runOpts{vms: 40, months: 6, seed: 42}
			tc.mod(&o)
			var b strings.Builder
			if err := run(&b, o); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(b.String()))
			if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
				t.Errorf("stdout sha256 = %s, want %s", got, tc.sha256)
			}
		})
	}
}

// runSections runs one -exp name at a one-month horizon and returns stdout.
func runSections(t *testing.T, exp string) string {
	t.Helper()
	var b strings.Builder
	if err := run(&b, runOpts{exp: exp, vms: 40, months: 1, seed: 42}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// checkSections fails unless out holds every heading in want and none in
// notWant.
func checkSections(t *testing.T, exp, out string, want, notWant []string) {
	t.Helper()
	for _, h := range want {
		if !strings.Contains(out, h) {
			t.Errorf("-exp %s missing %q", exp, h)
		}
	}
	for _, h := range notWant {
		if strings.Contains(out, h) {
			t.Errorf("-exp %s printed unrequested %q", exp, h)
		}
	}
}

var (
	marketHeadings     = []string{"Fig 1", "Fig 6a", "Fig 6b", "Fig 6c", "Fig 6d", "Bid curve"}
	mechanismsHeadings = []string{"Table 1", "Fig 7", "Fig 8", "Fig 9"}
)

// TestRunMarketGroup checks that -exp market prints every spot-market
// section and no mechanism section.
func TestRunMarketGroup(t *testing.T) {
	checkSections(t, "market", runSections(t, "market"), marketHeadings, mechanismsHeadings)
}

// TestRunMechanismsGroup checks that -exp mechanisms prints every
// mechanism section and no spot-market section.
func TestRunMechanismsGroup(t *testing.T) {
	checkSections(t, "mechanisms", runSections(t, "mechanisms"), mechanismsHeadings, marketHeadings)
}

// TestRunSingleMarketFigure checks that a market section's own name
// prints only that section.
func TestRunSingleMarketFigure(t *testing.T) {
	checkSections(t, "fig6b", runSections(t, "fig6b"), []string{"Fig 6b"},
		[]string{"Fig 1", "Fig 6a", "Fig 6c", "Fig 6d", "Bid curve", "Table 1"})
}

// TestRunSingleMechanism checks that a mechanism section's own name prints
// only that section.
func TestRunSingleMechanism(t *testing.T) {
	checkSections(t, "fig9", runSections(t, "fig9"), []string{"Fig 9"},
		[]string{"Table 1", "Fig 7", "Fig 8", "Fig 6a"})
}

// checkUnknown fails unless every name is rejected as an unknown
// experiment before anything is printed.
func checkUnknown(t *testing.T, names ...string) {
	t.Helper()
	for _, exp := range names {
		var b strings.Builder
		err := run(&b, runOpts{exp: exp, vms: 40, months: 1, seed: 42})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %q: err = %v, want unknown experiment", exp, err)
		}
		if b.Len() > 0 {
			t.Errorf("-exp %q: rejected run still printed output:\n%s", exp, b.String())
		}
	}
}

// TestRunUnknownMarketFigure checks that bare figure numbers and near
// misses of the market names are rejected, not run as some other section.
func TestRunUnknownMarketFigure(t *testing.T) {
	checkUnknown(t, "1", "6b", "99", "fig6", "fig6e", "bid", "Fig1")
}

// TestRunUnknownMechanism checks that near misses of the mechanism names
// are rejected, not run as some other section.
func TestRunUnknownMechanism(t *testing.T) {
	checkUnknown(t, "table2", "fig13", "Fig9", "mechanism", "fig9,fig8")
}

// TestRunTracesValidation checks -exp traces' flag checks: a non-positive
// -months is an error naming the flag, flags it would ignore are errors,
// and neither prints a partial CSV.
func TestRunTracesValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mod     func(*runOpts)
		wantErr string
	}{
		{"zero months", func(o *runOpts) { o.months = 0 }, "-months must be positive"},
		{"negative months", func(o *runOpts) { o.months = -1 }, "-months must be positive"},
		{"replay", func(o *runOpts) { o.replay = "x.csv" }, "only applies to -exp fig6a"},
		{"shards", func(o *runOpts) { o.shards = 4 }, "only apply to -exp scale"},
	} {
		o := runOpts{exp: "traces", vms: 40, months: 1, seed: 42}
		tc.mod(&o)
		var b strings.Builder
		err := run(&b, o)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		if b.Len() > 0 {
			t.Errorf("%s: rejected run still printed output:\n%s", tc.name, b.String())
		}
	}
	var b strings.Builder
	if err := run(&b, runOpts{exp: "traces", vms: 40, months: 0.1, seed: 42}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "type,zone,offset_seconds,price_usd_per_hr\n") {
		t.Errorf("-exp traces output does not start with the CSV header:\n%.200s", b.String())
	}
}

// TestLoadTracesBothSchemas replays this repo's CSV, an AWS export with its
// header and one without: the first record, not a fixed header, picks the
// parser.
func TestLoadTracesBothSchemas(t *testing.T) {
	dir := t.TempDir()
	const awsRows = "2014-04-01T00:00:00Z,m3.medium,us-east-1a,0.0081\n2014-04-01T01:00:00Z,m3.medium,us-east-1a,0.0090\n"
	for _, tc := range []struct {
		name, data, market string
	}{
		{"repo.csv", "type,zone,offset_seconds,price_usd_per_hr\nm3.medium,zone-a,0,0.01\nm3.medium,zone-a,3600,0.02\n", "zone-a"},
		{"aws.csv", "timestamp,instance_type,availability_zone,price\n" + awsRows, "us-east-1a"},
		{"aws-headerless.csv", awsRows, "us-east-1a"},
	} {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		set, err := loadTraces(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(set) != 1 {
			t.Fatalf("%s: %d markets, want 1", tc.name, len(set))
		}
		// Replayed figures render without the synthetic generator.
		for _, exp := range []string{"fig6a", "fig6b"} {
			var b strings.Builder
			if err := run(&b, runOpts{exp: exp, vms: 40, months: 6, replay: path}); err != nil {
				t.Fatalf("%s -exp %s: %v", tc.name, exp, err)
			}
			if exp == "fig6a" && !strings.Contains(b.String(), tc.market) {
				t.Errorf("%s: replayed market missing from output:\n%s", tc.name, b.String())
			}
		}
	}
	for name, data := range map[string]string{"empty.csv": "", "garbage.csv": "a,b\n1,2\n"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadTraces(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := loadTraces(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunTracesReplayable checks that -exp traces writes CSV that reads back
// as the four m3 markets and replays through -replay.
func TestRunTracesReplayable(t *testing.T) {
	var b strings.Builder
	if err := run(&b, runOpts{exp: "traces", vms: 40, months: 1, seed: 7}); err != nil {
		t.Fatal(err)
	}
	set, err := spotmarket.ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4 {
		t.Fatalf("markets = %d, want 4", len(set))
	}
	for _, k := range set.Keys() {
		if set[k].Len() == 0 {
			t.Errorf("market %v empty", k)
		}
	}
	path := filepath.Join(t.TempDir(), "traces.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var fig strings.Builder
	if err := run(&fig, runOpts{exp: "fig6a", vms: 40, months: 1, replay: path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fig.String(), "m3.2xlarge") {
		t.Errorf("replayed figure 6a missing a market:\n%s", fig.String())
	}
}
