package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by (0 for per-layer
// metrics, which have none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place that names the workloads and
// metrics. The benchmark reads it instead of repeating the lists in code,
// so the file and the emitted names cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// iterResult is what one iteration of a workload reports: the four host
// measurements every workload has, the simulated VM-hours they are
// normalised by, the simulated statistics the correctness checks compare,
// and whatever per-layer numbers the iteration produced.
type iterResult struct {
	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	VMHours   float64 `json:"vm_hours"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Sim holds the deterministic simulated statistics. Keys starting with
	// "usd." are dollars (compared to 1e-9 relative); every other key is a
	// count, a duration or a ratio of integer durations (compared exactly).
	Sim map[string]float64 `json:"sim,omitempty"`
	// Layer holds per-layer metrics by their BENCHMARK.json names.
	Layer map[string]float64 `json:"layer,omitempty"`
	// Problems lists correctness checks the iteration itself failed.
	Problems []string `json:"problems,omitempty"`
}

func (r *iterResult) setLayer(name string, v float64) {
	if r.Layer == nil {
		r.Layer = map[string]float64{}
	}
	r.Layer[name] = v
}

func (r *iterResult) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// endToEnd derives the end-to-end metrics from the host measurements.
func (r iterResult) endToEnd() map[string]float64 {
	m := map[string]float64{
		"wall_s":      r.WallS,
		"setup_s":     r.SetupS,
		"cpu_s":       r.CPUS,
		"peak_rss_mb": r.PeakRSSMB,
	}
	if r.VMHours > 0 {
		m["ns_per_vm_hour"] = r.WallS * 1e9 / r.VMHours
	}
	return m
}

// simFromReport flattens the fields of a controller report that a pure
// speed-up must leave untouched.
func simFromReport(rep core.Report) map[string]float64 {
	return map[string]float64{
		"usd.total_cost":        float64(rep.TotalCost),
		"usd.cost_per_vm_hour":  float64(rep.CostPerVMHour),
		"vm_hours":              rep.VMHours,
		"availability":          rep.Availability,
		"degraded_fraction":     rep.DegradedFraction,
		"down_ns":               float64(rep.TotalDown),
		"degraded_ns":           float64(rep.TotalDegraded),
		"max_down_spell_ns":     float64(rep.MaxDownSpell),
		"tcp_breaks":            float64(rep.TCPBreaks),
		"vms_created":           float64(rep.Stats.VMsCreated),
		"vms_released":          float64(rep.Stats.VMsReleased),
		"migrations":            float64(rep.Stats.Migrations),
		"revocations":           float64(rep.Stats.Revocations),
		"return_migrations":     float64(rep.Stats.ReturnMigrations),
		"vms_lost_memory_state": float64(rep.Stats.VMsLostMemoryState),
		"hosts_acquired":        float64(rep.Stats.HostsAcquired),
		"destination_failures":  float64(rep.Stats.DestinationFailures),
		"max_storm":             float64(rep.MaxStorm),
		"backup_servers":        float64(rep.BackupServers),
		"backup_vms_max":        float64(rep.BackupVMsMax),
		"billing_errors":        float64(rep.BillingErrors),
	}
}

// countLayers maps the per-layer metrics that are exact end-of-run counts
// (source S in bench/README.md) to the report statistic each one is; over a
// campaign's cells they add up.
var countLayers = map[string]string{
	"core.migrations":           "migrations",
	"core.revocations":          "revocations",
	"core.return_migrations":    "return_migrations",
	"core.hosts_acquired":       "hosts_acquired",
	"core.destination_failures": "destination_failures",
	"backup.servers":            "backup_servers",
}

// layerFromSim fills the count metrics and the simulated headline numbers
// from a single report's statistics.
func (r *iterResult) layerFromSim() {
	s := r.Sim
	r.setLayer("sim_cost_per_vm_hour", s["usd.cost_per_vm_hour"])
	r.setLayer("sim_unavail_pct", 100*(1-s["availability"]))
	r.setLayer("sim_degraded_pct", 100*s["degraded_fraction"])
	for layer, key := range countLayers {
		r.setLayer(layer, s[key])
	}
	r.setLayer("backup.max_fanin", s["backup_vms_max"])
	if r.Attempted > 0 {
		r.setLayer("failed_share", float64(r.Failed)/float64(r.Attempted))
	}
}

// layerFromSnapshot fills the per-layer counts only a metrics snapshot has.
func (r *iterResult) layerFromSnapshot(snap *obs.Snapshot) {
	started := snap.Total("spotcheck_migrations_started_total")
	if started > 0 {
		r.setLayer("core.aborted_migration_share", snap.Total("spotcheck_migrations_aborted_total")/started)
	}
	faults := snap.Total("spotcheck_chaos_injected_total")
	r.setLayer("cloudchaos.injected_faults", faults)
	r.setLayer("obs.series", float64(len(snap.Metrics)))
}

// simDiff lists the keys on which two sets of simulated statistics
// disagree: dollars beyond 1e-9 relative (a float re-association passes),
// everything else at all (a changed simulation fails). With shared set,
// keys only one side has are skipped.
func simDiff(a, b map[string]float64, shared bool) []string {
	var out []string
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		x, inA := a[k]
		y, inB := b[k]
		if shared && !(inA && inB) {
			continue
		}
		same := inA && inB && x == y
		if !same && inA && inB && strings.Contains(k, "usd.") {
			same = math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
		}
		if !same {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, x, y))
		}
	}
	sort.Strings(out)
	return out
}

// summary is one metric of one workload over the run's iterations.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs []float64) summary {
	lo, hi := minMax(xs)
	return summary{Unit: unit, Median: median(xs), Min: lo, Max: hi, Samples: xs}
}

// workloadResult is everything one workload produced in one benchmark run.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]summary `json:"per_layer,omitempty"`
	Sim       map[string]float64 `json:"sim,omitempty"`
}

// manifest says what produced a result file, so it can be regenerated.
type manifest struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	MarketSeed int64   `json:"market_seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Repeats    []int   `json:"repeats"` // measured iterations per workload, in result order
}

type resultFile struct {
	Manifest manifest         `json:"manifest"`
	Results  []workloadResult `json:"results"`
}

func newManifest(root string, seed int64, seconds float64, quick bool) manifest {
	commit := "unknown"
	// The driver's checkout is not a git repository; a result made there
	// simply carries no commit.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return manifest{
		Commit: commit, Seed: seed, MarketSeed: marketSeed, Seconds: seconds, Quick: quick,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printWorkload writes every metric of one workload by name with its unit.
func printWorkload(w io.Writer, spec benchSpec, res workloadResult) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d ==\n", res.Workload, res.Correct, res.Attempted, res.Failed)
	row := func(def metricDef, s summary) {
		fmt.Fprintf(w, "  %-38s %14.6g %-6s (min %.6g, max %.6g, n=%d)\n",
			def.Name, s.Median, def.Unit, s.Min, s.Max, len(s.Samples))
	}
	for _, def := range spec.EndToEnd {
		if s, ok := res.EndToEnd[def.Name]; ok {
			row(def, s)
		}
	}
	for _, def := range spec.PerLayer {
		if s, ok := res.PerLayer[def.Name]; ok {
			row(def, s)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}
