// Command bench is the repository's benchmark: five workloads measured end
// to end from outside — through the built spotsim and spotcheckd binaries,
// HTTP, and the exported front doors of internal/experiments and
// internal/scenario — plus per-layer metrics from a separately traced run
// and from layer probes. bench/README.md has the tables; BENCHMARK.json at
// the repository root names every workload and metric.
//
// Usage:
//
//	go run ./bench [-workload all|figures|fleet|fleet-sharded|campaign|daemon]
//	               [-seed 42] [-seconds 24] [-trace 0|1] [-quick] [-pin]
//	go run ./bench -probes
//	go run ./bench -compare a.json b.json
//
// With a single -workload the last line of standard output is the one JSON
// object the benchmark driver reads.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 42, "workload seed (7 is held out: never tune on it)")
		seconds  = fs.Float64("seconds", 24, "how long each workload measures")
		trace    = fs.Int("trace", 0, "1 runs the traced variant and the layer probes and reports per-layer metrics")
		quick    = fs.Bool("quick", false, "tiny sizes, one iteration: the smoke test")
		pin      = fs.Bool("pin", false, "rewrite bench/reference.json from this run (use with -seed 42)")
		probes   = fs.Bool("probes", false, "run only the layer probes")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
		child    = fs.String("child", "", "internal: run one iteration of this workload and print it")
		spawned  = fs.Int64("spawned", 0, "internal: when the parent began this iteration (unix ns)")
		outDir   = fs.String("out", "", "directory for result.json and trace files (default bench/out)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	e := env{root: root, seed: *seed, quick: *quick, spawned: time.Now(), outDir: *outDir}
	if e.outDir == "" {
		e.outDir = filepath.Join(root, "bench", "out")
	}
	if *spawned > 0 {
		e.spawned = time.Unix(0, *spawned)
	}
	if *child != "" {
		if err := childMain(e, *child, *trace == 1, stdout); err != nil {
			return fail(err)
		}
		return 0
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		return fail(err)
	}
	if *probes {
		r, err := runChild(ctx, e, "probes", false)
		if err != nil {
			return fail(err)
		}
		res := aggregate(spec, "probes", nil, []iterResult{r})
		printWorkload(stdout, spec, res)
		return 0
	}

	var names []string
	for _, w := range spec.Workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fail(fmt.Errorf("no workload %q in BENCHMARK.json", *workload))
	}
	var ref reference // stays empty while re-pinning
	if !*pin {
		if ref, err = loadReference(root); err != nil {
			return fail(err)
		}
	}
	out := resultFile{Manifest: newManifest(root, *seed, *seconds, *quick)}
	allCorrect := true
	for _, name := range names {
		res, err := runWorkload(ctx, e, spec, name, *seconds, *trace == 1, ref)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		printWorkload(stdout, spec, res)
		allCorrect = allCorrect && res.Correct
		out.Results = append(out.Results, res)
		out.Manifest.Repeats = append(out.Manifest.Repeats, len(res.EndToEnd["wall_s"].Samples))
	}
	if err := writeJSONFile(filepath.Join(e.outDir, "result.json"), out); err != nil {
		return fail(err)
	}
	if *pin {
		if err := writeReference(root, out.Results); err != nil {
			return fail(err)
		}
	}
	if len(names) == 1 {
		if err := writeJSONLine(stdout, driverLine(spec, out.Results[0], *trace == 1)); err != nil {
			return fail(err)
		}
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// findRoot walks up from the working directory to the module root, so the
// benchmark works from the checkout root (go run ./bench) and from bench/
// (go test).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod with a BENCHMARK.json beside it at or above the working directory")
		}
		dir = parent
	}
}

func writeJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

func unmarshalLastLine(out []byte, v any) error {
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	return json.Unmarshal(out, v)
}

// seedFree are the workloads whose simulated statistics do not depend on
// -seed (their programs take marketSeed), so the pinned reference applies
// at every seed.
var seedFree = map[string]bool{"figures": true, "daemon": true}

// iterate runs one iteration of a workload: figures and daemon drive a
// real binary from this process, the rest run in a fresh child.
func iterate(ctx context.Context, e env, name string, traced bool) (iterResult, error) {
	switch {
	case name == "figures" && !traced:
		r, stdout, err := figuresIter(ctx, e)
		if err != nil {
			return r, err
		}
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return r, err
		}
		return r, os.WriteFile(figuresStdoutPath(e), []byte(stdout), 0o644)
	case name == "daemon":
		var rec *recorder
		if traced {
			rec = newRecorder(fmt.Sprintf("daemon-seed%d", e.seed))
		}
		r, err := daemonIter(ctx, e, rec)
		if err != nil || rec == nil {
			return r, err
		}
		return r, rec.write(e.outDir, name)
	default:
		return runChild(ctx, e, name, traced)
	}
}

// runWorkload measures one workload. Untraced, it repeats iterations until
// the time budget is used (at least three, one with -quick) and reports
// medians. Traced, it runs one untraced and one traced iteration plus the
// layer probes, and checks that tracing changed no simulated statistic.
func runWorkload(ctx context.Context, e env, spec benchSpec, name string, seconds float64, traced bool, ref reference) (workloadResult, error) {
	var its []iterResult
	var problems []string
	if !traced {
		minIters := 3
		if e.quick {
			minIters = 1
		}
		begin := time.Now()
		for {
			t0 := time.Now()
			r, err := iterate(ctx, e, name, false)
			if err != nil {
				return workloadResult{}, err
			}
			its = append(its, r)
			// Stop when another iteration of this length would overrun.
			if len(its) >= minIters && (e.quick || time.Since(begin)+time.Since(t0) > time.Duration(seconds*float64(time.Second))) {
				break
			}
		}
	} else {
		plain, err := iterate(ctx, e, name, false)
		if err != nil {
			return workloadResult{}, err
		}
		tr, err := iterate(ctx, e, name, true)
		if err != nil {
			return workloadResult{}, err
		}
		probes, err := runChild(ctx, e, "probes", false)
		if err != nil {
			return workloadResult{}, err
		}
		for _, d := range simDiff(plain.Sim, tr.Sim, true) {
			problems = append(problems, "traced run differs from untraced: "+d)
		}
		merged := plain
		merged.Layer = map[string]float64{}
		for _, src := range []map[string]float64{tr.Layer, plain.Layer, probes.Layer} {
			for k, v := range src {
				merged.Layer[k] = v
			}
		}
		if plain.WallS > 0 {
			merged.Layer["bench.trace_overhead_pct"] = 100 * (tr.WallS - plain.WallS) / plain.WallS
		}
		if name == "fleet-sharded" {
			single, err := runChild(ctx, e, "fleet", false)
			if err != nil {
				return workloadResult{}, err
			}
			merged.Layer["experiments.shard_speedup"] = single.WallS / plain.WallS
		}
		merged.Problems = append(merged.Problems, tr.Problems...)
		merged.Attempted += tr.Attempted
		merged.Failed += tr.Failed
		its = []iterResult{merged}
	}

	for i, r := range its {
		problems = append(problems, r.Problems...)
		problems = append(problems, invariantProblems(r.Sim)...)
		if i > 0 {
			for _, d := range simDiff(its[0].Sim, r.Sim, false) {
				problems = append(problems, fmt.Sprintf("repeat %d differs from repeat 0: %s", i, d))
			}
		}
	}
	if pinned, ok := ref[name]; ok && !e.quick && (e.seed == marketSeed || seedFree[name]) {
		for _, d := range simDiff(pinned, its[0].Sim, false) {
			problems = append(problems, "differs from bench/reference.json: "+d)
		}
	}
	res := aggregate(spec, name, problems, its)
	return res, nil
}

// invariantProblems checks what must hold at every seed: availability is a
// share, no VM lost its memory state, every rental was billed.
func invariantProblems(sim map[string]float64) []string {
	var out []string
	for k, v := range sim {
		base := k[strings.LastIndexByte(k, '/')+1:]
		switch {
		case base == "availability" && (v < 0 || v > 1):
			out = append(out, fmt.Sprintf("%s = %v, outside [0,1]", k, v))
		case (base == "vms_lost_memory_state" || base == "billing_errors") && v != 0:
			out = append(out, fmt.Sprintf("%s = %v, want 0", k, v))
		}
	}
	sort.Strings(out)
	return out
}

// aggregate folds a workload's iterations into medians by metric name.
func aggregate(spec benchSpec, name string, problems []string, its []iterResult) workloadResult {
	res := workloadResult{
		Workload: name, Problems: problems,
		EndToEnd: map[string]summary{}, PerLayer: map[string]summary{},
	}
	e2e, layer := map[string][]float64{}, map[string][]float64{}
	for _, r := range its {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.endToEnd() {
			e2e[k] = append(e2e[k], v)
		}
		for k, v := range r.Layer {
			layer[k] = append(layer[k], v)
		}
	}
	for _, def := range spec.EndToEnd {
		if xs, ok := e2e[def.Name]; ok {
			res.EndToEnd[def.Name] = summarize(def.Unit, xs)
		}
	}
	known := map[string]bool{}
	for _, def := range spec.PerLayer {
		known[def.Name] = true
		if xs, ok := layer[def.Name]; ok {
			res.PerLayer[def.Name] = summarize(def.Unit, xs)
		}
	}
	for k := range layer {
		if !known[k] {
			res.Problems = append(res.Problems, fmt.Sprintf("metric %q is not in BENCHMARK.json", k))
		}
	}
	sort.Strings(res.Problems)
	if len(its) > 0 {
		res.Sim = its[0].Sim
	}
	res.Correct = len(res.Problems) == 0 && res.Failed == 0
	return res
}

// driverLine is the benchmark driver's contract: with tracing off every
// end-to-end metric, with tracing on every per-layer metric (0 for one this
// workload does not exercise).
func driverLine(spec benchSpec, res workloadResult, traced bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	correct := res.Correct
	if traced {
		for _, def := range spec.PerLayer {
			metrics[def.Name] = value{res.PerLayer[def.Name].Median, def.Unit}
		}
	} else {
		for _, def := range spec.EndToEnd {
			s, ok := res.EndToEnd[def.Name]
			if !ok || s.Median <= 0 {
				correct = false
			}
			metrics[def.Name] = value{s.Median, def.Unit}
		}
	}
	return map[string]any{
		"correct": correct, "attempted": max(res.Attempted, 1), "failed": res.Failed, "metrics": metrics,
	}
}

// reference pins the seed-42 simulated statistics per workload.
type reference map[string]map[string]float64

func referencePath(root string) string { return filepath.Join(root, "bench", "reference.json") }

func loadReference(root string) (reference, error) {
	data, err := os.ReadFile(referencePath(root))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("bench/reference.json: %w", err)
	}
	return ref, nil
}

// writeReference updates the pins of the workloads just run, keeping the
// rest.
func writeReference(root string, results []workloadResult) error {
	ref, err := loadReference(root)
	if err != nil {
		ref = reference{}
	}
	for _, res := range results {
		ref[res.Workload] = res.Sim
	}
	return writeJSONFile(referencePath(root), ref)
}
