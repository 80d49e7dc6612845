package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cloudsim"
	"repro/internal/cloudtest"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

var _ cloud.Provider = (*timedProvider)(nil)

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	// Python: statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v (nearest rank)", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 || spread(nil) != 0 {
		t.Error("empty samples must summarise to 0")
	}
}

// A span's self time is its duration minus what its children cover, and
// op-level spans fold per (name, sim-day).
func TestSelfTimeArithmetic(t *testing.T) {
	var clock int64
	rec := &recorder{run: "t", now: func() int64 { return clock }, folds: map[foldKey]*opFold{}, selfNs: map[string]int64{}}
	at := func(ns int64) { clock = ns }

	at(0)
	rec.begin("loop", "run_until")
	at(10)
	rec.enter("cloudsim", "spot_price")
	at(30)
	rec.exit() // 20 ns, no children
	at(40)
	rec.enter("cloudsim", "request_spot")
	at(45)
	rec.enter("core.callback", "") // a callback fired inside the call
	at(55)
	rec.exit()
	at(60)
	rec.exit() // 20 ns, 10 of them the callback's
	at(100)
	if dur := rec.exit(); dur != 100 {
		t.Errorf("outer span lasted %d, want 100", dur)
	}
	rec.day = 1
	at(100)
	rec.enter("cloudsim", "spot_price")
	at(107)
	rec.exit()

	want := map[string]int64{"loop": 60, "cloudsim": 20 + 10 + 7, "core.callback": 10}
	for layer, ns := range want {
		if rec.selfNs[layer] != ns {
			t.Errorf("self time of %s = %d, want %d", layer, rec.selfNs[layer], ns)
		}
	}
	if n, busy := rec.opTotals("cloudsim", "spot_price"); n != 2 || busy != 27 {
		t.Errorf("spot_price folded to %d calls, %d ns; want 2, 27", n, busy)
	}
	if f := rec.folds[foldKey{"cloudsim", "spot_price", 1}]; f == nil || f.Name != "cloudsim.spot_price" || f.Count != 1 || f.BusyNs != 7 {
		t.Errorf("day-1 fold = %+v, want one 7 ns call", f)
	}
	if len(rec.spans) != 1 || rec.spans[0].Parent != -1 || rec.spans[0].End != 100 {
		t.Errorf("kept spans = %+v, want the one root span ending at 100", rec.spans)
	}
}

// The timing decorator must itself be a conforming provider: it sits
// between the controller and the platform in every traced run.
func TestTimedProviderConformance(t *testing.T) {
	var decorated *timedProvider
	cloudtest.Run(t, cloudtest.Harness{
		New: func(t *testing.T) (cloud.Provider, func()) {
			tr, err := spotmarket.NewTrace([]spotmarket.Point{{T: 0, Price: 0.01}}, 10000*simkit.Hour)
			if err != nil {
				t.Fatal(err)
			}
			sched := simkit.NewScheduler()
			p, err := cloudsim.New(sched, cloudsim.Config{
				Traces:    spotmarket.Set{{Type: cloud.M3Medium, Zone: "zone-a"}: tr},
				Latencies: cloudsim.ZeroOpLatencies(),
			})
			if err != nil {
				t.Fatal(err)
			}
			decorated = &timedProvider{Provider: p, rec: newRecorder("conformance"),
				layer: "cloudsim", cbLayer: "core.callback", warnLayer: "core.warning"}
			return decorated, func() { sched.Run(100000) }
		},
		SpotType: cloud.M3Medium,
		SpotZone: "zone-a",
		LowPrice: 0.02,
	})
	if n, _ := decorated.rec.opTotals("cloudsim", "accrued_cost"); n == 0 {
		t.Error("the decorator recorded no accrued_cost call during the cost-accrual suite")
	}
	if len(decorated.rec.stack) != 0 {
		t.Errorf("%d spans left open", len(decorated.rec.stack))
	}
}

func TestSimDiff(t *testing.T) {
	a := map[string]float64{"usd.total_cost": 100, "cell/usd.cost": 1, "down_ns": 5e15, "migrations": 7}
	b := map[string]float64{"usd.total_cost": 100 * (1 + 1e-12), "cell/usd.cost": 1, "down_ns": 5e15, "migrations": 7}
	if d := simDiff(a, b, false); len(d) != 0 {
		t.Errorf("a float re-association of dollars must pass, got %v", d)
	}
	b["down_ns"]++
	b["usd.total_cost"] = 100.001
	b["only_b"] = 1
	d := simDiff(a, b, false)
	if len(d) != 3 {
		t.Errorf("want down_ns, usd.total_cost and only_b reported, got %v", d)
	}
	if d := simDiff(a, b, true); len(d) != 2 {
		t.Errorf("shared-keys diff must skip only_b, got %v", d)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.25}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, unchanged},
		{"within bound", lower, steady, shift(steady, 1.05), unchanged},
		{"worse by more than the bound", lower, steady, shift(steady, 1.2), regressed},
		{"better by more than a's spread", lower, steady, shift(steady, 0.9), improved},
		{"spread wider than the bound", lower, noisy, shift(noisy, 1.05), unresolved},
		{"noisy but every run better", lower, noisy, shift(noisy, 0.5), improved},
		{"higher is better", metricDef{Better: "higher", Bound: 0.10}, steady, shift(steady, 0.8), regressed},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuickSmoke drives the whole benchmark at toy sizes — building the
// binaries, every workload untraced and traced, the probes — and asserts
// that every metric BENCHMARK.json names is emitted, by name, and that the
// driver's result line has exactly the promised shape.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-quick", "-trace", "1", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("bench -quick -trace 1 exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rf, err := readResult(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Results) != len(spec.Workloads) || rf.Manifest.GoVersion == "" || len(rf.Manifest.Repeats) != len(spec.Workloads) {
		t.Fatalf("result.json has %d workloads, manifest %+v", len(rf.Results), rf.Manifest)
	}
	emitted := map[string]bool{}
	for _, res := range rf.Results {
		if !res.Correct {
			t.Errorf("%s: not correct: %v", res.Workload, res.Problems)
		}
		for _, def := range spec.EndToEnd {
			if s, ok := res.EndToEnd[def.Name]; !ok || !(s.Median > 0) {
				t.Errorf("%s: end-to-end metric %s missing or not positive: %+v", res.Workload, def.Name, s)
			}
		}
		for name := range res.PerLayer {
			emitted[name] = true
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+res.Workload+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", res.Workload, err)
		}
	}
	var missing []string
	for _, def := range spec.PerLayer {
		if !emitted[def.Name] {
			missing = append(missing, def.Name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("per-layer metrics in BENCHMARK.json that no workload emitted: %v", missing)
	}

	for _, traced := range []string{"0", "1"} {
		stdout.Reset()
		if code := run(context.Background(), []string{"--workload", "fleet", "--seed", "7", "--seconds", "1", "--trace", traced, "-quick", "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("driver-style run exited %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last stdout line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("result line: correct/attempted/failed = %v/%v/%v", line.Correct, line.Attempted, line.Failed)
		}
		defs := spec.EndToEnd
		if traced == "1" {
			defs = spec.PerLayer
		}
		var want, got []string
		for _, def := range defs {
			want = append(want, def.Name)
			if m := line.Metrics[def.Name]; m.Value == nil || m.Unit != def.Unit || math.IsNaN(*m.Value) {
				t.Errorf("--trace %s: metric %s = %+v, want a value in %s", traced, def.Name, m, def.Unit)
			}
		}
		for name := range line.Metrics {
			got = append(got, name)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, ",") != strings.Join(got, ",") {
			t.Errorf("--trace %s: result line has metrics %v, want exactly %v", traced, got, want)
		}
	}
}
