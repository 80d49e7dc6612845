package main

import (
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Parent is the index of the span that caused
// it in the same file (-1 for a root); spans of one run share Run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
}

// opFold is every op-level span of one name within one simulated day,
// folded to a count and its busy time, so a 10k-VM trace stays small.
type opFold struct {
	Name   string `json:"name"`
	Day    int    `json:"day"`
	Count  int64  `json:"count"`
	BusyNs int64  `json:"busy_ns"`
}

// foldKey keeps layer and op apart so the hot path builds no string.
type foldKey struct {
	layer, op string
	day       int
}

func (k foldKey) name() string {
	if k.op == "" {
		return k.layer
	}
	return k.layer + "." + k.op
}

// frame is an open span on the recorder's stack; child accumulates the
// time its already-closed children covered.
type frame struct {
	layer, name string
	start       int64
	child       int64
	index       int // position in spans, -1 for a folded op
}

// recorder keeps spans in memory until the run ends. It belongs to one
// goroutine (the simulation's event loop, or the benchmark's main one).
// Phase and sim-day spans are kept in full; op-level spans are folded. A
// span's self time — its duration minus what its children cover — is added
// to its layer as it closes.
type recorder struct {
	run    string
	now    func() int64 // ns since the recorder was made
	spans  []span
	stack  []frame
	day    int
	folds  map[foldKey]*opFold
	selfNs map[string]int64
}

func newRecorder(run string) *recorder {
	t0 := time.Now()
	return &recorder{
		run:    run,
		now:    func() int64 { return int64(time.Since(t0)) },
		folds:  map[foldKey]*opFold{},
		selfNs: map[string]int64{},
	}
}

func (r *recorder) parent() int {
	for i := len(r.stack) - 1; i >= 0; i-- {
		if r.stack[i].index >= 0 {
			return r.stack[i].index
		}
	}
	return -1
}

// begin opens a span that is kept in full; its self time goes to layer.
func (r *recorder) begin(layer, name string) {
	start := r.now()
	r.spans = append(r.spans, span{Name: name, Start: start, Parent: r.parent(), Run: r.run})
	r.stack = append(r.stack, frame{layer: layer, name: name, start: start, index: len(r.spans) - 1})
}

// enter opens an op-level span of a layer, folded per (layer.op, sim-day)
// when it closes; op "" is the layer itself (a callback).
func (r *recorder) enter(layer, op string) {
	r.stack = append(r.stack, frame{layer: layer, name: op, start: r.now(), index: -1})
}

// exit closes the innermost open span and returns its duration.
func (r *recorder) exit() int64 {
	end := r.now()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := end - f.start
	r.selfNs[f.layer] += dur - f.child
	if n := len(r.stack); n > 0 {
		r.stack[n-1].child += dur
	}
	if f.index >= 0 {
		r.spans[f.index].End = end
		return dur
	}
	k := foldKey{f.layer, f.name, r.day}
	fold := r.folds[k]
	if fold == nil {
		fold = &opFold{Name: k.name(), Day: r.day}
		r.folds[k] = fold
	}
	fold.Count++
	fold.BusyNs += dur
	return dur
}

// span records an already-measured root interval (a client request).
func (r *recorder) span(name string, start, end int64) {
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, Run: r.run})
}

// selfS is a layer's accumulated self time in seconds.
func (r *recorder) selfS(layer string) float64 { return float64(r.selfNs[layer]) / 1e9 }

// opTotals sums a folded op over all days.
func (r *recorder) opTotals(layer, op string) (count, busyNs int64) {
	for k, f := range r.folds {
		if k.layer == layer && k.op == op {
			count += f.Count
			busyNs += f.BusyNs
		}
	}
	return count, busyNs
}

type traceFile struct {
	Workload string           `json:"workload"`
	Run      string           `json:"run"`
	Spans    []span           `json:"spans"`
	Ops      []opFold         `json:"ops,omitempty"`
	SelfNs   map[string]int64 `json:"self_ns,omitempty"`
}

// write stores the trace as bench/out/trace-<workload>.json.
func (r *recorder) write(outDir, workload string) error {
	ops := make([]opFold, 0, len(r.folds))
	for _, f := range r.folds {
		ops = append(ops, *f)
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Day != ops[j].Day {
			return ops[i].Day < ops[j].Day
		}
		return ops[i].Name < ops[j].Name
	})
	return writeJSONFile(filepath.Join(outDir, "trace-"+workload+".json"),
		traceFile{Workload: workload, Run: r.run, Spans: r.spans, Ops: ops, SelfNs: r.selfNs})
}
