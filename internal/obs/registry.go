package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Label is one name=value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// ---------------------------------------------------------------------------
// Instruments

// atomicFloat is a float64 updated with CAS on its bit pattern, so
// instruments are safe for concurrent use without a per-update lock.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing metric.
type Counter struct{ v atomicFloat }

// Inc adds one.
func (c *Counter) Inc() { c.v.add(1) }

// Add increases the counter. Negative deltas panic: counters are monotonic;
// model reversible quantities with a Gauge or a paired "aborted" counter.
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter decrement by %v", v))
	}
	c.v.add(v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

// Histogram counts observations into a fixed bucket layout. Bucket bounds
// are inclusive upper edges; an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64 // sorted, strictly increasing upper edges
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; sort.SearchFloat64s returns
	// the insertion point for v, which lands equal values in their bucket
	// because bounds are inclusive upper edges.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Bounds returns the bucket upper edges (without the implicit +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns per-bucket (non-cumulative) counts; the final entry
// is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// ---------------------------------------------------------------------------
// Standard bucket layouts

// DurationBuckets (seconds) suits migration latencies and downtimes: fine
// resolution under the paper's 30 s bound, coarse above it.
var DurationBuckets = []float64{0.1, 0.25, 0.5, 1, 2, 5, 10, 20, 30, 60, 120, 300}

// SizeMBBuckets suits state sizes: checkpoint residues, transfer volumes.
var SizeMBBuckets = []float64{1, 10, 50, 100, 250, 500, 1000, 2000, 4000}

// CountBuckets suits small cardinalities: pre-copy rounds, storm sizes,
// backup fan-in.
var CountBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55}

// ---------------------------------------------------------------------------
// Registry

type series struct {
	sig    string // signature(labels)
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

type family struct {
	name   string
	kind   Kind
	help   string
	bounds []float64 // histograms only; fixed at first registration
	mu     sync.Mutex
	series map[string]*series // interned by label signature; guarded by mu
	// sorted holds the same series ordered by signature, the order
	// snapshots and scrapes list them in, kept as series come and go so
	// no reader sorts; guarded by mu.
	sorted []*series
}

// seriesAt returns where the series with signature sig sits, or would sit,
// in a family's sorted list.
func seriesAt(sorted []*series, sig string) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i].sig >= sig })
}

// Registry interns metric families and their labelled series. All methods
// are safe for concurrent use; instrument lookups intern, so hot paths
// should resolve once and keep the returned pointer.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family // guarded by mu
	order    []string           // registration order, for stable iteration; guarded by mu
	pending  map[string]string  // help text described before registration; guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}, pending: map[string]string{}}
}

func (r *Registry) family(name string, kind Kind, bounds []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, kind: kind, bounds: bounds, series: map[string]*series{}}
			f.help = r.pending[name]
			delete(r.pending, name)
			r.families[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	return f
}

func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\x01')
		b.WriteString(l.Value)
		b.WriteByte('\x02')
	}
	return b.String()
}

func (f *family) get(labels []Label) *series {
	sortLabels(labels)
	sig := signature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig, labels: append([]Label(nil), labels...)}
		switch f.kind {
		case KindCounter:
			s.ctr = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = newHistogram(f.bounds)
		}
		f.series[sig] = s
		f.sorted = slices.Insert(f.sorted, seriesAt(f.sorted, sig), s)
	}
	return s
}

func sortLabels(labels []Label) {
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
}

// Counter interns and returns the counter series name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.family(name, KindCounter, nil).get(labels).ctr
}

// Gauge interns and returns the gauge series name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.family(name, KindGauge, nil).get(labels).gauge
}

// Histogram interns and returns the histogram series name{labels}. The
// bucket layout is fixed by the first registration of the family; later
// calls must pass the same layout (or nil to reuse it).
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) > 0 && !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not sorted: %v", name, buckets))
	}
	f := r.family(name, KindHistogram, append([]float64(nil), buckets...))
	if len(buckets) > 0 && len(f.bounds) != len(buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with %d buckets, family has %d",
			name, len(buckets), len(f.bounds)))
	}
	return f.get(labels).hist
}

// Remove deletes the series name{labels} from the registry, so snapshots
// and the Prometheus exposition stop reporting it. Gauges labelled by a
// dynamic entity (a backup server, a VM) must be removed when the entity
// retires, or they report their last value forever. Removing an unknown
// series is a no-op. The family (and its help text) survives with its
// remaining series. Instrument pointers obtained earlier keep working but
// are detached: a later lookup with the same labels interns a fresh series.
func (r *Registry) Remove(name string, labels ...Label) {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return
	}
	sortLabels(labels)
	sig := signature(labels)
	f.mu.Lock()
	if f.series[sig] != nil {
		delete(f.series, sig)
		i := seriesAt(f.sorted, sig)
		f.sorted = slices.Delete(f.sorted, i, i+1)
	}
	f.mu.Unlock()
}

// Describe attaches help text to a metric family (shown as # HELP in the
// Prometheus exposition). Order is immaterial: describing a family that is
// not registered yet stores the text and applies it on first registration.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	f := r.families[name]
	if f == nil {
		r.pending[name] = help
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	f.mu.Lock()
	f.help = help
	f.mu.Unlock()
}

// Total sums the current values of every series in a counter or gauge
// family. Unknown families total zero.
func (r *Registry) Total(name string) float64 {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum float64
	for _, s := range f.series {
		switch f.kind {
		case KindCounter:
			sum += s.ctr.Value()
		case KindGauge:
			sum += s.gauge.Value()
		case KindHistogram:
			sum += s.hist.Sum()
		}
	}
	return sum
}
