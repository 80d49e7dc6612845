package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", L("kind", "a"))
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}
	// Same name+labels interns to the same instrument.
	if r.Counter("jobs_total", L("kind", "a")) != c {
		t.Error("counter not interned")
	}
	// Different labels are a distinct series.
	r.Counter("jobs_total", L("kind", "b")).Inc()
	if got := r.Total("jobs_total"); got != 4.5 {
		t.Errorf("Total = %v, want 4.5", got)
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %v, want 4", got)
	}
}

func TestCounterDecrementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter Add did not panic")
		}
	}()
	NewRegistry().Counter("x").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("m")
}

// TestHistogramBucketEdges pins the inclusive-upper-edge semantics.
func TestHistogramBucketEdges(t *testing.T) {
	bounds := []float64{1, 5, 10}
	tests := []struct {
		name  string
		obs   []float64
		want  []uint64 // per-bucket counts: <=1, <=5, <=10, +Inf
		sum   float64
		count uint64
	}{
		{"below first edge", []float64{0.5}, []uint64{1, 0, 0, 0}, 0.5, 1},
		{"exactly on edge lands inside", []float64{1, 5, 10}, []uint64{1, 1, 1, 0}, 16, 3},
		{"just above edge spills over", []float64{1.0001, 5.5}, []uint64{0, 1, 1, 0}, 6.5001, 2},
		{"beyond last edge hits +Inf", []float64{11, 1e9}, []uint64{0, 0, 0, 2}, 11 + 1e9, 2},
		{"negative lands in first bucket", []float64{-3}, []uint64{1, 0, 0, 0}, -3, 1},
		{"mixed", []float64{0, 1, 2, 10, 20}, []uint64{2, 1, 1, 1}, 33, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := NewRegistry().Histogram("h", bounds)
			for _, v := range tt.obs {
				h.Observe(v)
			}
			got := h.BucketCounts()
			if len(got) != len(tt.want) {
				t.Fatalf("bucket count = %d, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("bucket[%d] = %d, want %d", i, got[i], tt.want[i])
				}
			}
			if h.Count() != tt.count {
				t.Errorf("Count = %d, want %d", h.Count(), tt.count)
			}
			if math.Abs(h.Sum()-tt.sum) > 1e-9 {
				t.Errorf("Sum = %v, want %v", h.Sum(), tt.sum)
			}
		})
	}
}

func TestHistogramLayoutConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	if h := r.Histogram("h", nil, L("pool", "a")); h == nil {
		t.Fatal("nil buckets should reuse the family layout")
	}
	defer func() {
		if recover() == nil {
			t.Error("conflicting bucket layout did not panic")
		}
	}()
	r.Histogram("h", []float64{1, 2, 3})
}

// TestSnapshotConsistency checks determinism and that the snapshot is a
// copy, decoupled from later updates.
func TestSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("x", "2")).Add(2)
	r.Counter("b_total", L("x", "1")).Inc()
	r.Gauge("a_gauge").Set(9)
	r.Histogram("lat_seconds", []float64{1, 10}).Observe(3)
	r.Describe("b_total", "b things")

	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if len(s1.Metrics) != 4 || len(s2.Metrics) != 4 {
		t.Fatalf("series = %d/%d, want 4", len(s1.Metrics), len(s2.Metrics))
	}
	for i := range s1.Metrics {
		if s1.Metrics[i].Name != s2.Metrics[i].Name ||
			labelString(s1.Metrics[i].Labels) != labelString(s2.Metrics[i].Labels) {
			t.Fatalf("snapshot order not deterministic: %v vs %v", s1.Metrics[i], s2.Metrics[i])
		}
	}
	// Families keep registration order; series sort by labels.
	if s1.Metrics[0].Name != "b_total" || s1.Metrics[2].Name != "a_gauge" {
		t.Errorf("family order = %s,%s", s1.Metrics[0].Name, s1.Metrics[2].Name)
	}
	if labelString(s1.Metrics[0].Labels) != `{x="1"}` {
		t.Errorf("series order: first b_total is %s", labelString(s1.Metrics[0].Labels))
	}
	// Later updates must not leak into the taken snapshot.
	r.Counter("b_total", L("x", "1")).Add(100)
	if v, ok := s1.Value("b_total", L("x", "1")); !ok || v != 1 {
		t.Errorf("snapshot value mutated: %v", v)
	}
	if got := s1.Total("b_total"); got != 3 {
		t.Errorf("Total = %v, want 3", got)
	}
	// Histogram totals count observations.
	if got := s1.Total("lat_seconds"); got != 1 {
		t.Errorf("histogram Total = %v, want 1", got)
	}
	if _, ok := s1.Value("missing"); ok {
		t.Error("missing metric found")
	}
	if !strings.Contains(s1.Summary(), "b_total") {
		t.Error("Summary missing b_total")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", L("pool", `sp"ot`)).Add(3)
	r.Describe("ops_total", "operations")
	h := r.Histogram("dur_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(100)
	r.Gauge("depth").Set(1.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP ops_total operations\n",
		"# TYPE ops_total counter\n",
		"ops_total{pool=\"sp\\\"ot\"} 3\n",
		"# TYPE dur_seconds histogram\n",
		`dur_seconds_bucket{le="1"} 1`,
		`dur_seconds_bucket{le="10"} 2`,
		`dur_seconds_bucket{le="+Inf"} 3`,
		"dur_seconds_sum 102.5\n",
		"dur_seconds_count 3\n",
		"# TYPE depth gauge\n",
		"depth 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h_seconds", DurationBuckets).Observe(float64(i % 40))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total").Value(); got != 8000 {
		t.Errorf("counter = %v, want 8000", got)
	}
	if got := r.Histogram("h_seconds", nil).Count(); got != 8000 {
		t.Errorf("histogram count = %v, want 8000", got)
	}
}

// TestDescribeBeforeRegister pins that help text sticks regardless of
// whether Describe precedes or follows the family's first registration —
// lazily-created families (e.g. per-market counters) get their HELP line.
func TestDescribeBeforeRegister(t *testing.T) {
	reg := NewRegistry()
	reg.Describe("early_total", "described before registration")
	reg.Counter("early_total").Inc()
	reg.Counter("late_total").Inc()
	reg.Describe("late_total", "described after registration")

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP early_total described before registration",
		"# HELP late_total described after registration",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	r.Describe("ingest", "Per-server ingest.")
	r.Gauge("ingest", L("server", "a")).Set(50)
	r.Gauge("ingest", L("server", "b")).Set(70)

	r.Remove("ingest", L("server", "a"))
	snap := r.Snapshot()
	if _, ok := snap.Value("ingest", L("server", "a")); ok {
		t.Error("removed series still in snapshot")
	}
	if v, ok := snap.Value("ingest", L("server", "b")); !ok || v != 70 {
		t.Errorf("surviving series = %v (present=%v), want 70", v, ok)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, `server="a"`) {
		t.Error("removed series still in Prometheus exposition")
	}
	if !strings.Contains(out, "# HELP ingest Per-server ingest.") {
		t.Error("family help lost after series removal")
	}

	// Removing unknown series/families must be a no-op, and a later lookup
	// with the removed labels interns a fresh zero-valued series.
	r.Remove("ingest", L("server", "ghost"))
	r.Remove("no-such-family")
	if v := r.Gauge("ingest", L("server", "a")).Value(); v != 0 {
		t.Errorf("re-interned series carries stale value %v", v)
	}
}

// TestHistogramUnsortedBucketsPanics covers the registration invariant
// guard: bucket bounds must arrive sorted, or Observe's binary search
// would misclassify samples silently.
func TestHistogramUnsortedBucketsPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unsorted buckets did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "buckets not sorted") {
			t.Errorf("panic = %v, want buckets-not-sorted message", r)
		}
	}()
	NewRegistry().Histogram("h", []float64{10, 1, 5})
}

// TestInvariantPanicMessages pins that each guard names the offending
// metric and the nature of the violation — these strings are what an
// operator sees in a crash log, so they must identify the bug site.
func TestInvariantPanicMessages(t *testing.T) {
	tests := []struct {
		name string
		do   func(r *Registry)
		want string
	}{
		{"counter decrement", func(r *Registry) { r.Counter("c").Add(-2.5) }, "counter decrement by -2.5"},
		{"kind mismatch names metric and kinds", func(r *Registry) {
			r.Counter("m")
			r.Histogram("m", nil)
		}, `metric "m" registered as counter, requested as histogram`},
		{"bucket relayout names metric", func(r *Registry) {
			r.Histogram("h", []float64{1, 2})
			r.Histogram("h", []float64{1, 2, 3})
		}, `histogram "h" re-registered with 3 buckets, family has 2`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				msg, _ := r.(string)
				if !strings.Contains(msg, tt.want) {
					t.Errorf("panic = %q, want substring %q", msg, tt.want)
				}
			}()
			tt.do(NewRegistry())
		})
	}
}

// TestRegistryConcurrentRemove races series registration, removal,
// snapshotting and the Prometheus exposition against each other — the
// live spotcheckd pattern where backup-server churn retires
// spotcheck_backup_ingest_mbs series while a scrape walks the registry.
// Run under -race (CI does) this pins the lock discipline; the final
// state check pins that interleaved Remove/re-register cannot strand a
// family in a broken shape.
func TestRegistryConcurrentRemove(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			server := L("server", string(rune('a'+g%4)))
			for i := 0; i < 500; i++ {
				switch i % 4 {
				case 0:
					r.Gauge("ingest", server).Set(float64(i))
				case 1:
					r.Remove("ingest", server)
				case 2:
					_ = r.Snapshot()
				case 3:
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The family must still be fully usable after the churn.
	r.Gauge("ingest", L("server", "final")).Set(42)
	if v, ok := r.Snapshot().Value("ingest", L("server", "final")); !ok || v != 42 {
		t.Errorf("post-churn gauge = %v (present=%v), want 42", v, ok)
	}
}
