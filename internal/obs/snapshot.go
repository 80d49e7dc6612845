package obs

import (
	"fmt"
	"strings"
)

// Metric is one series' point-in-time state inside a Snapshot.
type Metric struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	Help   string  `json:"help,omitempty"`
	Labels []Label `json:"labels,omitempty"`

	// Value holds the counter or gauge value; for histograms it is the sum
	// of observations (Sum is the canonical field).
	Value float64 `json:"value"`

	// Histogram-only fields. Bounds are the bucket upper edges; Buckets are
	// the per-bucket (non-cumulative) counts with a final +Inf entry.
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Count   uint64    `json:"count,omitempty"`
}

// labelString renders {k="v",...} or "".
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Snapshot is a deterministic point-in-time copy of a Registry: families in
// registration order, series sorted by label signature within a family.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	for _, f := range r.familiesInOrder() {
		f.mu.Lock()
		for _, s := range f.sorted {
			m := Metric{Name: f.name, Kind: f.kind, Help: f.help,
				Labels: append([]Label(nil), s.labels...)}
			switch f.kind {
			case KindCounter:
				m.Value = s.ctr.Value()
			case KindGauge:
				m.Value = s.gauge.Value()
			case KindHistogram:
				m.Bounds = s.hist.Bounds()
				m.Buckets = s.hist.BucketCounts()
				m.Sum = s.hist.Sum()
				m.Count = s.hist.Count()
				m.Value = m.Sum
			}
			snap.Metrics = append(snap.Metrics, m)
		}
		f.mu.Unlock()
	}
	return snap
}

// familiesInOrder returns the registry's families in registration order.
func (r *Registry) familiesInOrder() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, len(r.order))
	for i, n := range r.order {
		fams[i] = r.families[n]
	}
	return fams
}

// MergeSnapshots folds per-shard snapshots into one fleet view by summing
// every series with the same (name, labels) signature: counter values and
// gauge end-of-run levels add, histograms add bucket-wise (bounds must
// agree — shards run identical instrument definitions). Series order is
// first-appearance order across the snapshots in slice order, so for a
// fixed input the merged snapshot renders byte-identically no matter how
// many workers produced the inputs. Inputs are not mutated.
func MergeSnapshots(snaps []*Snapshot) *Snapshot {
	out := &Snapshot{}
	index := map[string]int{} // name + labelString -> position in out.Metrics
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for i := range s.Metrics {
			m := &s.Metrics[i]
			sig := m.Name + labelString(m.Labels)
			at, ok := index[sig]
			if !ok {
				index[sig] = len(out.Metrics)
				c := *m
				c.Labels = append([]Label(nil), m.Labels...)
				c.Bounds = append([]float64(nil), m.Bounds...)
				c.Buckets = append([]uint64(nil), m.Buckets...)
				out.Metrics = append(out.Metrics, c)
				continue
			}
			dst := &out.Metrics[at]
			dst.Value += m.Value
			dst.Sum += m.Sum
			dst.Count += m.Count
			for j := range dst.Buckets {
				if j < len(m.Buckets) {
					dst.Buckets[j] += m.Buckets[j]
				}
			}
		}
	}
	return out
}

func labelsMatch(have []Label, want []Label) bool {
	if len(have) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Value returns the counter/gauge value (or histogram sum) of the series
// with exactly the given labels, and whether it exists.
func (s *Snapshot) Value(name string, labels ...Label) (float64, bool) {
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name == name && labelsMatch(m.Labels, labels) {
			return m.Value, true
		}
	}
	return 0, false
}

// Total sums Value across every series of the family (counters and gauges;
// for histograms it sums observation counts — the natural "how many"
// reading of a recorded distribution).
func (s *Snapshot) Total(name string) float64 {
	var sum float64
	for i := range s.Metrics {
		m := &s.Metrics[i]
		if m.Name != name {
			continue
		}
		if m.Kind == KindHistogram {
			sum += float64(m.Count)
		} else {
			sum += m.Value
		}
	}
	return sum
}

// Summary renders an aligned plain-text table of every series: the spotsim
// -metrics output. Histograms summarize as count/mean/max-bucket.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	b.WriteString("metric                                                      value\n")
	b.WriteString("------                                                      -----\n")
	for i := range s.Metrics {
		m := &s.Metrics[i]
		name := m.Name + labelString(m.Labels)
		switch m.Kind {
		case KindHistogram:
			mean := 0.0
			if m.Count > 0 {
				mean = m.Sum / float64(m.Count)
			}
			fmt.Fprintf(&b, "%-58s  count=%d mean=%.3g\n", name, m.Count, mean)
		default:
			fmt.Fprintf(&b, "%-58s  %g\n", name, m.Value)
		}
	}
	return b.String()
}
