package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// refWritePrometheus is the exposition writer as it was before it appended
// into one buffer: a Snapshot rendered with one fmt.Fprintf per line. The
// buffered writer must match it byte for byte.
func refWritePrometheus(r *Registry, w io.Writer) error {
	snap := r.Snapshot()
	var last string
	for i := range snap.Metrics {
		m := &snap.Metrics[i]
		if m.Name != last {
			last = m.Name
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, refEscapeHelp(m.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
		}
		if err := refWriteSeries(w, m); err != nil {
			return err
		}
	}
	return nil
}

func refWriteSeries(w io.Writer, m *Metric) error {
	switch m.Kind {
	case KindHistogram:
		var cum uint64
		for i, c := range m.Buckets {
			cum += c
			le := "+Inf"
			if i < len(m.Bounds) {
				le = refFormatValue(m.Bounds[i])
			}
			labels := append(append([]Label(nil), m.Labels...), Label{Key: "le", Value: le})
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", m.Name, refPromLabels(labels), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", m.Name, refPromLabels(m.Labels), refFormatValue(m.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", m.Name, refPromLabels(m.Labels), m.Count)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s%s %s\n", m.Name, refPromLabels(m.Labels), refFormatValue(m.Value))
		return err
	}
}

func refPromLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		v := strings.ReplaceAll(l.Value, `\`, `\\`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		parts[i] = l.Key + `="` + strings.ReplaceAll(v, `"`, `\"`) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func refEscapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func refFormatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// specialValues are the samples whose formatting has edges: NaN, the
// infinities, both zeros, the 1e15 integer cut-off on both sides, the
// smallest subnormals and the largest finite values.
var specialValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 0.5, 999999999999999.9,
	5e-324, -5e-324, 2.2250738585072014e-308 / 2, math.MaxFloat64, -math.MaxFloat64,
	0.1, -2.5, 1e21, 1e-7, 123456789.125,
}

// promRegistry builds a registry from fuzzed text and values: families of
// every kind, label values and HELP text taken from the strings, samples
// from the floats; shape's bits choose which families are described, which
// carry labels and whether a series is removed again.
func promRegistry(help, v1, v2 string, x, y float64, shape uint8) *Registry {
	r := NewRegistry()
	if shape&1 != 0 {
		r.Describe("spotcheck_ops_total", help)
	}
	r.Counter("spotcheck_ops_total", L("pool", v1)).Add(math.Abs(x))
	r.Counter("spotcheck_ops_total", L("pool", v2), L("zone", v1)).Add(math.Abs(y))
	if shape&2 != 0 {
		r.Counter("spotcheck_plain_total").Inc()
	}
	r.Gauge("spotcheck_depth").Set(x)
	r.Gauge("spotcheck_depth", L("b", v2), L("a", v1)).Set(y)
	r.Describe("spotcheck_depth", help+"\n"+v2)
	var labels []Label
	if shape&4 != 0 {
		labels = []Label{L("srv", v1)}
	}
	h := r.Histogram("spotcheck_dur_seconds", []float64{-1e15, -0.5, 0, 5e-324, 1, 1e15, math.MaxFloat64}, labels...)
	h.Observe(x)
	h.Observe(y)
	if shape&8 != 0 {
		r.Histogram("spotcheck_dur_seconds", nil, L("srv", v2)).Observe(x)
	}
	if shape&16 != 0 {
		r.Describe("spotcheck_dur_seconds", v1)
	}
	if shape&32 != 0 {
		r.Remove("spotcheck_ops_total", L("pool", v1))
	}
	if shape&64 != 0 {
		// A family whose only series is gone prints no header either.
		r.Gauge("spotcheck_gone", L("vm", v2)).Set(y)
		r.Remove("spotcheck_gone", L("vm", v2))
	}
	return r
}

func checkPromMatchesRef(t *testing.T, r *Registry) {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := refWritePrometheus(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("exposition differs from the fmt writer:\ngot:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

func TestWritePrometheusSpecialValues(t *testing.T) {
	for i, x := range specialValues {
		y := specialValues[(i+7)%len(specialValues)]
		checkPromMatchesRef(t, promRegistry(`a "help" \ line`+"\n", `q"u\o`+"\nte", "", x, y, uint8(i*37)))
	}
}

// FuzzWritePrometheus holds the buffered writer to the fmt writer it
// replaced over random families, HELP text and label values (backslashes,
// quotes and newlines included) and random samples.
func FuzzWritePrometheus(f *testing.F) {
	for i, x := range specialValues {
		f.Add(`help with \ and "quotes"`+"\n", `v"1\`, "v\n2", x, specialValues[len(specialValues)-1-i], uint8(i*29))
	}
	f.Add("", "", "", 0.0, 0.0, uint8(0))
	f.Add("operations", "spot", "on-demand", 3.0, 1.5, uint8(255))
	f.Fuzz(func(t *testing.T, help, v1, v2 string, x, y float64, shape uint8) {
		checkPromMatchesRef(t, promRegistry(help, v1, v2, x, y, shape))
	})
}
