package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
)

// promBufs recycles the exposition buffers of finished scrapes.
var promBufs = sync.Pool{New: func() any { return new([]byte) }}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): # HELP / # TYPE headers per family, one line per series,
// histograms as cumulative <name>_bucket{le="..."} series plus _sum and
// _count. Families appear in registration order, series in label order, so
// successive scrapes diff cleanly. Every line is appended to one pooled
// buffer, which is written to w once.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bp := promBufs.Get().(*[]byte)
	b := (*bp)[:0]
	for _, f := range r.familiesInOrder() {
		f.mu.Lock()
		if len(f.sorted) > 0 {
			if f.help != "" {
				b = append(b, "# HELP "...)
				b = append(b, f.name...)
				b = append(b, ' ')
				b = appendEscaped(b, f.help, false)
				b = append(b, '\n')
			}
			b = append(b, "# TYPE "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, f.kind.String()...)
			b = append(b, '\n')
		}
		for _, s := range f.sorted {
			b = appendSeries(b, f, s)
		}
		f.mu.Unlock()
	}
	_, err := w.Write(b)
	*bp = b
	promBufs.Put(bp)
	return err
}

// appendSeries appends the exposition lines of one series of f.
func appendSeries(b []byte, f *family, s *series) []byte {
	switch f.kind {
	case KindCounter:
		b = appendName(b, f.name, "", s.labels, nil)
		return append(appendValue(append(b, ' '), s.ctr.Value()), '\n')
	case KindGauge:
		b = appendName(b, f.name, "", s.labels, nil)
		return append(appendValue(append(b, ' '), s.gauge.Value()), '\n')
	}
	// Prometheus bucket counts are cumulative and end at le="+Inf".
	h := s.hist
	var cum uint64
	var leBuf [32]byte
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := leBuf[:0]
		if i < len(h.bounds) {
			le = appendValue(le, h.bounds[i])
		} else {
			le = append(le, "+Inf"...)
		}
		b = appendName(b, f.name, "_bucket", s.labels, le)
		b = strconv.AppendUint(append(b, ' '), cum, 10)
		b = append(b, '\n')
	}
	b = appendName(b, f.name, "_sum", s.labels, nil)
	b = appendValue(append(b, ' '), h.Sum())
	b = appendName(append(b, '\n'), f.name, "_count", s.labels, nil)
	b = strconv.AppendUint(append(b, ' '), h.Count(), 10)
	return append(b, '\n')
}

// appendName appends name+suffix and the {k="v",...} label set with
// Prometheus escaping; a non-nil le is appended as a last le label.
// Without labels nothing follows the name.
func appendName(b []byte, name, suffix string, labels []Label, le []byte) []byte {
	b = append(append(b, name...), suffix...)
	if len(labels) == 0 && le == nil {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, l.Key...), `="`...)
		b = append(appendEscaped(b, l.Value, true), '"')
	}
	if le != nil {
		if len(labels) > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, `le="`...), le...), '"')
	}
	return append(b, '}')
}

// appendEscaped appends v with backslashes and newlines escaped, and with
// double quotes escaped too in a label value (HELP text keeps them).
func appendEscaped(b []byte, v string, label bool) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; {
		case c == '\\':
			b = append(b, `\\`...)
		case c == '\n':
			b = append(b, `\n`...)
		case c == '"' && label:
			b = append(b, `\"`...)
		default:
			b = append(b, c)
		}
	}
	return b
}

// appendValue appends a sample value: ±Inf spelled out, an integer below
// 1e15 in decimal digits, anything else in the shortest %g form.
func appendValue(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.AppendInt(b, int64(v), 10)
	default:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
}
