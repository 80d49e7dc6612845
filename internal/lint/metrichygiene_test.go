package lint

import "testing"

func TestMetricHygiene(t *testing.T) {
	tests := []struct {
		name string
		rel  string
		src  string
		want []string
	}{
		{
			name: "sprintf-minted name flagged",
			rel:  "internal/core",
			src: `package core
import "fmt"
func f(reg registry, pool string) {
	reg.Counter(fmt.Sprintf("spotcheck_%s_total", pool)).Inc()
}
type registry interface{ Counter(name string, labels ...string) counter }
type counter interface{ Inc() }
`,
			want: []string{"must be a compile-time string constant"},
		},
		{
			name: "variable name flagged",
			rel:  "internal/backup",
			src: `package backup
func f(reg registry, name string) { reg.Gauge(name) }
type registry interface{ Gauge(name string) }
`,
			want: []string{"must be a compile-time string constant"},
		},
		{
			name: "missing prefix flagged",
			rel:  "internal/cloudsim",
			src: `package cloudsim
func f(reg registry) {
	reg.Counter("cloudsim_price_ticks_total")
	reg.Describe("cloudsim_price_ticks_total", "ticks")
}
type registry interface {
	Counter(name string)
	Describe(name, help string)
}
`,
			want: []string{`must carry the "spotcheck_" prefix`, `must carry the "spotcheck_" prefix`},
		},
		{
			name: "prefixed literal and const allowed",
			rel:  "internal/migration",
			src: `package migration
const metricRestores = "spotcheck_restores_total"
func f(reg registry) {
	reg.Counter(metricRestores)
	reg.Histogram("spotcheck_live_downtime_seconds", nil)
	reg.Remove(metricRestores)
}
type registry interface {
	Counter(name string)
	Histogram(name string, buckets []float64)
	Remove(name string)
}
`,
		},
		{
			name: "registry-receiver Remove and Total checked",
			rel:  "internal/core",
			src: `package core
func f(m metrics) {
	m.reg.Remove("wrong_prefix_series")
	_ = m.reg.Total("also_wrong")
}
type metrics struct{ reg registry }
type registry interface {
	Remove(name string)
	Total(name string) float64
}
`,
			want: []string{`must carry the "spotcheck_" prefix`, `must carry the "spotcheck_" prefix`},
		},
		{
			name: "unrelated Remove and Total out of scope",
			rel:  "internal/backup",
			src: `package backup
func f(p *pool, s snapshot) {
	p.Remove("backup-003")
	_ = s.Total("anything")
}
type pool struct{}
func (*pool) Remove(id string) {}
type snapshot interface{ Total(name string) float64 }
`,
		},
		{
			name: "obs package itself exempt",
			rel:  "internal/obs",
			src: `package obs
func f(r *Registry) { r.Counter("jobs_total") }
type Registry struct{}
func (*Registry) Counter(name string) {}
`,
		},
		{
			name: "suppressed with reason",
			rel:  "internal/experiments",
			src: `package experiments
func f(reg registry, name string) {
	//lint:ignore metrichygiene fixture: name validated upstream against a fixed set
	reg.Gauge(name)
}
type registry interface{ Gauge(name string) }
`,
		},
		{
			name: "lookup-and-record in one expression flagged",
			rel:  "internal/cloudsim",
			src: `package cloudsim
const metricBilled = "spotcheck_billed_usd_total"
func f(m *metrics, market string, usd, ingest, fanin float64) {
	m.reg.Counter(metricBilled, L("market", market)).Add(usd)
	m.reg.Gauge("spotcheck_ingest_mbs", L("server", market)).
		Set(ingest)
	(m.reg.Histogram("spotcheck_fanin", nil)).Observe(fanin)
}
type metrics struct{ reg *registry }
type registry struct{}
type label struct{}
func L(k, v string) label { return label{} }
type instrument struct{}
func (*registry) Counter(name string, l ...label) *instrument { return nil }
func (*registry) Gauge(name string, l ...label) *instrument { return nil }
func (*registry) Histogram(name string, b []float64, l ...label) *instrument { return nil }
func (*instrument) Add(float64) {}
func (*instrument) Set(float64) {}
func (*instrument) Observe(float64) {}
`,
			want: []string{"Counter(...).Add looks the instrument up", "Gauge(...).Set looks the instrument up", "Histogram(...).Observe looks the instrument up"},
		},
		{
			name: "resolve-once and unrelated chains allowed",
			rel:  "internal/backup",
			src: `package backup
func f(m *metrics, s *server, set *bitset, v float64) {
	if s.ingest == nil {
		s.ingest = m.reg.Gauge("spotcheck_backup_ingest_mbs")
	}
	s.ingest.Set(v)
	m.fanIn.Observe(v)
	set.Counter("spotcheck_bits").Set(3) // Counter paired with Set: not the record shape
	m.total().Add(v)
}
type metrics struct{ reg *registry; fanIn *instrument }
func (*metrics) total() *instrument { return nil }
type server struct{ ingest *instrument }
type registry struct{}
func (*registry) Gauge(name string) *instrument { return nil }
type instrument struct{}
func (*instrument) Set(float64) {}
func (*instrument) Observe(float64) {}
func (*instrument) Add(float64) {}
type bitset struct{}
func (*bitset) Counter(name string) *bits { return nil }
type bits struct{}
func (*bits) Set(int) {}
`,
		},
		{
			name: "lookup-and-record suppressed with reason",
			rel:  "internal/core",
			src: `package core
func f(reg *registry, usd float64) {
	//lint:ignore metrichygiene fixture: runs once at shutdown, keeping a pointer would outlive its use
	reg.Counter("spotcheck_final_bill_usd_total").
		Add(usd)
}
type registry struct{}
type instrument struct{}
func (*registry) Counter(name string) *instrument { return nil }
func (*instrument) Add(float64) {}
`,
		},
		{
			name: "lookup-and-record exempt inside obs",
			rel:  "internal/obs",
			src: `package obs
func f(r *Registry) { r.Counter("spotcheck_jobs_total").Add(1) }
type Registry struct{}
type Counter struct{}
func (*Registry) Counter(name string) *Counter { return nil }
func (*Counter) Add(float64) {}
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			wantFindings(t, runOne(t, MetricHygiene, tt.rel, tt.src), tt.want...)
		})
	}
}
