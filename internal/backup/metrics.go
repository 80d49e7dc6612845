package backup

import "repro/internal/obs"

// Metrics publishes the backup fleet's state into an obs.Registry: fleet
// size, registered checkpoint streams, per-assignment fan-in, and each
// server's aggregate checkpoint ingest bandwidth (the quantity whose
// saturation produces Figure 7's knee). A nil *Metrics records nothing.
type Metrics struct {
	reg     *obs.Registry
	servers *obs.Gauge
	vms     *obs.Gauge
	fanIn   *obs.Histogram
}

// NewMetrics registers the backup instrument families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{
		reg:     reg,
		servers: reg.Gauge("spotcheck_backup_servers"),
		vms:     reg.Gauge("spotcheck_backup_vms"),
		fanIn:   reg.Histogram("spotcheck_backup_fanin", obs.CountBuckets),
	}
	reg.Describe("spotcheck_backup_servers", "Provisioned backup servers.")
	reg.Describe("spotcheck_backup_vms", "Nested VMs with a registered checkpoint stream.")
	reg.Describe("spotcheck_backup_fanin", "VMs multiplexed on the chosen backup server, per assignment.")
	reg.Describe("spotcheck_backup_ingest_mbs", "Aggregate checkpoint ingest bandwidth per backup server.")
	return m
}

// SetMetrics attaches metrics to the pool; pass nil to detach.
func (p *Pool) SetMetrics(m *Metrics) {
	p.metrics = m
	for _, s := range p.servers {
		s.ingest = nil // resolved against the previous registry, if any
	}
}

// sync refreshes the fleet-level gauges and one server's ingest gauge.
func (m *Metrics) sync(p *Pool, s *Server) {
	if m == nil {
		return
	}
	m.servers.Set(float64(len(p.servers)))
	m.vms.Set(float64(len(p.byVM)))
	if s != nil {
		// Resolved on the server's first sync — its provisioning, where the
		// series has always first appeared — and kept.
		if s.ingest == nil {
			s.ingest = m.reg.Gauge("spotcheck_backup_ingest_mbs", obs.L("server", s.ID()))
		}
		s.ingest.Set(s.IngestUtilization() * ingestMBs)
	}
}

// retired refreshes the fleet-level gauges and drops the retired server's
// labeled ingest series from the registry. Without the removal the series
// would survive Pool.Remove and report the server's last ingest forever.
func (m *Metrics) retired(p *Pool, s *Server) {
	if m == nil {
		return
	}
	m.servers.Set(float64(len(p.servers)))
	m.vms.Set(float64(len(p.byVM)))
	m.reg.Remove("spotcheck_backup_ingest_mbs", obs.L("server", s.ID()))
}

// assigned records a completed stream assignment onto server s.
func (m *Metrics) assigned(p *Pool, s *Server) {
	if m == nil {
		return
	}
	m.fanIn.Observe(float64(s.VMs()))
	m.sync(p, s)
}
