package core

import (
	"repro/internal/migration"
	"repro/internal/obs"
)

// coreMetrics holds the controller's pre-resolved instruments; the per-pool
// ones live on their poolState. The instruments are atomics, so a concurrent
// scrape (spotcheckd's /metrics) always reads a consistent point.
//
// ControllerStats is reconstructed from these instruments by Stats() — the
// registry is the single source of truth; there is no shadow tally.
type coreMetrics struct {
	reg *obs.Registry
	mig *migration.Metrics

	vmsCreated  *obs.Counter
	vmsReleased *obs.Counter
	// migStarted counts migrateVM entries by reason; migAborted counts
	// return migrations undone before any copy happened (spot vanished
	// between the calm check and acquisition). Counters stay monotonic;
	// net migrations = started - aborted.
	migStarted  [numReasons]*obs.Counter
	migAborted  *obs.Counter
	revocations *obs.Counter
	stateLost   *obs.Counter
	destFails   *obs.Counter
	predictive  *obs.Counter
	predMisses  *obs.Counter
	sliced      *obs.Counter
	monitorTick *obs.Counter
	provErrs    *obs.Counter
	stormVMs    *obs.Histogram
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	m := &coreMetrics{
		reg:         reg,
		mig:         migration.NewMetrics(reg),
		vmsCreated:  reg.Counter("spotcheck_vms_created_total"),
		vmsReleased: reg.Counter("spotcheck_vms_released_total"),
		migAborted:  reg.Counter("spotcheck_migrations_aborted_total"),
		revocations: reg.Counter("spotcheck_revocation_warnings_total"),
		stateLost:   reg.Counter("spotcheck_vms_lost_memory_state_total"),
		destFails:   reg.Counter("spotcheck_destination_failures_total"),
		predictive:  reg.Counter("spotcheck_predictive_migrations_total"),
		predMisses:  reg.Counter("spotcheck_predictive_misses_total"),
		sliced:      reg.Counter("spotcheck_hosts_sliced_total"),
		monitorTick: reg.Counter("spotcheck_monitor_ticks_total"),
		provErrs:    reg.Counter("spotcheck_provider_errors_total"),
		stormVMs:    reg.Histogram("spotcheck_revocation_batch_vms", obs.CountBuckets),
	}
	for r := migrationReason(0); r < numReasons; r++ {
		m.migStarted[r] = reg.Counter("spotcheck_migrations_started_total", obs.L("reason", r.String()))
	}
	reg.Describe("spotcheck_vms_created_total", "Nested VMs requested by customers.")
	reg.Describe("spotcheck_vms_released_total", "Nested VMs released by customers.")
	reg.Describe("spotcheck_migrations_started_total", "Nested VM migrations begun, by reason.")
	reg.Describe("spotcheck_migrations_aborted_total", "Return migrations abandoned before any copy.")
	reg.Describe("spotcheck_revocation_warnings_total", "Per-VM revocation warnings received.")
	reg.Describe("spotcheck_vms_lost_memory_state_total", "VMs whose memory state was lost (live overrun or predictive miss).")
	reg.Describe("spotcheck_destination_failures_total", "Failed destination/host acquisitions.")
	reg.Describe("spotcheck_predictive_migrations_total", "Trend-triggered predictive evacuations.")
	reg.Describe("spotcheck_predictive_misses_total", "Predictive evacuations whose source was revoked mid-copy.")
	reg.Describe("spotcheck_hosts_sliced_total", "Acquired hosts sliced into multiple nested VM slots.")
	reg.Describe("spotcheck_monitor_ticks_total", "Controller monitor loop iterations.")
	reg.Describe("spotcheck_provider_errors_total", "Unexpected provider errors (not ErrNotFound) swallowed by periodic sweeps.")
	reg.Describe("spotcheck_revocation_batch_vms", "Running VMs displaced per revocation batch (Table 3 storms).")
	reg.Describe("spotcheck_hosts_acquired_total", "Native hosts acquired, by pool.")
	reg.Describe("spotcheck_spot_requests_total", "Spot bids placed, by pool.")
	reg.Describe("spotcheck_pool_bid_usd", "Current spot bid, by pool.")
	reg.Describe("spotcheck_pool_hosts", "Native hosts currently in the pool.")
	reg.Describe("spotcheck_pool_vms", "Nested VMs currently hosted in the pool.")
	return m
}

func poolLabel(pool *poolState) obs.Label { return obs.L("pool", pool.label) }

func (m *coreMetrics) hostAcquired(pool *poolState) {
	if pool.hostsAcquired == nil {
		pool.hostsAcquired = m.reg.Counter("spotcheck_hosts_acquired_total", poolLabel(pool))
	}
	pool.hostsAcquired.Inc()
}

func (m *coreMetrics) bidPlaced(pool *poolState, bid float64) {
	if pool.spotRequests == nil {
		pool.spotRequests = m.reg.Counter("spotcheck_spot_requests_total", poolLabel(pool))
		pool.bidGauge = m.reg.Gauge("spotcheck_pool_bid_usd", poolLabel(pool))
	}
	pool.spotRequests.Inc()
	pool.bidGauge.Set(bid)
}

// syncPool refreshes a pool's occupancy gauges from its current state.
func (m *coreMetrics) syncPool(pool *poolState) {
	if pool.hostGauge == nil {
		pool.hostGauge = m.reg.Gauge("spotcheck_pool_hosts", poolLabel(pool))
		pool.vmGauge = m.reg.Gauge("spotcheck_pool_vms", poolLabel(pool))
	}
	pool.hostGauge.Set(float64(pool.hosts.Len()))
	pool.vmGauge.Set(float64(pool.vmCount))
}

// syncPoolOf refreshes the gauges of the pool a host belongs to.
func (c *Controller) syncPoolOf(h *hostState) {
	if h != nil && h.pool != nil {
		c.met.syncPool(h.pool)
	}
}

// Stats derives the controller counters from the metrics registry, keeping
// the historical ControllerStats shape. Counter increments are exact in
// float64 far beyond any simulated event count, so the int conversions are
// lossless. It settles the monitor's tick accounting first (Settle).
func (c *Controller) Stats() ControllerStats {
	c.Settle()
	m := c.met
	started := func(r migrationReason) float64 { return m.migStarted[r].Value() }
	aborted := m.migAborted.Value()
	total := started(reasonRevocation) + started(reasonProactive) +
		started(reasonReturn) + started(reasonStagingHop)
	return ControllerStats{
		VMsCreated:           int(m.vmsCreated.Value()),
		VMsReleased:          int(m.vmsReleased.Value()),
		Migrations:           int(total - aborted),
		Revocations:          int(m.revocations.Value()),
		ProactiveMigrations:  int(started(reasonProactive)),
		ReturnMigrations:     int(started(reasonReturn) - aborted),
		StagingMigrations:    int(started(reasonStagingHop)),
		VMsLostMemoryState:   int(m.stateLost.Value()),
		HostsAcquired:        int(m.reg.Total("spotcheck_hosts_acquired_total")),
		SlicedHosts:          int(m.sliced.Value()),
		DestinationFailures:  int(m.destFails.Value()),
		PredictiveMigrations: int(m.predictive.Value()),
		PredictiveMisses:     int(m.predMisses.Value()),
	}
}
