package cloudsim

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/slab"
	"repro/internal/spotmarket"
)

// Config assembles a simulated platform.
type Config struct {
	Catalog []cloud.InstanceType // defaults to cloud.DefaultCatalog()
	Zones   []cloud.Zone         // defaults to cloud.DefaultZones()
	Traces  spotmarket.Set       // required: spot price traces per market

	// WarningWindow is the interval between a revocation warning and the
	// forced termination. Defaults to EC2's cloud.WarningWindow.
	WarningWindow simkit.Time
	// Latencies models control-plane operation latency (Table 1).
	Latencies OpLatencies
	// Seed drives latency sampling and failure injection.
	Seed int64

	// ODStockoutProb is the probability that an on-demand launch fails
	// with ErrCapacity (the rare stock-out of §4.3). Zero disables.
	ODStockoutProb float64
	// Capacity caps the number of concurrently existing (pending or
	// running) instances per type; requests beyond it fail with
	// ErrCapacity. Types absent from the map are unlimited. Models the
	// platform "occasionally running out" of a type (§4.3).
	Capacity map[string]int
	// BillingIncrement switches from continuous billing (zero, the
	// default) to period billing like 2015-era EC2 (one hour): every
	// started period is charged in full at the price in effect at its
	// start — except a spot instance's final partial period, which is
	// free when the *platform* reclaimed the instance (Amazon's rule
	// that customers do not pay for the interrupted partial hour).
	BillingIncrement simkit.Time
	// VPC is the private address block for nested VM IPs.
	// Defaults to 10.0.0.0/8.
	VPC netip.Prefix

	// ExpectedInstances is a capacity hint: it pre-sizes the instance
	// ledger and indexes so a run of known scale never regrows them. Zero
	// grows on demand; no output depends on it.
	ExpectedInstances int
	// CompactTerminated has no effect; deleted with the bench/ edit in Move 2.
	CompactTerminated bool
	// PrefixBilling has no effect; deleted with the bench/ edit in Move 2.
	PrefixBilling bool

	// Metrics, if non-nil, receives platform instruments (price ticks,
	// warnings, launches, finalized billing) under the spotcheck_cloudsim_
	// prefix.
	Metrics *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Catalog == nil {
		c.Catalog = cloud.DefaultCatalog()
	}
	if c.Zones == nil {
		c.Zones = cloud.DefaultZones()
	}
	if c.WarningWindow == 0 {
		c.WarningWindow = cloud.WarningWindow
	}
	if c.Latencies == (OpLatencies{}) {
		c.Latencies = DefaultOpLatencies()
	}
	if !c.VPC.IsValid() {
		c.VPC = netip.MustParsePrefix("10.0.0.0/8")
	}
}

// Stats counts platform-level events, exposed for tests and reports.
type Stats struct {
	Launched              int
	SpotLaunched          int
	WarningsIssued        int
	ForcedTerminations    int
	VoluntaryTerminations int
	ODStockouts           int
}

// Platform is the simulated native IaaS provider.
type Platform struct {
	sched *simkit.Scheduler
	cfg   Config
	rng   *rand.Rand

	types map[string]cloud.InstanceType

	// instSlab holds every live instance's state in chunked, index-addressed
	// storage; destroy recycles the slot, so it holds live instances only.
	instSlab *slab.Slab[instanceState]
	// ledger has one entry per instance id ever issued, indexed by the id's
	// sequence number (ids are minted from a counter, so idSeq reads the
	// index straight off the id and nothing is hashed): the live instance's
	// handle, or — once terminated — its whole-life bill, which AccruedCost
	// keeps answering. Entry 0 is never issued; the next id is len(ledger).
	ledger []ledgerEntry
	// volumes holds every volume by its id's sequence number; a deleted
	// volume leaves nil behind, entry 0 is never issued.
	volumes []*cloud.Volume

	// markets holds one record per traced (type, zone) spot market in the
	// canonical key order (spotmarket.Set.Keys); a pair without a record has
	// no spot market, now or later. byKey finds a record by its pair; guess
	// is the index after the record market() last returned, tried first.
	markets []market
	byKey   map[spotmarket.MarketKey]*market
	guess   int
	// crossFn is crossing bound once; due is its scratch list of the markets
	// whose crossings fall on one instant; scans counts Cursor.NextAbove
	// calls (the work an arm costs; tests pin it).
	crossFn func(uint64)
	due     []*market
	scans   uint64

	ipPool *ipPool

	// ops holds the delayed completions in flight (see op); opFree lists the
	// free entries, opDoneFn is opDone bound once.
	ops      []op
	opFree   []uint32
	opDoneFn func(uint64)
	// forcedKillFn is forcedKill bound once.
	forcedKillFn func(uint64)

	// liveCount tracks non-terminated instances per type for Capacity.
	liveCount map[string]int

	revocationListeners []func(cloud.RevocationWarning)

	stats Stats
	met   *platMetrics
}

// Platform metric families. They live in the project-wide spotcheck_
// namespace (one scrape prefix, enforced by spotlint's metrichygiene
// check), with a cloudsim_ segment marking them as ground truth from the
// native provider rather than controller accounting.
const (
	metricWarnings     = "spotcheck_cloudsim_revocation_warnings_total"
	metricForced       = "spotcheck_cloudsim_forced_terminations_total"
	metricLaunched     = "spotcheck_cloudsim_instances_launched_total"
	metricPriceTicks   = "spotcheck_cloudsim_price_ticks_total"
	metricBillingFinal = "spotcheck_cloudsim_billing_finalized_usd_total"
)

// platMetrics holds the platform's pre-resolved instruments. A nil
// *platMetrics (no Config.Metrics) records nothing.
type platMetrics struct {
	reg        *obs.Registry
	warnings   *obs.Counter
	forced     *obs.Counter
	launchedOD *obs.Counter
	launchedSp *obs.Counter
	// billedBy holds the billing counter per cloud.Market, resolved on the
	// market's first bill: a series appears in a snapshot only once it has
	// something to report.
	billedBy [cloud.MarketSpot + 1]*obs.Counter
}

func newPlatMetrics(reg *obs.Registry) *platMetrics {
	if reg == nil {
		return nil
	}
	m := &platMetrics{
		reg:        reg,
		warnings:   reg.Counter(metricWarnings),
		forced:     reg.Counter(metricForced),
		launchedOD: reg.Counter(metricLaunched, obs.L("market", "on-demand")),
		launchedSp: reg.Counter(metricLaunched, obs.L("market", "spot")),
	}
	reg.Describe(metricWarnings, "Revocation warnings issued to spot instances.")
	reg.Describe(metricForced, "Spot instances reclaimed at their warning deadline.")
	reg.Describe(metricLaunched, "Native instances launched, by market.")
	reg.Describe(metricPriceTicks, "Spot price changes observed, by market.")
	reg.Describe(metricBillingFinal, "Accrued cost of terminated instances, by market.")
	return m
}

// billed adds a terminated instance's final accrued cost to the billing
// counter for its market.
func (m *platMetrics) billed(market cloud.Market, usd float64) {
	if m == nil || usd <= 0 {
		return
	}
	ctr := m.billedBy[market]
	if ctr == nil {
		ctr = m.reg.Counter(metricBillingFinal, obs.L("market", market.String()))
		m.billedBy[market] = ctr
	}
	ctr.Add(usd)
}

func (m *platMetrics) launched(market cloud.Market) {
	if m == nil {
		return
	}
	if market == cloud.MarketSpot {
		m.launchedSp.Inc()
	} else {
		m.launchedOD.Inc()
	}
}

// market is everything the platform keeps per traced spot market.
type market struct {
	key   spotmarket.MarketKey
	index int // position in Platform.markets
	trace *spotmarket.Trace
	// cursor is the market's one position in its trace. Every reader asks at
	// the scheduler's Now, which never moves backwards, so lookups are
	// amortized O(1) instead of a binary search each.
	cursor spotmarket.Cursor
	// spots holds the market's running spot instances for the revocation
	// sweep.
	spots spotList
	// armed is the market's one price-change event: the first trace point,
	// after the time it was armed, priced above armedFloor — none when the
	// price never exceeds armedFloor again. armedFloor is +Inf while spots
	// is empty and otherwise never above the lowest outstanding bid, so no
	// instance can be underbid before armed fires.
	armed      simkit.Event
	armedFloor cloud.USD
	// prefix is the cumulative price integral F, built at the market's
	// first spot launch under continuous billing. cum memoizes F at cumAt,
	// the last instant it was asked for (the zero memo is right: F(0) = 0):
	// every bill of a running instance asks at now, so a report billing the
	// market's whole fleet searches the trace once.
	prefix *spotmarket.PrefixIntegral
	cumAt  simkit.Time
	cum    float64
	// ticks counts the price changes the platform has observed (nil without
	// Config.Metrics); counted is how many of the changes behind the cursor
	// it has been given.
	ticks   *obs.Counter
	counted int
}

// cumulative returns F(t) of the market's price trace, searching the trace
// only when t is not the instant asked last.
func (m *market) cumulative(t simkit.Time) float64 {
	if m.cumAt != t {
		m.cumAt, m.cum = t, m.prefix.Cumulative(t)
	}
	return m.cum
}

// observe moves the market's cursor to t and returns the price there,
// advancing the tick counter to the price changes up to t when it has not
// been given them yet: the counter holds the changes up to the latest time
// anyone asked about, whatever order the questions came in.
func (m *market) observe(t simkit.Time) cloud.USD {
	price := m.cursor.PriceAt(t)
	if i := m.cursor.Index(); i > m.counted {
		if m.ticks != nil {
			m.ticks.Add(float64(i - m.counted))
		}
		m.counted = i
	}
	return price
}

type instanceState struct {
	inst        *cloud.Instance
	slot        slab.Handle  // this state's own slab handle
	market      *market      // spot only
	forcedKill  simkit.Event // pending forced termination, if warned
	terminating bool
	// seq is the platform's launch counter for this instance — the numeric
	// suffix of its id. Ordering spot lists by seq instead of the id string
	// avoids the fold where "i-1000000" sorts before "i-999999" once ids
	// outgrow their zero padding, which would turn nearly every insert into
	// a whole-list walk.
	seq int
	// inList marks membership in the market's spotList, guarding against
	// a double remove (e.g. a voluntary terminate racing a forced kill);
	// listIdx is the entry's position there, kept current by compaction,
	// so removal is one indexed write.
	inList  bool
	listIdx int
	// reclaimed marks a spot instance the platform force-terminated (its
	// final partial billing period is then free under period billing).
	reclaimed bool
	// launchCum is F(Launched) of a continuously billed spot instance's
	// market (see market.prefix), taken at launch: its bill up to t is
	// F(t) − launchCum, the two terms PrefixIntegral.Integrate subtracts.
	// Zero, which is F(0), until it launches.
	launchCum float64
}

// spotList is one market's running spot instances in launch order
// (deterministic warning delivery without a per-sweep copy-and-sort; a
// launch completing out of order — start latency is sampled — is repaired
// lazily by Ordered). Only launch and destroy events mutate the list, never
// a warning sweep.
type spotList struct {
	insts slab.RefList[instanceState]
	// minBid/minBidCount track the smallest outstanding bid and how many
	// instances hold it; a price move that stays at or below minBid cannot
	// underbid anyone, so the revocation sweep skips the whole market.
	minBid      cloud.USD
	minBidCount int
	minBidDirty bool
}

func setListIdx(st *instanceState, i int) { st.listIdx = i }

func (l *spotList) insert(st *instanceState) {
	st.inList = true
	st.listIdx = l.insts.Add(st.slot, uint64(st.seq))
	bid := st.inst.Bid
	switch {
	case l.insts.Len() == 1 || (!l.minBidDirty && bid < l.minBid):
		l.minBid, l.minBidCount, l.minBidDirty = bid, 1, false
	case !l.minBidDirty && bid == l.minBid:
		l.minBidCount++
	}
}

func (l *spotList) remove(st *instanceState) {
	if !st.inList {
		return
	}
	st.inList = false
	l.insts.Remove(st.slot, st.listIdx)
	if !l.minBidDirty && st.inst.Bid == l.minBid {
		l.minBidCount--
		if l.minBidCount <= 0 {
			l.minBidDirty = true
		}
	}
}

// floor returns the market's minimum outstanding bid, recomputing it after
// the last minimum-bid holder left.
func (l *spotList) floor(s *slab.Slab[instanceState]) cloud.USD {
	if l.minBidDirty {
		l.minBid, l.minBidCount = 0, 0
		for _, r := range l.insts.Ordered() {
			st := s.Get(r.Slot)
			if st == nil || !st.inList {
				continue
			}
			switch {
			case l.minBidCount == 0 || st.inst.Bid < l.minBid:
				l.minBid, l.minBidCount = st.inst.Bid, 1
			case st.inst.Bid == l.minBid:
				l.minBidCount++
			}
		}
		l.minBidDirty = false
	}
	return l.minBid
}

// New builds a platform on the given scheduler.
func New(sched *simkit.Scheduler, cfg Config) (*Platform, error) {
	cfg.fillDefaults()
	if len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("cloudsim: config needs spot price traces")
	}
	exp := cfg.ExpectedInstances
	p := &Platform{
		sched:     sched,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		types:     make(map[string]cloud.InstanceType, len(cfg.Catalog)),
		instSlab:  slab.New[instanceState](exp),
		ledger:    make([]ledgerEntry, 1, exp+1),
		volumes:   make([]*cloud.Volume, 1, exp+1),
		markets:   make([]market, len(cfg.Traces)),
		byKey:     make(map[spotmarket.MarketKey]*market, len(cfg.Traces)),
		ipPool:    newIPPool(cfg.VPC, exp),
		liveCount: map[string]int{},
		met:       newPlatMetrics(cfg.Metrics),
	}
	p.opDoneFn = p.opDone
	p.forcedKillFn = p.forcedKill
	p.crossFn = p.crossing
	for _, it := range cfg.Catalog {
		p.types[it.Name] = it
	}
	// A market schedules nothing until a spot instance joins it (see arm).
	for i, key := range cfg.Traces.Keys() {
		tr := cfg.Traces[key]
		m := &p.markets[i]
		*m = market{
			key:        key,
			index:      i,
			trace:      tr,
			cursor:     tr.Cursor(),
			spots:      spotList{insts: slab.NewRefList(p.instSlab, setListIdx, nil)},
			armedFloor: noFloor,
		}
		if p.met != nil {
			m.ticks = p.met.reg.Counter(metricPriceTicks, obs.L("market", key.String()))
		}
		p.byKey[key] = m
	}
	return p, nil
}

// Stats returns event counters.
func (p *Platform) Stats() Stats { return p.stats }

// Now implements cloud.Provider.
func (p *Platform) Now() simkit.Time { return p.sched.Now() }

// Catalog implements cloud.Provider.
func (p *Platform) Catalog() []cloud.InstanceType {
	return append([]cloud.InstanceType(nil), p.cfg.Catalog...)
}

// TypeByName implements cloud.Provider.
func (p *Platform) TypeByName(name string) (cloud.InstanceType, bool) {
	it, ok := p.types[name]
	return it, ok
}

// Zones implements cloud.Provider.
func (p *Platform) Zones() []cloud.Zone {
	return append([]cloud.Zone(nil), p.cfg.Zones...)
}

// OnDemandPrice implements cloud.Provider.
func (p *Platform) OnDemandPrice(typ string) (cloud.USD, error) {
	it, ok := p.types[typ]
	if !ok {
		return 0, fmt.Errorf("%w: type %q", cloud.ErrNotFound, typ)
	}
	return it.OnDemand, nil
}

// SpotPrice implements cloud.Provider.
func (p *Platform) SpotPrice(typ string, zone cloud.Zone) (cloud.USD, error) {
	m, err := p.market(typ, zone)
	if err != nil {
		return 0, err
	}
	return m.observe(p.sched.Now()), nil
}

// SpotPriceAt implements cloud.Provider through the market's one cursor,
// which re-anchors when asked about an earlier time than its last question.
func (p *Platform) SpotPriceAt(typ string, zone cloud.Zone, t simkit.Time) (cloud.USD, simkit.Time, error) {
	m, err := p.market(typ, zone)
	if err != nil {
		return 0, 0, err
	}
	now := p.sched.Now()
	if t > now {
		return 0, 0, fmt.Errorf("cloudsim: price history of %s/%s asked at %v, after now %v", typ, zone, t, now)
	}
	// A trace's price before its start is its first (Trace.PriceAt clamps).
	price := m.observe(max(t, 0))
	next := cloud.NoChange
	if i := m.cursor.Index() + 1; i < m.trace.Len() {
		if at := m.trace.PointAt(i).T; at <= now {
			next = at
		}
	}
	return price, next, nil
}

// market returns the record of a traced spot market. Callers that sweep the
// markets do so in key order (the controller's settle asks every one), so
// the record after the last one returned is tried first — a string compare
// that is a pointer compare when the caller's keys are the trace set's own —
// and only a miss hashes the pair, which also re-syncs the guess.
func (p *Platform) market(typ string, zone cloud.Zone) (*market, error) {
	m := &p.markets[p.guess]
	if m.key.Type != typ || m.key.Zone != zone {
		if m = p.byKey[spotmarket.MarketKey{Type: typ, Zone: zone}]; m == nil {
			return nil, fmt.Errorf("%w: no spot market for %s/%s", cloud.ErrNotFound, typ, zone)
		}
	}
	if p.guess = m.index + 1; p.guess == len(p.markets) {
		p.guess = 0
	}
	return m, nil
}

// RunOnDemand implements cloud.Provider.
func (p *Platform) RunOnDemand(typ string, zone cloud.Zone, cb cloud.InstanceCallback) {
	it, ok := p.types[typ]
	if !ok {
		cb(nil, fmt.Errorf("%w: type %q", cloud.ErrNotFound, typ))
		return
	}
	if p.cfg.ODStockoutProb > 0 && p.rng.Float64() < p.cfg.ODStockoutProb {
		p.stats.ODStockouts++
		cb(nil, fmt.Errorf("%w: on-demand %s in %s", cloud.ErrCapacity, typ, zone))
		return
	}
	if err := p.checkCapacity(typ); err != nil {
		p.stats.ODStockouts++
		cb(nil, err)
		return
	}
	st := p.newInstance(it, zone, cloud.MarketOnDemand, 0)
	delay := simkit.SampleSeconds(p.cfg.Latencies.StartOnDemand, p.rng)
	p.after(delay, "od-launch", op{kind: opLaunch, h: st.slot, inst: st.inst, icb: cb})
}

// RequestSpot implements cloud.Provider.
func (p *Platform) RequestSpot(typ string, zone cloud.Zone, bid cloud.USD, cb cloud.InstanceCallback) {
	it, ok := p.types[typ]
	if !ok {
		cb(nil, fmt.Errorf("%w: type %q", cloud.ErrNotFound, typ))
		return
	}
	m, err := p.market(typ, zone)
	if err != nil {
		cb(nil, err)
		return
	}
	if cur := m.observe(p.sched.Now()); bid <= cur {
		cb(nil, fmt.Errorf("%w: bid %v <= market %v for %s/%s", cloud.ErrBidTooLow, bid, cur, typ, zone))
		return
	}
	if err := p.checkCapacity(typ); err != nil {
		cb(nil, err)
		return
	}
	st := p.newInstance(it, zone, cloud.MarketSpot, bid)
	st.market = m
	delay := simkit.SampleSeconds(p.cfg.Latencies.StartSpot, p.rng)
	p.after(delay, "spot-launch", op{kind: opLaunch, h: st.slot, inst: st.inst, icb: cb})
}

// checkCapacity enforces the per-type fleet cap.
func (p *Platform) checkCapacity(typ string) error {
	limit, capped := p.cfg.Capacity[typ]
	if !capped {
		return nil
	}
	if p.liveCount[typ] >= limit {
		return fmt.Errorf("%w: type %s at its capacity of %d", cloud.ErrCapacity, typ, limit)
	}
	return nil
}

// ledgerEntry is what the platform knows under one issued instance id.
type ledgerEntry struct {
	live slab.Handle // the instance's state while it exists, zero after
	bill cloud.USD   // its whole-life bill once it has terminated
}

// idDigits is the zero-padded width of the platform's instance and volume
// ids (cloud.SeqID).
const idDigits = 6

// paddedID mints the n-th id under prefix: fmt.Sprintf(prefix+"%06d", n).
func paddedID(prefix string, n int) string { return cloud.SeqID(prefix, idDigits, n) }

// idSeq is paddedID's strict inverse (cloud.ParseSeqID).
func idSeq(prefix, id string) (int, bool) { return cloud.ParseSeqID(prefix, idDigits, id) }

// issued reports the ledger index of an instance id this platform minted,
// or 0 for any other string.
func (p *Platform) issued(id cloud.InstanceID) int {
	if n, ok := idSeq("i-", string(id)); ok && n < len(p.ledger) {
		return n
	}
	return 0
}

// lookupInst resolves an external instance id to its live ledger entry (nil
// when unknown or terminated).
func (p *Platform) lookupInst(id cloud.InstanceID) *instanceState {
	return p.instSlab.Get(p.ledger[p.issued(id)].live)
}

// errNoInstance is the error of an operation whose lookupInst missed: a
// terminated instance is in the wrong state for it, an id never issued
// does not exist. The controller tells the two apart — racing a
// termination is expected, addressing nothing is not.
func (p *Platform) errNoInstance(id cloud.InstanceID) error {
	if p.issued(id) != 0 {
		return fmt.Errorf("%w: instance %s is terminated", cloud.ErrBadState, id)
	}
	return fmt.Errorf("%w: instance %s", cloud.ErrNotFound, id)
}

func (p *Platform) newInstance(it cloud.InstanceType, zone cloud.Zone, market cloud.Market, bid cloud.USD) *instanceState {
	seq := len(p.ledger)
	st, h := p.instSlab.Alloc()
	*st = instanceState{
		slot: h,
		seq:  seq,
		inst: &cloud.Instance{
			ID: cloud.InstanceID(paddedID("i-", seq)), Type: it, Zone: zone, Market: market, Bid: bid,
			State: cloud.StatePending,
		},
	}
	p.ledger = append(p.ledger, ledgerEntry{live: h})
	p.liveCount[it.Name]++
	return st
}

// launched completes a launch: the instance starts running and its renter
// hears of it; a spot instance joins its market's revocation sweep.
func (p *Platform) launched(o op) {
	// The instance may have been terminated mid-launch; the generation
	// check catches its recycled handle.
	st := p.instSlab.Get(o.h)
	if st == nil {
		o.icb(nil, fmt.Errorf("%w: instance %s terminated during launch", cloud.ErrBadState, o.inst.ID))
		return
	}
	st.inst.State = cloud.StateRunning
	st.inst.Launched = p.sched.Now()
	p.stats.Launched++
	p.met.launched(st.inst.Market)
	o.icb(st.inst, nil)
	if m := st.market; m != nil {
		p.stats.SpotLaunched++
		if p.cfg.BillingIncrement == 0 {
			if m.prefix == nil {
				m.prefix = m.trace.PrefixIntegral()
			}
			st.launchCum = m.cumulative(st.inst.Launched)
		}
		m.spots.insert(st)
		// The price may have spiked past the bid while the launch was
		// pending; EC2 would warn immediately.
		if price := m.observe(p.sched.Now()); price > st.inst.Bid {
			p.warn(st, price)
		}
		// The armed crossing still covers a bid at or above the floor it
		// was scanned for; the market's first instance, or a lower bid,
		// needs a new scan.
		if st.inst.Bid < m.armedFloor {
			p.arm(m)
		}
	}
}

// Terminate implements cloud.Provider.
func (p *Platform) Terminate(id cloud.InstanceID, cb cloud.Callback) error {
	st := p.lookupInst(id)
	if st == nil {
		return p.errNoInstance(id)
	}
	if st.terminating {
		return fmt.Errorf("%w: instance %s already terminated", cloud.ErrBadState, id)
	}
	st.terminating = true
	p.stats.VoluntaryTerminations++
	delay := simkit.SampleSeconds(p.cfg.Latencies.Terminate, p.rng)
	p.after(delay, "terminate", op{kind: opTerminate, h: st.slot, cb: cb})
	return nil
}

// destroy finalizes termination: frees addresses, detaches volumes, removes
// the instance from revocation sweeps, bills it and recycles its ledger
// slot. The *cloud.Instance itself survives for any holder (the
// controller's rental ledger keeps the pointer); only the platform-side
// state is reclaimed.
func (p *Platform) destroy(st *instanceState) {
	if st.forcedKill.Pending() {
		p.sched.Cancel(st.forcedKill)
		st.forcedKill = simkit.Event{}
	}
	p.liveCount[st.inst.Type.Name]--
	st.inst.State = cloud.StateTerminated
	st.inst.Ended = p.sched.Now()
	// VPC semantics: addresses detach from the dead instance but remain
	// allocated to the renter, who may reassign them elsewhere (this is
	// what lets a nested VM keep its IP across a forced termination).
	for _, a := range st.inst.IPs {
		if as := p.ipPool.state(a); as != nil && as.holder == st.inst {
			as.holder = nil
		}
	}
	st.inst.IPs = nil
	for _, vid := range st.inst.Volumes {
		if v := p.volume(vid); v != nil {
			v.AttachedTo = ""
		}
	}
	st.inst.Volumes = nil
	if m := st.market; m != nil {
		m.spots.remove(st)
		if m.spots.insts.Len() == 0 {
			p.arm(m) // nobody left to revoke: the market goes silent
		}
	}
	// Billing is finalized here: Ended is set, so the accrued cost is the
	// instance's whole-life bill. (accrued only fails for a market
	// newInstance never sets.)
	cost, _ := p.accrued(st)
	p.met.billed(st.inst.Market, float64(cost))
	p.ledger[st.seq] = ledgerEntry{bill: cost}
	slot := st.slot
	*st = instanceState{}
	p.instSlab.Free(slot)
}

// Instance implements cloud.Provider. It resolves live (pending, running
// or warned) instances only.
func (p *Platform) Instance(id cloud.InstanceID) (*cloud.Instance, error) {
	st := p.lookupInst(id)
	if st == nil {
		return nil, fmt.Errorf("%w: instance %s", cloud.ErrNotFound, id)
	}
	return st.inst, nil
}

// OnRevocationWarning implements cloud.Provider.
func (p *Platform) OnRevocationWarning(fn func(cloud.RevocationWarning)) {
	p.revocationListeners = append(p.revocationListeners, fn)
}

// AccruedCost implements cloud.Provider. On-demand instances accrue the
// fixed rate; spot instances accrue the integral of the market price over
// their running interval (EC2 bills the market price, not the bid).
func (p *Platform) AccruedCost(id cloud.InstanceID) (cloud.USD, error) {
	n := p.issued(id)
	if n == 0 {
		return 0, fmt.Errorf("%w: instance %s", cloud.ErrNotFound, id)
	}
	st := p.instSlab.Get(p.ledger[n].live)
	if st == nil {
		// Terminated instances keep answering with their finalized bill.
		return p.ledger[n].bill, nil
	}
	return p.accrued(st)
}

// accrued bills a ledger entry up to now, or up to its end once destroy
// has set it.
func (p *Platform) accrued(st *instanceState) (cloud.USD, error) {
	inst := st.inst
	if inst.State == cloud.StatePending {
		return 0, nil
	}
	end := p.sched.Now()
	if inst.State == cloud.StateTerminated {
		end = inst.Ended
	}
	if p.cfg.BillingIncrement > 0 {
		return p.periodBilledCost(st, end)
	}
	switch inst.Market {
	case cloud.MarketOnDemand:
		return cloud.USD(float64(inst.Type.OnDemand) * end.Sub(inst.Launched).Hours()), nil
	case cloud.MarketSpot:
		// PrefixIntegral.Integrate(Launched, end), with F(Launched) kept
		// from launch and F(end) memoized per instant.
		if end <= inst.Launched {
			return 0, nil
		}
		m := st.market
		if m.prefix == nil {
			m.prefix = m.trace.PrefixIntegral()
		}
		return cloud.USD(m.cumulative(end) - st.launchCum), nil
	default:
		return 0, fmt.Errorf("%w: unknown market %v", cloud.ErrBadState, inst.Market)
	}
}

// periodBilledCost implements 2015-era EC2 billing: every started period
// is charged in full at the rate in effect at its start, except the final
// partial period of a platform-reclaimed spot instance, which is free.
func (p *Platform) periodBilledCost(st *instanceState, end simkit.Time) (cloud.USD, error) {
	inst := st.inst
	inc := p.cfg.BillingIncrement
	incHours := inc.Hours()
	var cur spotmarket.Cursor
	if inst.Market == cloud.MarketSpot {
		// Period starts walk forward; a cursor makes the per-period price
		// lookup O(1) instead of a binary search per billing increment.
		cur = st.market.trace.Cursor()
	}
	var total float64
	for start := inst.Launched; start < end; start += inc {
		partial := start+inc > end
		if partial && inst.Market == cloud.MarketSpot && st.reclaimed &&
			inst.State == cloud.StateTerminated {
			break // Amazon's rule: the interrupted partial hour is free
		}
		rate := float64(inst.Type.OnDemand)
		if inst.Market == cloud.MarketSpot {
			rate = float64(cur.PriceAt(start))
		}
		total += rate * incHours
	}
	return cloud.USD(total), nil
}

// noFloor is armedFloor in a market with nothing armed: every bid is under it.
var noFloor = cloud.USD(math.Inf(1))

// arm schedules m's next crossing in place of the one armed: the first price
// change after now that exceeds the lowest outstanding bid, the only kind
// that can revoke anyone. Every change before it is observed when somebody
// next asks the price, not by an event. A market with no spot instance arms
// nothing.
func (p *Platform) arm(m *market) {
	p.sched.Cancel(m.armed)
	m.armed, m.armedFloor = simkit.Event{}, noFloor
	if m.spots.insts.Len() == 0 {
		return
	}
	m.armedFloor = m.spots.floor(p.instSlab)
	p.scans++
	if at, ok := m.cursor.NextAbove(p.sched.Now(), m.armedFloor); ok {
		m.armed = p.sched.AtArg(at, "price-change", p.crossFn, uint64(m.index))
	}
}

// crossing fires the armed crossing of the market at index arg and, with it,
// every other market's crossing armed for this same instant: their own
// events are cancelled and all are handled here, in the order a walk that
// scheduled every price change of every market would have reached them
// (walkedBefore). Arming gives an event its place among same-instant events
// when the crossing is found, not when the previous change fires, so without
// this a zone-wide spike would revoke its markets in a different order.
func (p *Platform) crossing(arg uint64) {
	now := p.sched.Now()
	due := p.due[:0]
	for i := range p.markets {
		m := &p.markets[i]
		if uint64(i) != arg && (!m.armed.Pending() || m.armed.At() != now) {
			continue
		}
		p.sched.Cancel(m.armed) // a no-op for the one that fired
		m.observe(now)
		due = append(due, m)
		// Insertion sort: ties are rare and a handful of markets wide.
		for j := len(due) - 1; j > 0 && walkedBefore(m, due[j-1]); j-- {
			due[j], due[j-1] = due[j-1], due[j]
		}
	}
	for _, m := range due {
		p.cross(m)
	}
	p.due = due[:0]
}

// walkedBefore orders two markets whose cursors both stand on a price change
// at the same instant. A per-point walk gives each change its place in the
// event order when the market's previous change fires, so the market whose
// previous change is earlier goes first; equal previous changes are ordered
// the same way in turn, and two markets both at their first change go in
// table order.
func walkedBefore(a, b *market) bool {
	for i, j := a.cursor.Index(), b.cursor.Index(); i > 0 && j > 0; {
		i, j = i-1, j-1
		if ta, tb := a.trace.PointAt(i).T, b.trace.PointAt(j).T; ta != tb {
			return ta < tb
		}
	}
	return a.index < b.index
}

// cross handles the price change m's cursor stands on: it warns every
// running instance the new price underbids, then arms the next crossing.
func (p *Platform) cross(m *market) {
	price := m.observe(p.sched.Now())
	// The list is id-ordered (deterministic warning delivery) and mutated
	// only from launch/destroy events, never synchronously under a warning,
	// so the live slice is safe to walk. The floor may have risen since the
	// crossing was armed; a price at or below every outstanding bid cannot
	// underbid anyone — skip the scan without touching a single instance.
	if list := &m.spots; list.insts.Len() > 0 && price > list.floor(p.instSlab) {
		for _, r := range list.insts.Ordered() {
			st := p.instSlab.Get(r.Slot)
			if st == nil || !st.inList {
				continue
			}
			if st.inst.State == cloud.StateRunning && price > st.inst.Bid {
				p.warn(st, price)
			}
		}
	}
	p.arm(m)
}

func (p *Platform) warn(st *instanceState, price cloud.USD) {
	if st.inst.State != cloud.StateRunning {
		return
	}
	st.inst.State = cloud.StateWarned
	now := p.sched.Now()
	deadline := now + p.cfg.WarningWindow
	w := cloud.RevocationWarning{
		Instance: st.inst,
		Issued:   now,
		Deadline: deadline,
		Price:    price,
	}
	p.stats.WarningsIssued++
	if p.met != nil {
		p.met.warnings.Inc()
	}
	st.forcedKill = p.sched.AtArg(deadline, "forced-kill", p.forcedKillFn, st.slot.Pack())
	for _, fn := range p.revocationListeners {
		fn(w)
	}
}

// forcedKill reclaims a warned instance at its deadline; arg is its packed
// slab handle. destroy cancels the event of an instance that leaves earlier,
// and the handle's generation keeps a stray one off the slot's next
// occupant.
func (p *Platform) forcedKill(arg uint64) {
	st := p.instSlab.Get(slab.Unpack(arg))
	if st == nil {
		return
	}
	st.forcedKill = simkit.Event{}
	p.stats.ForcedTerminations++
	if p.met != nil {
		p.met.forced.Inc()
	}
	st.reclaimed = true
	p.destroy(st)
}

var _ cloud.Provider = (*Platform)(nil)
