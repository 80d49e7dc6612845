package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/backup"
	"repro/internal/cloud"
	"repro/internal/migration"
	"repro/internal/nestedvm"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/slab"
	"repro/internal/workload"
)

// PoolKey identifies one server pool: native servers of one type in one
// zone under one contract. SpotCheck keeps separate spot and on-demand
// pools per type (§4.1).
type PoolKey struct {
	Type   string
	Zone   cloud.Zone
	Market cloud.Market
}

// String concatenates by hand rather than via fmt: pool keys label trace
// events on the controller's hot path, where Sprintf's reflection is
// measurable at fleet scale.
func (k PoolKey) String() string {
	return k.Type + "/" + string(k.Zone) + "/" + k.Market.String()
}

// Config assembles a controller.
type Config struct {
	Scheduler *simkit.Scheduler
	Provider  cloud.Provider

	// Mechanism selects the migration variant (Figures 10-12 compare all
	// five). Defaults to migration.SpotCheckLazy, the full system.
	Mechanism migration.Mechanism

	// Placement maps new VMs to spot pools (Table 2's policies).
	Placement PlacementPolicy
	// Bidding sets spot bids (§4.3: on-demand price, or k× on-demand with
	// proactive migration).
	Bidding BiddingPolicy
	// Destination selects where revoked VMs go (§4.3).
	Destination DestinationPolicy
	// HotSpares is the number of idle on-demand servers kept ready when
	// Destination is DestHotSpare.
	HotSpares int

	// Workload is the application profile VMs run (drives dirty rate and
	// the degradation sensor). Defaults to workload.TPCW().
	Workload workload.Profile

	// MonitorInterval is the controller's price/rebalance poll period.
	// Defaults to 1 minute.
	MonitorInterval simkit.Time
	// ReturnHoldDown is how long a spot pool's price must stay below the
	// on-demand price before VMs migrate back from on-demand hosts.
	// Defaults to 10 minutes.
	ReturnHoldDown simkit.Time

	// Metrics receives every controller instrument (counters, gauges,
	// histograms). Defaults to a fresh private registry, so metrics are
	// always recorded; pass a shared registry to expose them (spotcheckd's
	// /metrics, spotsim's -metrics summary).
	Metrics *obs.Registry
	// Trace receives structured controller events: the fleet-wide ring and
	// the per-VM timelines Events serves. Nil means nobody can read events,
	// so none are recorded or formatted.
	Trace *obs.Trace

	// NetworkAwareSlicing caps host slicing so every nested VM keeps its
	// requested type's full network share (cloud.CompatibleUnits instead
	// of cloud.Units): an m3.large (85 MB/s) then hosts one 60 MB/s
	// medium slice, not two. The cheapest-compatible policy prices
	// candidates with CompatibleUnits, so turning this on makes the
	// controller pack exactly what the policy priced. Default off: the
	// paper's figures slice by vCPU/memory alone, and the golden-pinned
	// runs rely on that capacity.
	NetworkAwareSlicing bool

	// Predictive enables trend-based proactive migration (§3.2): when a
	// spot pool's price rises toward the bid, live-migrate before the
	// platform can issue a revocation. Mispredictions risk losing the
	// final pre-copy rounds; with a backup-based mechanism the VM falls
	// back to restoring from its checkpoint, without one it loses memory
	// state — exactly the risk the paper describes.
	Predictive bool

	// ExpectedVMs is a capacity hint: it pre-sizes the controller's fleet
	// state — the VM and host slabs, the boundary ID maps and the rental
	// ledger — so a run of known scale never grows them mid-simulation.
	// Zero grows on demand; no output depends on it.
	ExpectedVMs int
	// RecycleReleased frees a released VM's controller state for reuse by
	// later requests, folding its final accounting into retained aggregate
	// totals (Report and Customers are unchanged; the time-derived figures
	// are exact because the fold sums integer durations). Per-VM
	// introspection (DescribeVM, Events, ListVMs) forgets recycled VMs,
	// which is the whole choice: spotcheckd answers for a deleted server
	// and leaves it off, batch runs have no reader after release and set it.
	RecycleReleased bool

	// Seed drives the controller's probabilistic policies.
	Seed int64
}

func (c *Config) fillDefaults() error {
	if c.Scheduler == nil || c.Provider == nil {
		return fmt.Errorf("core: Scheduler and Provider are required")
	}
	if c.Placement == nil {
		c.Placement = Policy1PM()
	}
	if c.Bidding == nil {
		c.Bidding = OnDemandBid{}
	}
	if c.Workload.Name == "" {
		c.Workload = workload.TPCW()
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = simkit.Minute
	}
	if c.ReturnHoldDown == 0 {
		c.ReturnHoldDown = 10 * simkit.Minute
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// vmPhase is the controller's internal lifecycle for a nested VM.
type vmPhase uint8

const (
	phaseProvisioning vmPhase = iota
	phaseRunning
	phaseMigrating
	phaseReleased
)

// vmState is the controller's record of one nested VM. The small fields sit
// together at the end so the record packs without padding.
type vmState struct {
	vm   *nestedvm.VM
	host *hostState
	// lazyDegradeEvent tracks the post-restore demand-paging window.
	lazyDegradeEvent simkit.Event
	// backup is the server holding the VM's checkpoint stream (nil when it
	// has none): the pointer registerBackup was handed, kept so the restore
	// path need not look the VM up in the pool again.
	backup *backup.Server
	// restoreSrv holds the backup server serving an in-progress lazy
	// restore (so its restore slot is released even on early teardown).
	restoreSrv *backup.Server
	// homeMarket is the market of the spot pool the placement policy
	// originally assigned (nil when it has none); returns after a spike go
	// back there so the policy's distribution of VMs across pools (Table 2)
	// stays stable over time. tryReturn sets it to the market it validates
	// just before a return starts, so it is also the return's target.
	homeMarket *market
	// typeMarket is the record of the VM's own type in the home zone: its
	// on-demand pool is where a displaced VM goes, its calm slot holds the
	// return sweep's per-tick answer for this requested type, and its typ is
	// the slice size hosts are cut into for the VM (see slotType).
	typeMarket *market
	// move is the state of the relocation in flight (phase moveIdle when
	// there is none).
	move move
	// cust is the record of the VM's customer (vm.Customer), so the
	// per-tenant accounting adds the VM in without hashing the name.
	cust *customer
	// onOp is the provider callback of the install or re-plumbing operation
	// in flight, bound once per slot: the chain has at most one outstanding,
	// and it lands before the VM can leave phaseProvisioning or
	// phaseMigrating, so the slot is never recycled under it.
	onOp cloud.Callback
	// slot is this state's slab handle: scheduled callbacks that may
	// outlive the VM capture it and re-check liveness before touching the
	// (possibly recycled) slot.
	slot slab.Handle
	// epoch stamps the argument of every event scheduled for this VM: it
	// moves on each time the VM lands on a host and when the slot is freed,
	// and survives recycling, so an event left over from an earlier move or
	// an earlier occupant no longer matches (see advance).
	epoch uint32
	phase vmPhase
	// pendingRelease marks a VM released while a chain holds it: the chain
	// tears it down where it has nothing in flight (placeNew, placed, a failed
	// install, land).
	pendingRelease bool
	// stateless marks a VM whose service tolerates memory-state loss
	// (e.g. a replicated web tier, §4.2): it runs without a backup server
	// and simply reboots from its volume on a new host after revocation.
	stateless bool
}

// slotType is the size hosts are sliced into for vs: its requested type's
// catalog entry in the market table, one per type for the whole controller.
func (vs *vmState) slotType() *cloud.InstanceType { return &vs.typeMarket.typ }

// served reports whether the VM has entered service: its ledger started. A
// ledger that never started is the zero Ledger.
func (vs *vmState) served() bool { return vs.vm.Ledger != nestedvm.Ledger{} }

type hostRole uint8

const (
	roleHost hostRole = iota
	roleHotSpare
	roleBackup
)

// hostState is one rented native instance. The small fields sit together
// at the end so the record packs without padding.
type hostState struct {
	inst *cloud.Instance
	// pool is the pool a roleHost host serves in; nil for hot spares and
	// backup hosts.
	pool *poolState
	// slotType is the nested VM size this host is sliced into: the catalog
	// entry in the market table (see vmState.slotType), compared by Name.
	slotType *cloud.InstanceType
	capacity int
	// vms holds the resident VMs sorted by VM id — the iteration order
	// every sweep and warning handler needs, maintained incrementally
	// instead of copied and re-sorted per walk.
	vms      []*vmState
	reserved int // slots claimed by in-flight placements/migrations
	// warnDeadline is when a warned host (see warned) is killed.
	warnDeadline simkit.Time
	// slot is this state's slab handle (see vmState.slot).
	slot slab.Handle
	// pinned counts in-flight recovery chains still holding this host as
	// their migration source after it terminated (move.pinned); a pinned
	// host's slot is never recycled (see completeMove's dst-terminated
	// branch).
	pinned int
	// freeIdx is the host's position in the pool's free-host candidate set
	// while inFreeSet, kept current by the lazy prune, so leaving the set
	// is one indexed write.
	freeIdx int
	// poolIdx is the host's position in the pool's host list while
	// inHosts, kept current by compaction and re-sorting.
	poolIdx int
	// seq is the numeric tail of the instance id (see instanceSeq),
	// cached when the host is bound to its instance.
	seq uint64
	// rent is the number of the instance's rental (see rental.n).
	rent uint32
	role hostRole
	// warned marks a host whose revocation warning has fired.
	warned bool
	// inFreeSet and inHosts mark membership in the pool's free-host
	// candidate set and in its host list.
	inFreeSet, inHosts bool
}

// instanceSeq extracts the trailing decimal sequence from an instance id
// ("i-001234" → 1234). Platform ids are zero-padded to six digits, so the
// string order the host lists historically kept agrees with numeric order
// up to the fleet's millionth instance — where string order folds
// ("i-1000000" < "i-999999") and every later acquisition would splice into
// the middle of every list. Ordering by (seq, id) preserves the historical
// order exactly where it was well-formed and stays append-friendly past
// the fold. Ids without trailing digits get seq 0 and order by string.
func instanceSeq(id cloud.InstanceID) uint64 {
	end := len(id)
	start := end
	for start > 0 && id[start-1] >= '0' && id[start-1] <= '9' {
		start--
	}
	if start == end || end-start > 19 {
		return 0
	}
	var n uint64
	for i := start; i < end; i++ {
		n = n*10 + uint64(id[i]-'0')
	}
	return n
}

// hostLess orders hosts by (seq, instance id) — numeric sequence first,
// string id as the tie-break for foreign id formats.
func hostLess(a, b *hostState) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.inst.ID < b.inst.ID
}

func (h *hostState) free() int { return h.capacity - len(h.vms) - h.reserved }

type poolState struct {
	key PoolKey
	// label is key.String(), built once: the pool's metric label and its
	// VMs' backup spread group.
	label string
	// market is the table record of the pool's (type, zone) pair; typ is the
	// catalog entry of the native type the pool rents.
	market *market
	typ    cloud.InstanceType
	bid    cloud.USD
	// joinable holds the pool's in-flight acquisitions that can still take
	// a waiter, oldest first (see acquireIn).
	joinable []*pendingAcq
	// hosts holds the pool's hosts in (seq, instance id) order — the
	// historical walk order the sweeps and reports rely on. Acquisitions
	// complete nearly in launch order, so the list mostly stays sorted by
	// itself; a completion landing behind a newer one (sampled launch
	// latencies reorder a burst) is repaired lazily by Ordered. Mutation
	// only happens from acquisition and retire events, never mid-sweep.
	hosts slab.RefList[hostState]
	// freeCands is a superset of the pool's hosts with free slots, in
	// arrival order: freeHost scans every candidate anyway, so the set
	// needs no order — the historical id-ordered choice is reproduced by
	// the scan's (free, seq, id) comparator. Hosts enter whenever their
	// free capacity rises from zero and leave lazily when a scan finds
	// them full, warned or dead.
	freeCands []slab.Ref
	// vmCount is the incremental sum of len(h.vms) across hosts, keeping
	// the pool-occupancy gauge O(1) to refresh.
	vmCount int

	// The pool's labelled instruments, resolved on first use so a series
	// appears only once its pool has something to report.
	hostsAcquired, spotRequests  *obs.Counter
	bidGauge, hostGauge, vmGauge *obs.Gauge
}

// Controller is the SpotCheck derivative cloud.
type Controller struct {
	cfg   Config
	sched *simkit.Scheduler
	prov  cloud.Provider
	rng   *rand.Rand
	// homeZone is the provider's first zone: backup servers, hot spares and
	// the on-demand fallback pools live there.
	homeZone cloud.Zone

	// vmSlab and hostSlab hold all controller-side VM and host state in
	// index-addressed, pre-sizable chunks. vms is the VM table: entry n is
	// the VM minted as vmID(n) while its slot is tracked, nil once the slot
	// is recycled; entry 0 is never issued and the next VM is len(vms), so
	// an id resolves by parsing its number and the table is walked in
	// number order. hostIndex translates the platform's instances — the
	// pointers its launch callbacks delivered, which its revocation
	// warnings carry again — to generation-checked handles, hashing no id.
	// Internal code passes stable *vmState/*hostState pointers.
	vmSlab    *slab.Slab[vmState]
	vms       []*vmState
	hostSlab  *slab.Slab[hostState]
	hostIndex map[*cloud.Instance]slab.Handle
	// customers holds one record per customer that ever requested a VM, in
	// name order (each record's idx is its position).
	customers []*customer

	backups *backup.Pool
	// backupHosts maps backup server id -> native instance state.
	backupHosts map[string]*hostState

	spares       []*hostState // ready hot spares
	sparePending int

	// acqFree, followFree and retireFree recycle the records of finished
	// host acquisitions, landed live-move followers and confirmed
	// terminations, each with the provider callback it was bound to when
	// first built.
	acqFree    []*pendingAcq
	followFree []*follower
	retireFree []*retirement
	// advanceFn is advance bound once: the function of every argument-
	// carrying event the controller schedules.
	advanceFn func(uint64)
	// moveSeen counts the move-phase transitions taken, by (from, to); the
	// audit checks every nonzero cell against moveLegal. stepsDropped counts
	// the stale steps advance dropped, by step: each is an event that fired
	// for nothing.
	moveSeen     [numMovePhases][numMovePhases]uint32
	stepsDropped [numMoveSteps]uint32

	// history is the market table: per (type, zone) pair, the monitor's
	// samples, the trailing price window, the revocation count and the
	// pair's server pools.
	history *History
	trace   *obs.Trace // nil: no event sink (see emit)

	// rentals tracks every native instance ever rented (for cost), in
	// renting order. Each entry memoizes its final cost once the instance
	// terminates and lets go of the instance once the controller has seen
	// it gone (rentalGone); the finalized entries periodically fold into
	// rentalFinal so the ledger stays proportional to live instances.
	rentals         []rental
	rented          uint32       // rentals ever entered: the last rental.n
	rentalFinal     [3]cloud.USD // folded cost by rentalKind
	rentalsScrubbed int          // ledger length after the last fold
	retired         serviceStats

	// tick numbers the monitor's ticks; market samples are stamped with it,
	// so a sample's age is a comparison and nothing is cleared. It starts
	// at 1 (the first tick is 2): a never-sampled record's zero stamp then
	// matches neither the current tick nor the one before it. It is the
	// last tick accounted, fired or not (see catchUp); tick n falls at
	// tickBase + (n-1)·MonitorInterval.
	tick     uint64
	tickBase simkit.Time
	// odHosts counts the hosts in on-demand pools: while there are any, the
	// return sweep has candidates and the monitor's ticks are events.
	odHosts int
	// unhomed counts the return sweep's candidates — the residents of the
	// hosts in on-demand pools — that have no home pool; each market record
	// counts those homed to it (market.parked). See returnsPossible.
	unhomed int
	// testHookReturnSweep, set only by tests, runs as each return sweep
	// starts, before it decides whether to walk.
	testHookReturnSweep func()
	// ticking is set while an armed tick's sweeps run.
	ticking bool

	// met holds the pre-resolved observability instruments; Stats() derives
	// ControllerStats from it.
	met *coreMetrics

	// storms records concurrent-revocation batches (Table 3).
	storms []StormEvent

	// monitorEvent is the pending monitor tick, cancelled on Shutdown;
	// tickFn is monitorTick bound once, since evaluating the method value
	// per reschedule would allocate.
	monitorEvent simkit.Event
	tickFn       func()
	// shutdown marks a drained controller: no new spares or placements.
	shutdown bool
}

// serviceStats accumulates the accounting of a set of served VMs:
// Controller.retired holds that of the VMs whose controller state has been
// recycled (Config.RecycleReleased), and Report adds the tracked ones to a
// copy of it; the per-customer part is in each customer record. All sums
// are integer durations held in overflow-proof accumulators (durAcc —
// fleet-scale service totals outgrow int64 nanoseconds), so totals are
// exactly what a retained per-VM walk would produce regardless of fold
// order.
type serviceStats struct {
	service, down, degraded durAcc
	maxDownSpell            simkit.Time
	tcpBreaks               int
}

// add folds in the accounting of a VM's ledger as of now.
func (s *serviceStats) add(l *nestedvm.Ledger, now simkit.Time) {
	d, g := l.Snapshot(now)
	s.service.add(l.Service(now))
	s.down.add(d)
	s.degraded.add(g)
	s.maxDownSpell = max(s.maxDownSpell, l.MaxDownSpell(now))
	s.tcpBreaks += l.TCPBreaks(now)
}

// customerAcc is one customer's accounting over a set of VMs that entered
// service: how many, their service time (that of the stateful ones apart,
// which backup costs are shared by) and their downtime.
type customerAcc struct {
	vms      int
	service  durAcc
	stateful durAcc
	down     durAcc
}

// add counts in a served VM's accounting as of now.
func (a *customerAcc) add(vs *vmState, now simkit.Time) {
	life := vs.vm.Ledger.Service(now)
	down, _ := vs.vm.Ledger.Snapshot(now)
	a.vms++
	a.service.add(life)
	if !vs.stateless {
		a.stateful.add(life)
	}
	a.down.add(down)
}

// customer is one tenant's record: every VM it requested points at it.
type customer struct {
	name string
	// idx is the record's position in Controller.customers.
	idx int
	// retired is the accounting of the customer's recycled VMs.
	retired customerAcc
}

// ControllerStats counts controller-level events.
type ControllerStats struct {
	VMsCreated          int
	VMsReleased         int
	Migrations          int
	Revocations         int
	ProactiveMigrations int
	ReturnMigrations    int
	StagingMigrations   int
	VMsLostMemoryState  int
	HostsAcquired       int
	SlicedHosts         int
	DestinationFailures int
	// PredictiveMigrations counts trend-triggered evacuations;
	// PredictiveMisses counts those whose source was revoked mid-copy.
	PredictiveMigrations int
	PredictiveMisses     int
}

// rentalKind classifies what a rented native instance is for, so the
// report can split costs into hosting, backup and spare components.
type rentalKind uint8

const (
	rentalHost rentalKind = iota
	rentalBackup
	rentalSpare
)

type rental struct {
	// inst is the rented instance; nil once the bill is final and the
	// controller has seen the instance gone, which is all it needed it for.
	inst *cloud.Instance
	// cost memoizes the instance's final bill once it terminates, so
	// repeated Reports stop re-walking finished instances' price history.
	cost cloud.USD
	// n numbers the rental from 1 in renting order. Scrubs keep the ledger
	// in that order, so a host finds its entry by n (see rentalGone).
	n     uint32
	kind  rentalKind
	final bool
}

// StormEvent records one batch of concurrent revocations (Table 3).
type StormEvent struct {
	At   simkit.Time
	Pool PoolKey
	// VMs is how many nested VMs had to migrate concurrently.
	VMs int
}

// New builds a controller and registers it with the provider.
func New(cfg Config) (*Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	zones := cfg.Provider.Zones()
	if len(zones) == 0 {
		return nil, fmt.Errorf("core: provider has no zones")
	}
	if _, ok := cfg.Provider.TypeByName(backupType); !ok {
		return nil, fmt.Errorf("core: backup type %q not in catalog", backupType)
	}
	exp := cfg.ExpectedVMs
	c := &Controller{
		cfg:         cfg,
		sched:       cfg.Scheduler,
		prov:        cfg.Provider,
		homeZone:    zones[0],
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		vmSlab:      slab.New[vmState](exp),
		vms:         make([]*vmState, 1, exp+1),
		hostSlab:    slab.New[hostState](exp),
		hostIndex:   make(map[*cloud.Instance]slab.Handle, exp),
		backupHosts: map[string]*hostState{},
		history:     NewHistory(),
		tick:        1,
		trace:       cfg.Trace,
		met:         newCoreMetrics(cfg.Metrics),
	}
	c.advanceFn = c.advance
	c.history.watch(c.prov)
	if exp > 0 {
		c.rentals = make([]rental, 0, exp)
	}
	// Backup-server I/O tuning follows the mechanism: the SpotCheck
	// variants run the fadvise/ext4-tuned backup servers of §5.
	c.backups = backup.NewPool(backup.Config{OptimizedIO: cfg.Mechanism.Optimized()}, c.onBackupProvisioned)
	c.backups.SetMetrics(backup.NewMetrics(c.cfg.Metrics))
	c.prov.OnRevocationWarning(c.onRevocationWarning)
	c.startMonitor()
	for i := 0; i < cfg.HotSpares; i++ {
		c.requestSpare()
	}
	return c, nil
}

// VM ids are vmIDPrefix and the VM's number, zero-padded to vmIDDigits
// (cloud.SeqID): "nvm-00001" is the first VM.
const (
	vmIDPrefix = "nvm-"
	vmIDDigits = 5
)

// vmID is the id of the VM numbered n.
func vmID(n int) nestedvm.ID { return nestedvm.ID(cloud.SeqID(vmIDPrefix, vmIDDigits, n)) }

// vmSeq is the number of the VM with the given id, or 0 for a string the
// controller never minted.
func vmSeq(id nestedvm.ID) int {
	if n, ok := cloud.ParseSeqID(vmIDPrefix, vmIDDigits, string(id)); ok {
		return n
	}
	return 0
}

// vmIDsSorted returns all tracked VM ids in string order. The table is in
// numeric order, which is the same below the 100 000th VM, so the sort
// mostly confirms what it is given.
func (c *Controller) vmIDsSorted() []nestedvm.ID {
	ids := make([]nestedvm.ID, 0, len(c.vms))
	for _, vs := range c.vms {
		if vs != nil {
			ids = append(ids, vs.vm.ID)
		}
	}
	slices.Sort(ids)
	return ids
}

// lookupVM resolves an external VM id to its live state (nil if unknown or
// recycled).
func (c *Controller) lookupVM(id nestedvm.ID) *vmState {
	if n := vmSeq(id); n < len(c.vms) {
		return c.vms[n]
	}
	return nil
}

// customer returns the record of the customer called name, adding it in
// name order on first use.
func (c *Controller) customer(name string) *customer {
	i, found := slices.BinarySearchFunc(c.customers, name, func(cu *customer, name string) int {
		return strings.Compare(cu.name, name)
	})
	if found {
		return c.customers[i]
	}
	cu := &customer{name: name}
	c.customers = slices.Insert(c.customers, i, cu)
	for j := i; j < len(c.customers); j++ {
		c.customers[j].idx = j
	}
	return cu
}

// lookupHost resolves a native instance to its live host state.
func (c *Controller) lookupHost(inst *cloud.Instance) *hostState {
	h, ok := c.hostIndex[inst]
	if !ok {
		return nil
	}
	return c.hostSlab.Get(h)
}

// newVMState allocates a slab slot for a fresh VM, resetting any recycled
// contents except what belongs to the slot rather than its occupant: the
// event epoch and the bound provider callback.
func (c *Controller) newVMState() *vmState {
	vs, h := c.vmSlab.Alloc()
	*vs = vmState{slot: h, epoch: vs.epoch, onOp: vs.onOp}
	if vs.onOp == nil {
		vs.onOp = func(err error) { c.opLanded(vs, err) }
	}
	return vs
}

// newHostState allocates a slab slot for a fresh host. The recycled slot's
// VM slice buffer is kept so churned hosts stop allocating.
func (c *Controller) newHostState() *hostState {
	h, slot := c.hostSlab.Alloc()
	buf := h.vms
	*h = hostState{slot: slot}
	h.vms = buf[:0]
	return h
}

// freeVMSlot recycles a released VM's slab slot, folding its final
// accounting into the retained aggregates first (Config.RecycleReleased).
func (c *Controller) freeVMSlot(vs *vmState) {
	vm := vs.vm
	if vs.served() {
		// Fold exactly the per-VM contributions Report and Customers would
		// have computed from the retained state. Every sum is an integer
		// duration, so the fold is order-independent and exact.
		now := c.sched.Now()
		c.retired.add(&vm.Ledger, now)
		vs.cust.retired.add(vs, now)
	}
	c.vms[vmSeq(vm.ID)] = nil
	if c.trace != nil {
		c.trace.Forget(string(vm.ID))
	}
	slot := vs.slot
	// Keep the slot readable as "released" for any same-instant stale
	// reader; the next Alloc fully resets it.
	*vs = vmState{phase: phaseReleased, epoch: vs.epoch + 1, onOp: vs.onOp}
	c.vmSlab.Free(slot)
}

// hostAddVM inserts a VM into its host's sorted resident list and keeps the
// pool's occupancy counter current.
func (c *Controller) hostAddVM(h *hostState, vs *vmState) {
	i, _ := hostFind(h, vs)
	h.vms = append(h.vms, nil)
	copy(h.vms[i+1:], h.vms[i:])
	h.vms[i] = vs
	if h.pool != nil {
		h.pool.vmCount++
	}
	if returnHost(h) {
		*c.parked(vs)++
	}
}

// hostFind returns where vs sits, or would sit, in h's resident list, and
// whether it is there.
func hostFind(h *hostState, vs *vmState) (int, bool) {
	i := sort.Search(len(h.vms), func(i int) bool { return h.vms[i].vm.ID >= vs.vm.ID })
	return i, i < len(h.vms) && h.vms[i] == vs
}

// hostRemoveVM removes a VM from its host's resident list (no-op when
// absent, e.g. a recovery chain replaying a move off an already-emptied
// terminated host) and re-offers the freed slot to placements.
func (c *Controller) hostRemoveVM(h *hostState, vs *vmState) {
	i, ok := hostFind(h, vs)
	if !ok {
		return
	}
	copy(h.vms[i:], h.vms[i+1:])
	h.vms[len(h.vms)-1] = nil
	h.vms = h.vms[:len(h.vms)-1]
	if h.pool != nil {
		h.pool.vmCount--
	}
	if returnHost(h) {
		*c.parked(vs)--
	}
	c.hostFreed(h)
}

// hostFreed records that a host may have regained free capacity, entering
// it into its pool's free-host candidate set. Callers invoke it at every
// point where free() can rise from zero; ineligible hosts are pruned
// lazily by freeHost's scan.
func (c *Controller) hostFreed(h *hostState) {
	if h.role != roleHost || h.inFreeSet || h.warned || h.free() <= 0 {
		return
	}
	if h.inst == nil || h.inst.State != cloud.StateRunning {
		return
	}
	pool := h.pool
	h.freeIdx = len(pool.freeCands)
	pool.freeCands = append(pool.freeCands, slab.Ref{Slot: h.slot, Seq: h.seq})
	h.inFreeSet = true
}

// addPoolHost binds h to pool and enters it into the pool's host list. An
// on-demand host gives the return sweep a candidate: the monitor arms.
func (c *Controller) addPoolHost(pool *poolState, h *hostState) {
	h.pool = pool
	h.inHosts = true
	h.poolIdx = pool.hosts.Add(h.slot, h.seq)
	if pool.key.Market == cloud.MarketOnDemand {
		c.odHosts++
		c.parkAll(h, 1)
		c.armMonitor()
	}
}

// dropPoolHost removes h from its pool's host list (no-op when absent).
func (c *Controller) dropPoolHost(h *hostState) {
	if !h.inHosts {
		return
	}
	if h.pool.key.Market == cloud.MarketOnDemand {
		c.odHosts--
		c.parkAll(h, -1)
	}
	h.inHosts = false
	h.pool.hosts.Remove(h.slot, h.poolIdx)
}

// returnHost reports whether h's residents are the return sweep's
// candidates: h serves VMs in an on-demand pool.
func returnHost(h *hostState) bool {
	return h.inHosts && h.role == roleHost && h.pool.key.Market == cloud.MarketOnDemand
}

// parked returns the count vs is kept in while it resides on a return host:
// the one of its home market, or the count of candidates with no home.
func (c *Controller) parked(vs *vmState) *int {
	if vs.homeMarket == nil {
		return &c.unhomed
	}
	return &vs.homeMarket.parked
}

// parkAll adds d to the counts of h's residents when h is a return host.
func (c *Controller) parkAll(h *hostState, d int) {
	if !returnHost(h) {
		return
	}
	for _, vs := range h.vms {
		*c.parked(vs) += d
	}
}

// setHome records vs's home market, moving vs between the return sweep's
// counts when it resides on a return host.
func (c *Controller) setHome(vs *vmState, m *market) {
	h := vs.host
	resident := false
	if h != nil && returnHost(h) {
		_, resident = hostFind(h, vs)
	}
	if resident {
		*c.parked(vs)--
	}
	vs.homeMarket = m
	if resident {
		*c.parked(vs)++
	}
}

func setPoolIdx(h *hostState, i int) { h.poolIdx = i }

// maybeScrubRentals compacts the rental ledger: terminated instances'
// bills never change, so their final costs fold into rentalFinal and the
// entries drop. Amortized triggering (the ledger must double since the last
// scrub) keeps the whole-ledger pass O(1) per append.
func (c *Controller) maybeScrubRentals() {
	if len(c.rentals) < 64 || len(c.rentals) < 2*c.rentalsScrubbed {
		return
	}
	kept := c.rentals[:0]
	for i := range c.rentals {
		rt := c.rentals[i]
		if !rt.final && rt.inst.State == cloud.StateTerminated {
			if cost, err := c.prov.AccruedCost(rt.inst.ID); err == nil {
				rt.cost, rt.final = cost, true
			}
		}
		if rt.final {
			c.rentalFinal[rt.kind] += rt.cost
		} else {
			kept = append(kept, rt)
		}
	}
	for i := len(kept); i < len(c.rentals); i++ {
		c.rentals[i] = rental{}
	}
	c.rentals = kept
	c.rentalsScrubbed = len(kept)
}

// rent enters a newly rented instance into the ledger and returns its
// rental's number.
func (c *Controller) rent(inst *cloud.Instance, kind rentalKind) uint32 {
	c.rented++
	c.rentals = append(c.rentals, rental{inst: inst, kind: kind, n: c.rented})
	return c.rented
}

// rentalGone settles rental n once its instance has terminated: the bill is
// final, so it is memoized and the instance let go. The entry keeps its
// place, so scrubs fold what they always folded and bill adds the same
// costs in the same order. An entry a scrub has folded is settled already;
// one whose instance still runs, or whose price query fails, keeps its
// instance for bill and the scrubs to ask again.
func (c *Controller) rentalGone(n uint32) {
	i := sort.Search(len(c.rentals), func(i int) bool { return c.rentals[i].n >= n })
	if i == len(c.rentals) || c.rentals[i].n != n {
		return
	}
	rt := &c.rentals[i]
	if !rt.final && rt.inst.State == cloud.StateTerminated {
		if cost, err := c.prov.AccruedCost(rt.inst.ID); err == nil {
			rt.cost, rt.final = cost, true
		}
	}
	if rt.final {
		rt.inst = nil
	}
}

// retirement is one of the controller's own Terminate calls in flight: the
// host that made it has usually been forgotten and its slot recycled by the
// time the platform confirms, so the record carries the rental to settle.
// Records and their bound callbacks are recycled through
// Controller.retireFree.
type retirement struct {
	c  *Controller
	n  uint32         // the rental to settle
	fn cloud.Callback // done, bound once
}

func (r *retirement) done(err error) {
	c, n := r.c, r.n
	c.retireFree = append(c.retireFree, r)
	if err == nil {
		c.rentalGone(n)
	}
}

// retire returns rental n's instance to the platform; its rental settles
// when the platform confirms, or at once if the platform has already
// terminated the instance.
func (c *Controller) retire(inst *cloud.Instance, n uint32) error {
	if inst.State == cloud.StateTerminated {
		c.rentalGone(n)
		return nil
	}
	var r *retirement
	if k := len(c.retireFree); k > 0 {
		r, c.retireFree = c.retireFree[k-1], c.retireFree[:k-1]
	} else {
		r = &retirement{c: c}
		r.fn = r.done
	}
	r.n = n
	err := c.prov.Terminate(inst.ID, r.fn)
	if err != nil {
		c.retireFree = append(c.retireFree, r)
	}
	return err
}
