package core

import (
	"slices"
	"sort"

	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// History is the controller's market table: one record per (instance type,
// zone) pair holding everything known about that pair — the trailing price
// window and revocation count the probabilistic policies weight pools by
// (4P-COST, 4P-ST; §6.2, Table 2), the monitor's tick samples, and the
// pair's server pools (§4.1). A controller seeds it with its provider's
// catalog × zones grid; a standalone one (NewHistory) starts empty. Either
// way a key it has not seen grows a record on demand.
type History struct {
	// markets is sorted by (type, zone), the order every sweep and report
	// walks. Inserting copies the slice, so a walk that grows the table
	// mid-way (a sweep creating a pool outside the grid) keeps ranging over
	// the snapshot it started on.
	markets []*market
	// index finds the record for callers that arrive with a key.
	index map[spotmarket.MarketKey]*market
	// sync, when set, brings a record's samples up to date before a reader
	// sees them: the controller installs its tick replay (syncMarket).
	sync func(*market)
}

// market is the table's record for one (instance type, zone) pair.
type market struct {
	key spotmarket.MarketKey
	// typ is the provider's catalog entry for key.Type (zero for a record
	// grown on demand outside the provider's grid).
	typ cloud.InstanceType
	// noSpot marks a pair the monitor does not probe: its type cannot host
	// nested VMs (not HVM), it lies outside the provider's grid, or the
	// provider answered cloud.ErrNotFound for it once — which providers
	// guarantee is permanent.
	noSpot bool

	// price is the monitor's newest sample, taken on tick sampled; prev is
	// the one before it, taken on tick prevSampled. A sweep on tick t reads
	// price only when sampled == t and prev only when prevSampled == t-1,
	// so a failed probe leaves nothing behind that needs clearing. synced is
	// the last tick replayed into the record (see syncMarket): the samples
	// and stamps are those of ticks up to synced, and nothing later.
	price, prev          cloud.USD
	sampled, prevSampled uint64
	synced               uint64
	// lastAboveOD stamps when the price last met or exceeded the on-demand
	// price (return hold-down, §4.3); everAboveOD is false until it has.
	lastAboveOD simkit.Time
	everAboveOD bool

	// calm is the return sweep's answer for VMs that requested this record's
	// type, valid on tick calmTick (see spotCalmFor).
	calm     bool
	calmTick uint64

	// parked counts the residents of on-demand hosts whose home market this
	// is: the return sweep's candidates that can only go here.
	parked int

	window      priceWindow
	revocations int

	// pools holds the pair's on-demand and spot pools, indexed by
	// cloud.Market; nil until a host is first wanted there.
	pools [2]*poolState
}

// priceWindowCap is the trailing window's length in samples. The monitor
// adds one per tick, so it spans 168 monitor intervals: 28 h at the
// experiments' 10-minute interval, 2.8 h at the daemon's 1-minute default.
const priceWindowCap = 24 * 7

// priceWindow is a ring of the newest priceWindowCap samples. Samples arrive
// as runs — one price held over many ticks is one addRun — and reach the
// ring only when somebody reads it, so a market replayed tick-free costs one
// entry per price step. The ring a read sees is exactly the one a sample-at-
// a-time add would have built: same slots, same write position, so the mean
// sums in the same order and agrees to the bit.
type priceWindow struct {
	samples []float64
	next    int
	// runs[head:] are the runs added since the ring was last written, oldest
	// first; runN is their total count. A run the newer runs outnumber
	// priceWindowCap to one is overwritten whole, so it is dropped on arrival
	// of the sample that buries it, keeping only its effect on next.
	runs []sampleRun
	head int
	runN int
}

// sampleRun is n consecutive samples of one value.
type sampleRun struct {
	v float64
	n int
}

func (w *priceWindow) add(v float64) { w.addRun(v, 1) }

// addRun appends n samples of v.
func (w *priceWindow) addRun(v float64, n int) {
	if n <= 0 {
		return
	}
	if k := len(w.runs); k > w.head && w.runs[k-1].v == v {
		w.runs[k-1].n += n
	} else {
		if k == cap(w.runs) && w.head > 0 {
			w.runs = w.runs[:copy(w.runs, w.runs[w.head:])]
			w.head = 0
		}
		w.runs = append(w.runs, sampleRun{v: v, n: n})
	}
	w.runN += n
	for len(w.runs)-w.head > 1 && w.runN-w.runs[w.head].n >= priceWindowCap {
		w.pass(w.runs[w.head].n)
		w.runN -= w.runs[w.head].n
		w.head++
	}
}

// pass moves the ring through n samples that newer ones will overwrite: it
// claims their slots but writes no values.
func (w *priceWindow) pass(n int) {
	for ; n > 0 && len(w.samples) < priceWindowCap; n-- {
		w.samples = append(w.samples, 0)
	}
	if n > 0 {
		w.next = (w.next + n) % priceWindowCap
	}
}

// write puts n samples of v into the ring.
func (w *priceWindow) write(v float64, n int) {
	for ; n > 0 && len(w.samples) < priceWindowCap; n-- {
		w.samples = append(w.samples, v)
	}
	for ; n > 0; n-- {
		w.samples[w.next] = v
		w.next = (w.next + 1) % priceWindowCap
	}
}

// flush writes the pending runs into the ring. Only the newest
// priceWindowCap samples can survive: the oldest run's excess is passed.
func (w *priceWindow) flush() {
	runs := w.runs[w.head:]
	if over := w.runN - priceWindowCap; over > 0 {
		w.pass(over)
		runs[0].n -= over
	}
	for _, r := range runs {
		w.write(r.v, r.n)
	}
	w.runs, w.head, w.runN = w.runs[:0], 0, 0
}

func (w *priceWindow) mean() float64 {
	w.flush()
	if len(w.samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range w.samples {
		s += v
	}
	return s / float64(len(w.samples))
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{index: map[spotmarket.MarketKey]*market{}}
}

// watch seeds the table with the provider's market grid, resolving each
// pair's catalog entry once: catalogs and zone sets are fixed for a
// provider's lifetime. Only HVM types can host nested VMs, so only their
// pairs are probed.
func (h *History) watch(prov cloud.Provider) {
	zones := prov.Zones()
	for _, typ := range prov.Catalog() {
		for _, zone := range zones {
			m := h.at(spotmarket.MarketKey{Type: typ.Name, Zone: zone})
			m.typ = typ
			m.noSpot = !typ.HVM
		}
	}
}

// at returns the record for key, growing the table when it is new.
func (h *History) at(key spotmarket.MarketKey) *market {
	if m := h.index[key]; m != nil {
		return m
	}
	m := &market{key: key, noSpot: true}
	h.index[key] = m
	i := sort.Search(len(h.markets), func(i int) bool { return !marketKeyLess(h.markets[i].key, key) })
	// Clipped, the slice has no room to grow in place: Insert copies it.
	h.markets = slices.Insert(slices.Clip(h.markets), i, m)
	return m
}

// read returns the record for key brought up to date, or nil if unseen.
func (h *History) read(key spotmarket.MarketKey) *market {
	m := h.index[key]
	if m != nil && h.sync != nil {
		h.sync(m)
	}
	return m
}

// MeanPrice returns the trailing mean observed price, or 0 if unobserved.
func (h *History) MeanPrice(key spotmarket.MarketKey) cloud.USD {
	if m := h.read(key); m != nil {
		return cloud.USD(m.window.mean())
	}
	return 0
}

// Revocations returns the revocation count observed in a market.
func (h *History) Revocations(key spotmarket.MarketKey) int {
	if m := h.index[key]; m != nil {
		return m.revocations
	}
	return 0
}
