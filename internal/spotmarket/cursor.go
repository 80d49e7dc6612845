package spotmarket

import (
	"repro/internal/cloud"
	"repro/internal/simkit"
)

// Cursor is a stateful reader over a Trace for time-ordered access. The
// Trace methods binary-search the segment list on every call; the
// platform's price reads, revocation-crossing search and period billing,
// and the figure series (SampleGrid, Figure 1) all query time moving
// forward, so a cursor remembers the last segment and advances linearly
// from it — amortized O(1) per call over a monotone scan instead of
// O(log n). Queries that jump backwards are still correct: the cursor
// falls back to a binary search and re-anchors. Interval sums (Integrate,
// FractionBelow) are Trace methods only: no caller walks them in order.
//
// A Cursor reads the shared immutable Trace and carries only its own
// position, so any number of cursors can walk one trace concurrently (the
// sweep engine's shared read-only trace sets); a single Cursor value is
// not safe for concurrent use.
type Cursor struct {
	tr *Trace
	i  int // index of the segment the last query landed in
}

// Cursor returns a new cursor positioned at the start of the trace.
func (tr *Trace) Cursor() Cursor { return Cursor{tr: tr} }

// seek positions the cursor on the segment containing t and returns its
// index: the last point with T <= t (0 when t precedes the first point).
func (c *Cursor) seek(t simkit.Time) int {
	pts := c.tr.points
	i := c.i
	if t < pts[i].T {
		i = c.tr.segmentAt(t) // backwards jump: re-anchor
	} else {
		for i+1 < len(pts) && pts[i+1].T <= t {
			i++
		}
	}
	c.i = i
	return i
}

// PriceAt returns the market price at time t, exactly as Trace.PriceAt.
func (c *Cursor) PriceAt(t simkit.Time) cloud.USD {
	if t < 0 {
		return c.tr.points[0].Price
	}
	return c.tr.points[c.seek(t)].Price
}

// Index reports how many price changes lie in (0, t] for the t of the last
// query: the index of the segment it landed in.
func (c *Cursor) Index() int { return c.i }

// NextAbove returns the time of the first price change strictly after t
// whose price exceeds bid — the next instant the market can revoke an
// instance bidding bid — or ok=false when the price never exceeds it again.
// The scan is a plain forward walk from t's segment; the cursor stays
// anchored at t.
func (c *Cursor) NextAbove(t simkit.Time, bid cloud.USD) (simkit.Time, bool) {
	pts := c.tr.points
	i := c.seek(t)
	if pts[i].T <= t { // false only when t precedes the first point
		i++
	}
	for ; i < len(pts); i++ {
		if pts[i].Price > bid {
			return pts[i].T, true
		}
	}
	return 0, false
}
