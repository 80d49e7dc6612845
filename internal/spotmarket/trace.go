// Package spotmarket models the native platform's spot price dynamics:
// step-function price traces per (instance type, zone) market, a synthetic
// regime-switching generator calibrated to the statistics the paper reports
// in Figure 6, analysis helpers (availability-vs-bid CDFs, jump
// distributions, cross-market correlation), and CSV trace interchange so
// real price archives can be replayed through the same interface.
package spotmarket

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// Point is one price change: the market price becomes Price at time T and
// holds until the next point.
type Point struct {
	T     simkit.Time
	Price cloud.USD
}

// Trace is a right-continuous step function of the spot price over
// [0, End). The first point must be at T=0 so the price is defined from the
// start of the simulation.
type Trace struct {
	points []Point
	end    simkit.Time
}

// maxPrice bounds a trace's prices ($/hr). No market quotes anywhere near
// it; the bound is what keeps every bill a trace can produce — a price
// integrated over at most the int64-nanosecond horizon — finite.
const maxPrice cloud.USD = 1e9

// NewTrace builds a trace from points. Points must be strictly increasing
// in time, start at T=0, carry prices in (0, 1e9] $/hr, and end before
// end. The slice is copied so callers stay free to reuse it.
func NewTrace(points []Point, end simkit.Time) (*Trace, error) {
	if err := validatePoints(points, end); err != nil {
		return nil, err
	}
	cp := append([]Point(nil), points...)
	return &Trace{points: cp, end: end}, nil
}

// newTraceOwned builds a trace taking ownership of points: same validation
// as NewTrace, no defensive copy. Only for construction sites (the
// generators, CSV decoding, Slice) whose slice provably has no other
// holder — a six-month trace is thousands of points, and the copy was the
// generator's single largest allocation.
func newTraceOwned(points []Point, end simkit.Time) (*Trace, error) {
	if err := validatePoints(points, end); err != nil {
		return nil, err
	}
	return &Trace{points: points, end: end}, nil
}

func validatePoints(points []Point, end simkit.Time) error {
	if len(points) == 0 {
		return fmt.Errorf("spotmarket: trace needs at least one point")
	}
	if points[0].T != 0 {
		return fmt.Errorf("spotmarket: trace must start at t=0, got %v", points[0].T)
	}
	for i, p := range points {
		// Written so that NaN fails too: it is neither > 0 nor <= maxPrice.
		// A NaN price would never exceed a bid — the market could not
		// revoke — and would turn every bill NaN.
		if !(p.Price > 0 && p.Price <= maxPrice) {
			return fmt.Errorf("spotmarket: price %v at point %d outside (0, %v]", float64(p.Price), i, float64(maxPrice))
		}
		if i > 0 && p.T <= points[i-1].T {
			return fmt.Errorf("spotmarket: points not strictly increasing at %d (%v after %v)", i, p.T, points[i-1].T)
		}
	}
	if last := points[len(points)-1].T; last >= end {
		return fmt.Errorf("spotmarket: last point %v not before end %v", last, end)
	}
	return nil
}

// End reports the trace horizon; prices are undefined at or after End and
// PriceAt clamps to the final segment.
func (tr *Trace) End() simkit.Time { return tr.end }

// Len reports the number of price changes.
func (tr *Trace) Len() int { return len(tr.points) }

// PointAt returns the i-th price-change point without copying the whole
// trace. The segment starting at PointAt(i) ends at PointAt(i+1).T, or at
// End() for the last point.
func (tr *Trace) PointAt(i int) Point { return tr.points[i] }

// segmentAt returns the index of the segment containing t.
func (tr *Trace) segmentAt(t simkit.Time) int {
	// Find the last point with T <= t.
	i := sort.Search(len(tr.points), func(i int) bool { return tr.points[i].T > t })
	if i == 0 {
		return 0
	}
	return i - 1
}

// PriceAt returns the market price at time t (clamped to the first/last
// segment outside [0, End)).
func (tr *Trace) PriceAt(t simkit.Time) cloud.USD {
	if t < 0 {
		return tr.points[0].Price
	}
	return tr.points[tr.segmentAt(t)].Price
}

// NextChangeAfter returns the time of the first price change strictly after
// t, or ok=false when the price never changes again before End.
func (tr *Trace) NextChangeAfter(t simkit.Time) (simkit.Time, bool) {
	i := sort.Search(len(tr.points), func(i int) bool { return tr.points[i].T > t })
	if i == len(tr.points) {
		return 0, false
	}
	return tr.points[i].T, true
}

// Integrate returns the rental cost in dollars of holding one instance at
// the market price over [a, b): the integral of price dt, in $·hr.
func (tr *Trace) Integrate(a, b simkit.Time) cloud.USD {
	if b <= a {
		return 0
	}
	var total float64
	i := tr.segmentAt(a)
	cur := a
	for cur < b {
		segEnd := b
		if i+1 < len(tr.points) && tr.points[i+1].T < b {
			segEnd = tr.points[i+1].T
		}
		total += float64(tr.points[i].Price) * segEnd.Sub(cur).Hours()
		cur = segEnd
		i++
	}
	return cloud.USD(total)
}

// MeanPrice returns the time-weighted mean price over [a, b).
//
//lint:testonly the market and policy tests' oracle for prices the controller samples
func (tr *Trace) MeanPrice(a, b simkit.Time) cloud.USD {
	if b <= a {
		return 0
	}
	return cloud.USD(float64(tr.Integrate(a, b)) / b.Sub(a).Hours())
}

// FractionBelow returns the fraction of [a, b) during which the price is at
// or below bid. Bidding `bid` on this market yields exactly this
// availability before accounting for migration downtime (Figure 6a).
func (tr *Trace) FractionBelow(bid cloud.USD, a, b simkit.Time) float64 {
	if b <= a {
		return 0
	}
	var below float64
	i := tr.segmentAt(a)
	cur := a
	for cur < b {
		segEnd := b
		if i+1 < len(tr.points) && tr.points[i+1].T < b {
			segEnd = tr.points[i+1].T
		}
		if tr.points[i].Price <= bid {
			below += segEnd.Sub(cur).Hours()
		}
		cur = segEnd
		i++
	}
	return below / b.Sub(a).Hours()
}

// Excursion is one contiguous interval during which the price exceeded the
// bid; each excursion revokes every spot instance bid at that level.
type Excursion struct {
	Start, End simkit.Time
	Peak       cloud.USD
}

// ExcursionsAbove returns the intervals of [0, End) where price > bid.
func (tr *Trace) ExcursionsAbove(bid cloud.USD) []Excursion {
	var out []Excursion
	var open bool
	var cur Excursion
	for i, p := range tr.points {
		segEnd := tr.end
		if i+1 < len(tr.points) {
			segEnd = tr.points[i+1].T
		}
		if p.Price > bid {
			if !open {
				open = true
				cur = Excursion{Start: p.T, Peak: p.Price}
			} else if p.Price > cur.Peak {
				cur.Peak = p.Price
			}
			cur.End = segEnd
		} else if open {
			out = append(out, cur)
			open = false
		}
	}
	if open {
		out = append(out, cur)
	}
	return out
}

// SampleGrid returns the price sampled every interval over [0, End), used
// for jump statistics and cross-market correlation.
func (tr *Trace) SampleGrid(interval simkit.Time) []float64 {
	if interval <= 0 {
		return nil
	}
	n := int(tr.end / interval)
	out := make([]float64, 0, n)
	cur := tr.Cursor()
	for t := simkit.Time(0); t < tr.end; t += interval {
		out = append(out, float64(cur.PriceAt(t)))
	}
	return out
}
