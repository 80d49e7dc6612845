package experiments

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// This file implements §4.4's analytic cost and availability model:
//
//	E(c) = (1-p)·E(c_spot) + p·c_od        expected hourly cost
//	p    = P(c_spot(t) > bid)              revocation probability
//	R    = p/T                             revocation rate
//	unavailability = D·R                   D = per-migration downtime
//
// evaluated directly against a price trace, so bidding policies can be
// compared without running the full controller simulation.

// BidPoint is the model evaluated at one bid level.
type BidPoint struct {
	// Ratio is bid / on-demand price.
	Ratio float64
	// P is the probability the spot price exceeds the bid (the fraction
	// of time the VM would not be hosted on spot).
	P float64
	// ExpectedCost is E(c) in $/hr, per §4.4 (spot when below bid,
	// on-demand otherwise).
	ExpectedCost float64
	// RevocationsPerDay is R expressed per day.
	RevocationsPerDay float64
	// UnavailabilityPct is D·R as a percentage, for the supplied
	// per-migration downtime D.
	UnavailabilityPct float64
}

// BidCurve evaluates the §4.4 model over bid ratios against a trace.
// downtimePerMigration is D (the paper uses its measured ~23 s).
func BidCurve(tr *spotmarket.Trace, od cloud.USD, ratios []float64, downtimePerMigration simkit.Time) []BidPoint {
	if ratios == nil {
		ratios = []float64{0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.2, 1.5, 2.0}
	}
	horizonHours := tr.End().Hours()
	out := make([]BidPoint, 0, len(ratios))
	for _, ratio := range ratios {
		bid := cloud.USD(float64(od) * ratio)
		below := tr.FractionBelow(bid, 0, tr.End())
		p := 1 - below

		// E(c_spot | spot <= bid): mean price during the below-bid time.
		// Iterate segments in place — copying the point slice per ratio
		// made this loop the curve's allocation hot spot.
		var spotMean float64
		if below > 0 {
			var integral float64 // $·hr accumulated while below bid
			n := tr.Len()
			for i := 0; i < n; i++ {
				pt := tr.PointAt(i)
				segEnd := tr.End()
				if i+1 < n {
					segEnd = tr.PointAt(i + 1).T
				}
				if pt.Price <= bid {
					integral += float64(pt.Price) * segEnd.Sub(pt.T).Hours()
				}
			}
			spotMean = integral / (below * horizonHours)
		}
		expected := (1-p)*spotMean + p*float64(od)

		revocations := float64(len(tr.ExcursionsAbove(bid)))
		rPerDay := revocations / (horizonHours / 24)
		unavailPct := 100 * revocations * downtimePerMigration.Hours() / horizonHours

		out = append(out, BidPoint{
			Ratio:             ratio,
			P:                 p,
			ExpectedCost:      expected,
			RevocationsPerDay: rPerDay,
			UnavailabilityPct: unavailPct,
		})
	}
	return out
}

// Knee returns the smallest bid ratio whose availability (1-P) is within
// epsilon of the best achievable over the evaluated points — the paper's
// observation that "simply bidding the on-demand price is an approximation
// of bidding an 'optimal' value that is equal to the knee of this
// availability-bid curve".
func Knee(points []BidPoint, epsilon float64) (BidPoint, error) {
	if len(points) == 0 {
		return BidPoint{}, fmt.Errorf("experiments: no bid points")
	}
	best := 0.0
	for _, p := range points {
		if a := 1 - p.P; a > best {
			best = a
		}
	}
	for _, p := range points {
		if 1-p.P >= best-epsilon {
			return p, nil
		}
	}
	return points[len(points)-1], nil
}

// RenderBidCurves renders every market's bid curve, at 23 s of downtime per
// migration, followed by its knee where one exists.
func RenderBidCurves(set spotmarket.Set) string {
	var b strings.Builder
	for _, key := range set.Keys() {
		od := cloud.OnDemandPrice(key.Type)
		points := BidCurve(set[key], od, nil, 23*simkit.Second)
		b.WriteString(BidCurveTable(
			fmt.Sprintf("Bid curve (%s, on-demand $%.2f/hr): expected cost & availability vs bid", key, float64(od)),
			points).String())
		if knee, err := Knee(points, 0.005); err == nil {
			fmt.Fprintf(&b, "knee at bid = %.2fx on-demand\n", knee.Ratio)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// BidCurveTable renders a bid curve.
func BidCurveTable(title string, points []BidPoint) *analysis.Table {
	t := analysis.NewTable(title,
		"bid/od", "P(revoked)", "E(cost) $/hr", "revocations/day", "unavail(%)")
	for _, p := range points {
		t.AddRow(p.Ratio, p.P, p.ExpectedCost, p.RevocationsPerDay, p.UnavailabilityPct)
	}
	return t
}
