package spotmarket

import (
	"math"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// AvailabilityCurve evaluates availability at each bid/on-demand ratio,
// reproducing one line of Figure 6a. It walks the trace once, crediting
// each segment's duration to every qualifying bid level, instead of
// re-scanning the whole trace per ratio; each ratio's accumulator still
// receives the same additions in the same segment order as a per-ratio
// FractionBelow call, so the results are bit-identical.
func AvailabilityCurve(tr *Trace, onDemand cloud.USD, ratios []float64) []float64 {
	bids := make([]cloud.USD, len(ratios))
	for i, r := range ratios {
		bids[i] = cloud.USD(float64(onDemand) * r)
	}
	below := make([]float64, len(ratios))
	n := tr.Len()
	for i := 0; i < n; i++ {
		p := tr.PointAt(i)
		segEnd := tr.End()
		if i+1 < n {
			segEnd = tr.PointAt(i + 1).T
		}
		hours := segEnd.Sub(p.T).Hours()
		for j, bid := range bids {
			if p.Price <= bid {
				below[j] += hours
			}
		}
	}
	total := tr.End().Hours()
	out := make([]float64, len(ratios))
	for j := range out {
		out[j] = below[j] / total
	}
	return out
}

// HourlyJumps returns the percentage magnitudes of hourly price changes,
// split into increases and decreases (Figure 6b). Prices are sampled on an
// hourly grid as the paper does; zero-change hours are skipped.
func HourlyJumps(tr *Trace) (increases, decreases []float64) {
	grid := tr.SampleGrid(simkit.Hour)
	for i := 1; i < len(grid); i++ {
		prev, cur := grid[i-1], grid[i]
		if prev <= 0 {
			continue
		}
		pct := 100 * (cur - prev) / prev
		switch {
		case pct > 0:
			increases = append(increases, pct)
		case pct < 0:
			decreases = append(decreases, -pct)
		}
	}
	return increases, decreases
}

// Pearson computes the Pearson correlation coefficient between two equal-
// length series. It returns 0 for degenerate (constant or empty) inputs.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a[i]
		mb += b[i]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// CorrelationMatrix computes pairwise Pearson correlations of the traces'
// hourly price series, in the order given (Figures 6c/6d).
func CorrelationMatrix(traces []*Trace) [][]float64 {
	series := make([][]float64, len(traces))
	for i, tr := range traces {
		series[i] = tr.SampleGrid(simkit.Hour)
	}
	m := make([][]float64, len(traces))
	for i := range m {
		m[i] = make([]float64, len(traces))
		for j := range m[i] {
			if i == j {
				m[i][j] = 1
				continue
			}
			m[i][j] = Pearson(series[i], series[j])
		}
	}
	return m
}

// OffDiagonalStats summarises the magnitudes of the off-diagonal entries of
// a correlation matrix (used to assert cross-market independence).
func OffDiagonalStats(m [][]float64) (mean, max float64) {
	var n int
	for i := range m {
		for j := range m[i] {
			if i == j {
				continue
			}
			v := math.Abs(m[i][j])
			mean += v
			if v > max {
				max = v
			}
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return mean, max
}
