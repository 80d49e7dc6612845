package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

// Fig1 reproduces Figure 1: a spot price timeseries over ~2.5 days showing
// spikes far above the on-demand price. The paper plots m1.small (on-demand
// $0.06/hr) spiking to several dollars.
func Fig1(seed int64) (analysis.Series, error) {
	const od = cloud.USD(0.06)
	cfg := spotmarket.DefaultConfig(od, spotmarket.VolatilityExtreme)
	// m1.small's market showed extreme spikes (60x on-demand); heavy tail.
	cfg.SpikeHeight = simkit.Clamped{
		Inner: simkit.Pareto{Scale: 2, Alpha: 0.9},
		Lo:    1.5, Hi: 100,
	}
	cfg.SpikeMeanInterval = 10 * simkit.Hour
	horizon := 60 * simkit.Hour
	r := newRand(seed)
	tr, err := spotmarket.Generate(cfg, horizon, r)
	if err != nil {
		return analysis.Series{}, err
	}
	var xs, ys []float64
	cur := tr.Cursor()
	for t := simkit.Time(0); t < horizon; t += 10 * simkit.Minute {
		xs = append(xs, t.Hours())
		ys = append(ys, float64(cur.PriceAt(t)))
	}
	return analysis.Series{
		Name: fmt.Sprintf("Fig 1: m1.small spot price ($/hr) over %.0f hours (on-demand $%.2f)", horizon.Hours(), float64(od)),
		X:    xs, Y: ys,
	}, nil
}

// Fig1Chart renders Figure 1's series on a log scale, with the on-demand
// price as a dashed line.
func Fig1Chart(s analysis.Series) string {
	chart := analysis.AsciiChart{
		Title:   s.Name + " [log scale, dashes = on-demand price]",
		YMarker: 0.06,
		LogY:    true,
	}
	return chart.Render(s.X, s.Y)
}

// Fig6aRow is one instance type's availability-vs-bid curve.
type Fig6aRow struct {
	Type   string
	Ratios []float64 // bid / on-demand
	Avail  []float64 // availability at that bid
}

// Fig6a reproduces Figure 6a: the CDF of availability against the
// bid-to-on-demand price ratio for the m3.* types.
func Fig6a(horizon simkit.Time, seed int64) ([]Fig6aRow, error) {
	set, err := EvalTraces(horizon, seed)
	if err != nil {
		return nil, err
	}
	return Fig6aFromSet(set), nil
}

// Fig6aFromSet computes Figure 6a's curves over an arbitrary trace set —
// synthetic or replayed from a real archive. Types without a catalog
// on-demand price anchor to the m3.medium price.
func Fig6aFromSet(set spotmarket.Set) []Fig6aRow {
	ratios := make([]float64, 0, 41)
	for r := 0.0; r <= 2.0001; r += 0.05 {
		ratios = append(ratios, r)
	}
	var rows []Fig6aRow
	for _, key := range set.Keys() {
		rows = append(rows, Fig6aRow{
			Type:   key.String(),
			Ratios: ratios,
			Avail:  spotmarket.AvailabilityCurve(set[key], cloud.OnDemandPrice(key.Type), ratios),
		})
	}
	return rows
}

// Fig6aTable renders Figure 6a's curves, one availability column per
// market; rows must not be empty.
func Fig6aTable(rows []Fig6aRow) *analysis.Table {
	headers := []string{"ratio"}
	for _, r := range rows {
		headers = append(headers, r.Type)
	}
	t := analysis.NewTable("Fig 6a: availability CDF vs bid/on-demand ratio", headers...)
	for i, ratio := range rows[0].Ratios {
		cells := []any{ratio}
		for _, r := range rows {
			cells = append(cells, r.Avail[i])
		}
		t.AddRow(cells...)
	}
	return t
}

// Fig6b reproduces Figure 6b: the CDF of hourly percentage price jumps
// (increases and decreases pooled across the m3.* markets).
func Fig6b(horizon simkit.Time, seed int64) (inc, dec *analysis.CDF, err error) {
	set, err := EvalTraces(horizon, seed)
	if err != nil {
		return nil, nil, err
	}
	inc, dec = Fig6bFromSet(set)
	return inc, dec, nil
}

// Fig6bFromSet computes the jump CDFs over an arbitrary trace set.
func Fig6bFromSet(set spotmarket.Set) (inc, dec *analysis.CDF) {
	var incs, decs []float64
	for _, key := range set.Keys() {
		i, d := spotmarket.HourlyJumps(set[key])
		incs = append(incs, i...)
		decs = append(decs, d...)
	}
	return analysis.NewCDF(incs), analysis.NewCDF(decs)
}

// Fig6c reproduces Figure 6c: the Pearson correlation matrix of prices
// across availability zones (paper: 18 zones).
func Fig6c(zones int, horizon simkit.Time, seed int64) ([][]float64, error) {
	set, keys, err := ZoneTraces(zones, horizon, seed)
	if err != nil {
		return nil, err
	}
	traces := make([]*spotmarket.Trace, len(keys))
	for i, k := range keys {
		traces[i] = set[k]
	}
	return spotmarket.CorrelationMatrix(traces), nil
}

// Fig6d reproduces Figure 6d: the correlation matrix across instance types
// (paper: 15 types).
func Fig6d(types int, horizon simkit.Time, seed int64) ([][]float64, error) {
	set, keys, err := TypeTraces(types, horizon, seed)
	if err != nil {
		return nil, err
	}
	traces := make([]*spotmarket.Trace, len(keys))
	for i, k := range keys {
		traces[i] = set[k]
	}
	return spotmarket.CorrelationMatrix(traces), nil
}

// RenderCorrelation renders a correlation matrix with summary stats.
func RenderCorrelation(title string, m [][]float64) string {
	mean, max := spotmarket.OffDiagonalStats(m)
	t := analysis.NewTable(title, "i", "min", "median", "max(offdiag)")
	for i := range m {
		var off []float64
		for j := range m[i] {
			if i != j {
				off = append(off, m[i][j])
			}
		}
		sort.Float64s(off)
		if len(off) == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", i+1), off[0], off[len(off)/2], off[len(off)-1])
	}
	return t.String() + fmt.Sprintf("mean |off-diagonal| = %.4f, max |off-diagonal| = %.4f\n", mean, max)
}

// JumpCDFTable renders Figure 6b's jump CDFs at log-spaced jump sizes.
func JumpCDFTable(inc, dec *analysis.CDF) *analysis.Table {
	t := analysis.NewTable("Fig 6b: CDF of hourly percentage price jumps",
		"jump(%)", "P(increase<=x)", "P(decrease<=x)")
	for _, x := range []float64{1, 10, 100, 1000, 10000, 100000} {
		t.AddRow(x, inc.At(x), dec.At(x))
	}
	t.AddRow(math.Inf(1), 1.0, 1.0)
	return t
}
