package spotmarket

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// ReadAWSPriceHistory parses the CSV shape produced by
//
//	aws ec2 describe-spot-price-history --output text
//
// and similar third-party archives (the paper's [21]):
//
//	timestamp,instance_type,availability_zone,price
//	2014-04-01T00:02:11Z,m3.medium,us-east-1a,0.0081
//
// Rows may arrive in any order; each market's rows are sorted, duplicate
// timestamps keep the last row, and offsets are re-based to the earliest
// timestamp across the file (or to start when non-zero). A real archive
// therefore replays through the exact interface the synthetic generator
// feeds.
func ReadAWSPriceHistory(r io.Reader, start time.Time) (Set, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	type row struct {
		at    time.Time
		price cloud.USD
	}
	markets := map[MarketKey][]row{}
	var earliest time.Time
	first := true
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		line++
		if err != nil {
			return nil, fmt.Errorf("spotmarket: aws history line %d: %w", line, err)
		}
		if len(rec) < 4 {
			return nil, fmt.Errorf("spotmarket: aws history line %d: want 4 fields, got %d", line, len(rec))
		}
		// Skip a header row if present.
		if line == 1 && rec[0] == "timestamp" {
			continue
		}
		at, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			return nil, fmt.Errorf("spotmarket: aws history line %d: bad timestamp %q: %w", line, rec[0], err)
		}
		price, err := strconv.ParseFloat(rec[3], 64)
		if err != nil || !(price > 0 && price <= float64(maxPrice)) { // NaN fails too
			return nil, fmt.Errorf("spotmarket: aws history line %d: bad price %q", line, rec[3])
		}
		key := MarketKey{Type: rec[1], Zone: cloud.Zone(rec[2])}
		markets[key] = append(markets[key], row{at: at, price: cloud.USD(price)})
		if first || at.Before(earliest) {
			earliest = at
			first = false
		}
	}
	if len(markets) == 0 {
		return nil, fmt.Errorf("spotmarket: aws history contains no data rows")
	}
	base := earliest
	if !start.IsZero() {
		base = start
	}
	out := Set{}
	for key, rows := range markets {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].at.Before(rows[j].at) })
		var pts []Point
		for _, rw := range rows {
			if rw.at.Before(base) {
				continue
			}
			t := simkit.Time(rw.at.Sub(base))
			if len(pts) > 0 && pts[len(pts)-1].T == t {
				pts[len(pts)-1].Price = rw.price // duplicate timestamp: last wins
				continue
			}
			pts = append(pts, Point{T: t, Price: rw.price})
		}
		if len(pts) == 0 {
			continue
		}
		if pts[0].T != 0 {
			// The price before the first recorded change is unknown;
			// extend the first observation back to the base.
			pts = append([]Point{{T: 0, Price: pts[0].Price}}, pts...)
			if pts[1].T == 0 {
				pts = pts[1:]
			}
		}
		// Drop consecutive no-op points (archives repeat prices).
		dedup := pts[:1]
		for _, p := range pts[1:] {
			if p.Price != dedup[len(dedup)-1].Price {
				dedup = append(dedup, p)
			}
		}
		end := dedup[len(dedup)-1].T + simkit.Hour
		tr, err := NewTrace(dedup, end)
		if err != nil {
			return nil, fmt.Errorf("spotmarket: market %v: %w", key, err)
		}
		out[key] = tr
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("spotmarket: no market has data at or after %v", base)
	}
	return out, nil
}
