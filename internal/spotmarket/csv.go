package spotmarket

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// CSV layout: one row per price change,
//
//	type,zone,offset_seconds,price_usd_per_hr
//
// plus one sentinel row per market with offset == horizon and price "end"
// marking the trace end, so horizons round-trip exactly. This mirrors
// third-party spot price archives (the paper cites [21]) closely enough
// that a real archive converts with a one-line awk script.

// maxOffsetSeconds is the first offset past what simkit.Time can hold
// (float64(MaxInt64) rounds up to 2^63).
const maxOffsetSeconds = float64(math.MaxInt64) / float64(simkit.Second)

// WriteCSV encodes a trace set.
func WriteCSV(w io.Writer, set Set) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"type", "zone", "offset_seconds", "price_usd_per_hr"}); err != nil {
		return err
	}
	for _, k := range set.Keys() {
		tr := set[k]
		for i := 0; i < tr.Len(); i++ {
			p := tr.PointAt(i)
			rec := []string{k.Type, string(k.Zone),
				strconv.FormatFloat(p.T.Seconds(), 'f', 3, 64),
				strconv.FormatFloat(float64(p.Price), 'f', 6, 64)}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
		end := []string{k.Type, string(k.Zone),
			strconv.FormatFloat(tr.End().Seconds(), 'f', 3, 64), "end"}
		if err := cw.Write(end); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace set written by WriteCSV.
func ReadCSV(r io.Reader) (Set, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("spotmarket: reading CSV header: %w", err)
	}
	if header[0] != "type" {
		return nil, fmt.Errorf("spotmarket: unexpected CSV header %q", header)
	}
	type acc struct {
		points []Point
		end    simkit.Time
		ended  bool
	}
	markets := map[MarketKey]*acc{}
	var order []MarketKey
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("spotmarket: CSV line %d: %w", line, err)
		}
		key := MarketKey{Type: rec[0], Zone: cloud.Zone(rec[1])}
		// ParseFloat accepts "NaN" and "Inf", and converting either — or
		// anything past int64 nanoseconds — to simkit.Time is undefined.
		secs, err := strconv.ParseFloat(rec[2], 64)
		if err != nil || math.IsNaN(secs) || math.Abs(secs) >= maxOffsetSeconds {
			return nil, fmt.Errorf("spotmarket: CSV line %d: bad offset %q", line, rec[2])
		}
		a, ok := markets[key]
		if !ok {
			a = &acc{}
			markets[key] = a
			order = append(order, key)
		}
		if rec[3] == "end" {
			a.end = simkit.Seconds(secs)
			a.ended = true
			continue
		}
		price, err := strconv.ParseFloat(rec[3], 64)
		if err != nil {
			return nil, fmt.Errorf("spotmarket: CSV line %d: bad price %q", line, rec[3])
		}
		a.points = append(a.points, Point{T: simkit.Seconds(secs), Price: cloud.USD(price)})
	}
	out := Set{}
	SortMarketKeys(order)
	for _, k := range order {
		a := markets[k]
		if !a.ended {
			if len(a.points) == 0 {
				return nil, fmt.Errorf("spotmarket: market %v has no data", k)
			}
			// No sentinel: extend one hour past the last change.
			a.end = a.points[len(a.points)-1].T + simkit.Hour
		}
		tr, err := newTraceOwned(a.points, a.end)
		if err != nil {
			return nil, fmt.Errorf("spotmarket: market %v: %w", k, err)
		}
		out[k] = tr
	}
	return out, nil
}
