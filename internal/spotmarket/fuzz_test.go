package spotmarket

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// checkDecodedSet asserts what every trace a decoder returns must satisfy,
// whatever bytes it was handed: prices finite and positive, times strictly
// increasing from zero to before the end, and a finite whole-trace bill.
func checkDecodedSet(t *testing.T, set Set) {
	t.Helper()
	for k, tr := range set {
		pts := tr.points
		if len(pts) == 0 || pts[0].T != 0 {
			t.Fatalf("%v: does not start at t=0: %v", k, pts)
		}
		for i, p := range pts {
			if price := float64(p.Price); !(price > 0) || math.IsInf(price, 0) {
				t.Fatalf("%v: point %d has price %v", k, i, price)
			}
			if i > 0 && p.T <= pts[i-1].T {
				t.Fatalf("%v: point %d at %v after %v", k, i, p.T, pts[i-1].T)
			}
		}
		if last := pts[len(pts)-1].T; last >= tr.End() {
			t.Fatalf("%v: last point %v not before end %v", k, last, tr.End())
		}
		if bill := float64(tr.Integrate(0, tr.End())); !(bill > 0) || math.IsInf(bill, 0) {
			t.Fatalf("%v: Integrate(0, End) = %v", k, bill)
		}
	}
}

// csvCarries reports whether WriteCSV's resolution — millisecond offsets,
// micro-dollar prices — can represent the set: no two consecutive times
// (the end included) closer than a millisecond, no price under a
// micro-dollar. Such a set must survive a write/read cycle.
func csvCarries(set Set) bool {
	for _, tr := range set {
		pts := tr.points
		for i, p := range pts {
			next := tr.End()
			if i+1 < len(pts) {
				next = pts[i+1].T
			}
			if next-p.T < simkit.Second/1000 || p.Price < 1e-6 {
				return false
			}
		}
	}
	return true
}

const csvHeader = "type,zone,offset_seconds,price_usd_per_hr\n"

// FuzzReadCSV: ReadCSV never panics, everything it accepts satisfies
// checkDecodedSet, and WriteCSV→ReadCSV→WriteCSV reproduces the first
// write byte for byte (the decoded set is a fixed point of the cycle).
// Its seed corpus — the unit tests' inputs and the committed replay
// archive — runs under plain `go test`.
func FuzzReadCSV(f *testing.F) {
	f.Add(csvHeader + "m3.medium,zone-a,0,0.01\nm3.medium,zone-a,3600,0.02\n")
	f.Add(csvHeader + "m3.medium,zone-a,0.000,0.010571\nm3.medium,zone-a,6293.379,0.012970\nm3.large,zone-b,0,0.5\nm3.large,zone-b,86400.000,end\nm3.medium,zone-a,7200,end\n")
	f.Add(csvHeader + "x,z,0,NaN\n")
	f.Add(csvHeader + "x,z,0,+Inf\n")
	f.Add(csvHeader + "x,z,NaN,0.1\n")
	f.Add(csvHeader + "x,z,0,0.1\nx,z,1e300,end\n")
	f.Add(csvHeader + "x,z,0,1e308\nx,z,7200,1e308\n")
	f.Add(csvHeader + "x,z,0,0.0000001\n")
	f.Add(csvHeader + "x,z,0,0.1\nx,z,0.0001,0.2\n")
	f.Add(csvHeader + "x,z,100,end\n")
	f.Add("a,b,c,d\n")
	f.Add("")
	archive, err := os.ReadFile("../scenario/traces/m3medium_week.csv")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(archive))
	f.Fuzz(func(t *testing.T, in string) {
		set, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		checkDecodedSet(t, set)
		var first bytes.Buffer
		if err := WriteCSV(&first, set); err != nil {
			t.Fatal(err)
		}
		again, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			if csvCarries(set) {
				t.Fatalf("re-reading WriteCSV's own output: %v\n%s", err, first.Bytes())
			}
			return // finer than the format's resolution; nothing to compare
		}
		var second bytes.Buffer
		if err := WriteCSV(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write/read cycle is not a fixed point:\nfirst\n%s\nsecond\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadAWSPriceHistory: the archive importer never panics and everything
// it accepts satisfies checkDecodedSet, with and without a re-basing start.
func FuzzReadAWSPriceHistory(f *testing.F) {
	f.Add(awsSample, int64(0))
	f.Add(awsSample, int64(2*time.Hour))
	f.Add("2014-04-01T00:00:00Z,m3.medium,z,NaN\n", int64(0))
	f.Add("2014-04-01T00:00:00Z,m3.medium,z,Inf\n", int64(0))
	f.Add("2014-04-01T00:00:00Z,m3.medium,z,free\n", int64(0))
	f.Add("0001-01-01T00:00:00Z,a,z,1\n9999-12-31T23:59:59Z,a,z,2\n9999-12-31T23:59:58Z,a,z,3\n", int64(0))
	f.Add("2014-04-01T00:00:00.000000001Z,a,z,1\n2014-04-01T00:00:00.000000002Z,a,z,1e9\n", int64(1))
	f.Add("timestamp,instance_type,availability_zone,price\n", int64(0))
	f.Add("", int64(0))
	epoch := time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, in string, startOffset int64) {
		var start time.Time
		if startOffset != 0 {
			start = epoch.Add(time.Duration(startOffset))
		}
		set, err := ReadAWSPriceHistory(strings.NewReader(in), start)
		if err != nil {
			return
		}
		checkDecodedSet(t, set)
	})
}

// TestNonFiniteRowsRejected pins the bug the fuzz targets were written
// around: ParseFloat accepts "NaN" and "Inf", and `price <= 0` is false
// for both, so such rows used to load — a NaN price never exceeds a bid
// (the market never revokes) and turns every bill NaN.
func TestNonFiniteRowsRejected(t *testing.T) {
	for _, price := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 2 * float64(maxPrice)} {
		pts := []Point{{T: 0, Price: 0.01}, {T: simkit.Minute, Price: cloud.USD(price)}}
		if _, err := NewTrace(pts, simkit.Hour); err == nil {
			t.Errorf("NewTrace accepted price %v", price)
		}
	}
	for _, bad := range []string{"NaN", "Inf", "+Inf", "-Inf", "2e9"} {
		in := csvHeader + "m3.medium,zone-a,0,0.01\nm3.medium,zone-a,60," + bad + "\n"
		if set, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV accepted price %q: %v", bad, set)
		}
		in = "2014-04-01T00:00:00Z,m3.medium,z,0.01\n2014-04-01T01:00:00Z,m3.medium,z," + bad + "\n"
		if set, err := ReadAWSPriceHistory(strings.NewReader(in), time.Time{}); err == nil {
			t.Errorf("ReadAWSPriceHistory accepted price %q: %v", bad, set)
		}
	}
	for _, bad := range []string{"NaN", "Inf", "-Inf", "1e300"} {
		in := csvHeader + "m3.medium,zone-a,0,0.01\nm3.medium,zone-a," + bad + ",0.02\n"
		_, err := ReadCSV(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "line 3: bad offset") {
			t.Errorf("ReadCSV offset %q: err = %v, want a line-3 bad-offset error", bad, err)
		}
	}
}
