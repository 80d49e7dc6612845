package spotmarket

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

// churnTrace builds a dense deterministic trace for cursor tests.
func churnTrace(t testing.TB, points int, horizon simkit.Time) *Trace {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	pts := make([]Point, 0, points)
	step := horizon / simkit.Time(points)
	for i := 0; i < points; i++ {
		// Strictly increasing times with jitter, positive price.
		at := simkit.Time(i)*step + simkit.Time(r.Int63n(int64(step/2)))
		if i == 0 {
			at = 0
		}
		pts = append(pts, Point{T: at, Price: cloud.USD(0.01 + r.Float64())})
	}
	tr, err := NewTrace(pts, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// The cursor must agree with the Trace methods exactly — on monotone scans,
// on backward jumps, and at segment boundaries.
func TestCursorMatchesTrace(t *testing.T) {
	tr := churnTrace(t, 500, 45*simkit.Day)
	cur := tr.Cursor()
	r := rand.New(rand.NewSource(9))

	// Monotone sweep including exact boundary times.
	var ts []simkit.Time
	for i := 0; i < tr.Len(); i++ {
		ts = append(ts, tr.PointAt(i).T)
	}
	for x := simkit.Time(0); x < tr.End(); x += 37 * simkit.Minute {
		ts = append(ts, x)
	}
	// Sort the probe times (insertion keeps test dependencies stdlib-only).
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
	for _, x := range ts {
		if got, want := cur.PriceAt(x), tr.PriceAt(x); got != want {
			t.Fatalf("cursor PriceAt(%v) = %v, trace says %v", x, got, want)
		}
		if got, want := cur.Index(), tr.segmentAt(x); got != want {
			t.Fatalf("cursor Index after PriceAt(%v) = %d, trace says segment %d", x, got, want)
		}
		// NextAbove against a walk over every later point, at a bid nothing
		// exceeds, one everything exceeds, and the current price.
		for _, bid := range []cloud.USD{maxPrice, 0, tr.PriceAt(x)} {
			var wn simkit.Time
			wok := false
			for i := 0; i < tr.Len() && !wok; i++ {
				if p := tr.PointAt(i); p.T > x && p.Price > bid {
					wn, wok = p.T, true
				}
			}
			if gn, gok := cur.NextAbove(x, bid); gn != wn || gok != wok {
				t.Fatalf("cursor NextAbove(%v, %v) = (%v,%v), the points say (%v,%v)", x, bid, gn, gok, wn, wok)
			}
			if cur.Index() != tr.segmentAt(x) {
				t.Fatalf("NextAbove(%v, %v) moved the cursor to %d", x, bid, cur.Index())
			}
		}
	}
	if at, ok := cur.NextAbove(-simkit.Hour, 0); !ok || at != 0 {
		t.Fatalf("NextAbove(-1h, 0) = (%v,%v), want the first point", at, ok)
	}

	// Random access, including backward jumps and negative times.
	for i := 0; i < 2000; i++ {
		x := simkit.Time(r.Int63n(int64(tr.End()))) - simkit.Hour
		if got, want := cur.PriceAt(x), tr.PriceAt(x); got != want {
			t.Fatalf("random PriceAt(%v) = %v, trace says %v", x, got, want)
		}
	}
}

// The single-pass AvailabilityCurve must stay bit-identical to evaluating
// FractionBelow per ratio (it feeds Figure 6a).
func TestAvailabilityCurveSinglePassIdentical(t *testing.T) {
	tr := churnTrace(t, 400, 20*simkit.Day)
	const od = cloud.USD(0.07)
	ratios := []float64{0, 0.1, 0.25, 0.5, 0.8, 1.0, 1.3, 2.0}
	got := AvailabilityCurve(tr, od, ratios)
	for i, ratio := range ratios {
		want := tr.FractionBelow(cloud.USD(float64(od)*ratio), 0, tr.End())
		if got[i] != want {
			t.Fatalf("ratio %v: curve %v != FractionBelow %v (diff %g)",
				ratio, got[i], want, math.Abs(got[i]-want))
		}
	}
}

// The monitor loop's access pattern — one cursor scanning a trace forward
// at 1-minute resolution — must not allocate, cursor creation included.
func TestCursorSequentialScanAllocs(t *testing.T) {
	tr := churnTrace(t, 4096, 45*simkit.Day)
	var sink cloud.USD
	allocs := testing.AllocsPerRun(5, func() {
		cur := tr.Cursor()
		for at := simkit.Time(0); at < tr.End(); at += simkit.Minute {
			sink += cur.PriceAt(at)
		}
	})
	if allocs != 0 {
		t.Errorf("cursor scan allocates %.1f allocs/scan, want 0 (sink %v)", allocs, sink)
	}
}

// BenchmarkTraceSequentialScan pins the cursor's reason to exist: a
// forward scan (the monitor loop's access pattern) through the trace at
// 1-minute resolution, via repeated Trace.PriceAt binary searches versus
// one cursor.
func BenchmarkTraceSequentialScan(b *testing.B) {
	tr := churnTrace(b, 4096, 45*simkit.Day)
	const tick = simkit.Minute
	b.Run("trace-priceat", func(b *testing.B) {
		var sink cloud.USD
		for i := 0; i < b.N; i++ {
			for t := simkit.Time(0); t < tr.End(); t += tick {
				sink += tr.PriceAt(t)
			}
		}
		_ = sink
	})
	b.Run("cursor", func(b *testing.B) {
		var sink cloud.USD
		for i := 0; i < b.N; i++ {
			cur := tr.Cursor()
			for t := simkit.Time(0); t < tr.End(); t += tick {
				sink += cur.PriceAt(t)
			}
		}
		_ = sink
	})
}
