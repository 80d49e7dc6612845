package simkit

import (
	"math"
	"math/rand"
	"testing"
)

func sampleN(d Dist, r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestConstant(t *testing.T) {
	d := Constant{V: 42}
	r := rand.New(rand.NewSource(1))
	if d.Sample(r) != 42 || d.Mean() != 42 {
		t.Error("Constant distribution broken")
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	d := Uniform{Lo: 2, Hi: 6}
	r := rand.New(rand.NewSource(1))
	xs := sampleN(d, r, 20000)
	for _, x := range xs {
		if x < 2 || x >= 6 {
			t.Fatalf("uniform sample %v out of [2,6)", x)
		}
	}
	if m := mean(xs); math.Abs(m-4) > 0.05 {
		t.Errorf("uniform mean = %v, want ~4", m)
	}
	if d.Mean() != 4 {
		t.Error("Mean() wrong")
	}
}

func TestExponentialMean(t *testing.T) {
	d := Exponential{MeanVal: 3}
	r := rand.New(rand.NewSource(2))
	if m := mean(sampleN(d, r, 50000)); math.Abs(m-3) > 0.1 {
		t.Errorf("exponential mean = %v, want ~3", m)
	}
	if d.Mean() != 3 {
		t.Error("Mean() wrong")
	}
}

func TestParetoTailAndMean(t *testing.T) {
	d := Pareto{Scale: 1, Alpha: 2}
	r := rand.New(rand.NewSource(4))
	xs := sampleN(d, r, 100000)
	for _, x := range xs {
		if x < 1 {
			t.Fatalf("pareto sample %v below scale", x)
		}
	}
	// Mean = alpha*scale/(alpha-1) = 2.
	if m := mean(xs); math.Abs(m-2) > 0.15 {
		t.Errorf("pareto mean = %v, want ~2", m)
	}
	if d.Mean() != 2 {
		t.Error("Mean() wrong")
	}
	if !math.IsInf(Pareto{Scale: 1, Alpha: 1}.Mean(), 1) {
		t.Error("alpha<=1 should have infinite mean")
	}
}

func TestClamped(t *testing.T) {
	d := Clamped{Inner: Constant{V: 100}, Lo: 0, Hi: 10}
	r := rand.New(rand.NewSource(5))
	if v := d.Sample(r); v != 10 {
		t.Errorf("clamp high: got %v", v)
	}
	d2 := Clamped{Inner: Constant{V: -5}, Lo: 0, Hi: 10}
	if v := d2.Sample(r); v != 0 {
		t.Errorf("clamp low: got %v", v)
	}
	if d.Mean() != 10 || d2.Mean() != 0 {
		t.Error("clamped Mean() wrong")
	}
	d3 := Clamped{Inner: Constant{V: 5}, Lo: 0, Hi: 10}
	if d3.Mean() != 5 {
		t.Error("in-range Mean() wrong")
	}
}

func TestSampleSecondsNeverNegative(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, tc := range []struct {
		sample float64
		want   Time
	}{
		{-3, 0},
		{1.5, Seconds(1.5)},
		{math.NaN(), 0},
		{math.Inf(1), maxTime},
		{math.MaxFloat64, maxTime},
		{1e10, maxTime}, // 10^19 ns: past 2^63-1
	} {
		got := SampleSeconds(Constant{V: tc.sample}, r)
		if got != tc.want {
			t.Errorf("SampleSeconds(%v) = %d, want %d", tc.sample, got, tc.want)
		}
		if got < 0 {
			t.Errorf("SampleSeconds(%v) is negative", tc.sample)
		}
	}
}

func TestDeterminism(t *testing.T) {
	d := Lognormal{Mu: 1, Sigma: 0.5}
	a := sampleN(d, rand.New(rand.NewSource(7)), 100)
	b := sampleN(d, rand.New(rand.NewSource(7)), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

// Latency sampling runs once per simulated provider operation and must not
// allocate.
func TestLognormalSampleAllocs(t *testing.T) {
	d := Lognormal{Mu: 4, Sigma: 0.3}
	r := rand.New(rand.NewSource(1))
	if allocs := testing.AllocsPerRun(1000, func() { _ = d.Sample(r) }); allocs != 0 {
		t.Errorf("Lognormal.Sample allocates %.2f allocs/op, want 0", allocs)
	}
}
