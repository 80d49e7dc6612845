package spotmarket

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simkit"
)

func TestCSVRoundTrip(t *testing.T) {
	k1 := MarketKey{Type: cloud.M3Medium, Zone: "zone-a"}
	k2 := MarketKey{Type: cloud.M3Large, Zone: "zone-b"}
	set, err := GenerateSet(map[MarketKey]GenConfig{
		k1: DefaultConfig(0.07, VolatilityLow),
		k2: DefaultConfig(0.14, VolatilityHigh),
	}, 10*simkit.Day, 99)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round-trip produced %d markets, want 2", len(got))
	}
	for _, k := range []MarketKey{k1, k2} {
		a, b := set[k], got[k]
		if b == nil {
			t.Fatalf("market %v missing after round trip", k)
		}
		if a.Len() != b.Len() {
			t.Fatalf("market %v: %d points became %d", k, a.Len(), b.Len())
		}
		if a.End() != b.End() {
			t.Errorf("market %v: end %v became %v", k, a.End(), b.End())
		}
		pa, pb := a.points, b.points
		for i := range pa {
			// Offsets serialize at millisecond precision; prices at 1e-6.
			if dt := pa[i].T - pb[i].T; dt > simkit.Second/1000 || dt < -simkit.Second/1000 {
				t.Fatalf("market %v point %d time drift %v", k, i, dt)
			}
			if dp := float64(pa[i].Price - pb[i].Price); dp > 1e-6 || dp < -1e-6 {
				t.Fatalf("market %v point %d price drift %v", k, i, dp)
			}
		}
	}
}

func TestReadCSVWithoutSentinel(t *testing.T) {
	in := "type,zone,offset_seconds,price_usd_per_hr\nm3.medium,zone-a,0,0.01\nm3.medium,zone-a,3600,0.02\n"
	set, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := set[MarketKey{Type: "m3.medium", Zone: "zone-a"}]
	if tr == nil {
		t.Fatal("market missing")
	}
	if tr.End() != 2*simkit.Hour {
		t.Errorf("inferred end = %v, want 2h (last change + 1h)", tr.End())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"bad header", "a,b,c,d\n"},
		{"bad offset", "type,zone,offset_seconds,price_usd_per_hr\nx,z,notanumber,0.1\n"},
		{"bad price", "type,zone,offset_seconds,price_usd_per_hr\nx,z,0,notaprice\n"},
		{"no data", "type,zone,offset_seconds,price_usd_per_hr\nx,z,100,end\n"},
		{"empty", ""},
		{"not starting at zero", "type,zone,offset_seconds,price_usd_per_hr\nx,z,5,0.1\n"},
		{"short record after a good one", "type,zone,offset_seconds,price_usd_per_hr\nx,z,0,0.1\nx,z,3600\nx,z,7200,0.2\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
