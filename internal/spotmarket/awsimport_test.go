package spotmarket

import (
	"strings"
	"testing"
	"time"

	"repro/internal/simkit"
)

const awsSample = `timestamp,instance_type,availability_zone,price
2014-04-01T01:00:00Z,m3.medium,us-east-1a,0.0081
2014-04-01T00:00:00Z,m3.medium,us-east-1a,0.0090
2014-04-01T02:00:00Z,m3.medium,us-east-1a,0.0081
2014-04-01T03:00:00Z,m3.medium,us-east-1a,0.5100
2014-04-01T00:30:00Z,m3.large,us-east-1b,0.0160
`

func TestReadAWSPriceHistory(t *testing.T) {
	set, err := ReadAWSPriceHistory(strings.NewReader(awsSample), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("markets = %d, want 2", len(set))
	}
	med := set[MarketKey{Type: "m3.medium", Zone: "us-east-1a"}]
	if med == nil {
		t.Fatal("medium market missing")
	}
	// Rows were out of order: the earliest (00:00, 0.0090) re-bases to 0.
	if got := med.PriceAt(0); got != 0.0090 {
		t.Errorf("price at 0 = %v, want 0.0090", got)
	}
	if got := med.PriceAt(90 * simkit.Minute); got != 0.0081 {
		t.Errorf("price at 1h30 = %v, want 0.0081", got)
	}
	// The duplicate 0.0081 at 02:00 was deduplicated: next change is 3h.
	if next, ok := med.NextChangeAfter(simkit.Hour); !ok || next != 3*simkit.Hour {
		t.Errorf("next change = %v,%v, want 3h", next, ok)
	}
	if got := med.PriceAt(3 * simkit.Hour); got != 0.51 {
		t.Errorf("spike price = %v", got)
	}
	// The large market's single observation extends back to the base.
	lrg := set[MarketKey{Type: "m3.large", Zone: "us-east-1b"}]
	if got := lrg.PriceAt(0); got != 0.016 {
		t.Errorf("large price at 0 = %v", got)
	}
}

func TestReadAWSPriceHistoryWithStart(t *testing.T) {
	start := time.Date(2014, 4, 1, 2, 0, 0, 0, time.UTC)
	set, err := ReadAWSPriceHistory(strings.NewReader(awsSample), start)
	if err != nil {
		t.Fatal(err)
	}
	med := set[MarketKey{Type: "m3.medium", Zone: "us-east-1a"}]
	// Only the 02:00 and 03:00 rows survive; re-based to the start.
	if got := med.PriceAt(0); got != 0.0081 {
		t.Errorf("price at 0 = %v, want 0.0081", got)
	}
	if got := med.PriceAt(simkit.Hour); got != 0.51 {
		t.Errorf("price at 1h = %v, want 0.51", got)
	}
	// The large market's only row (00:30) precedes the start: dropped.
	if _, ok := set[MarketKey{Type: "m3.large", Zone: "us-east-1b"}]; ok {
		t.Error("pre-start market should be dropped")
	}
}

func TestReadAWSPriceHistoryErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"header only":    "timestamp,instance_type,availability_zone,price\n",
		"bad timestamp":  "yesterday,m3.medium,z,0.01\n",
		"bad price":      "2014-04-01T00:00:00Z,m3.medium,z,free\n",
		"neg price":      "2014-04-01T00:00:00Z,m3.medium,z,-1\n",
		"short row":      "2014-04-01T00:00:00Z,m3.medium\n",
		"bare quote":     "2014-04-01T00:00:00Z,m3.medium,z,0.01\n2014-04-01T01:00:00Z,m3.medium,z,0.0\"2\n2014-04-01T02:00:00Z,m3.medium,z,0.03\n",
		"start too late": awsSample, // validated below with a future start
	}
	for name, in := range cases {
		start := time.Time{}
		if name == "start too late" {
			start = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
		}
		if _, err := ReadAWSPriceHistory(strings.NewReader(in), start); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
