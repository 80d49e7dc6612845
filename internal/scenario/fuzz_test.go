package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/simkit"
)

// FuzzParseSpec feeds arbitrary bytes to the spec parser, seeded with the
// library and the benchmark's campaign specs. It must never panic, and a
// spec it accepts must convert every duration the way Compile does to a
// non-negative simulated time, with a positive horizon.
func FuzzParseSpec(f *testing.F) {
	for _, s := range Library() {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "bench", "specs", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","vms":4,"hours":2562047.7,"faults":{"extra_latency_seconds":9.2e9}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if h := simkit.Hours(s.Hours); h <= 0 {
			t.Fatalf("accepted hours %v converts to horizon %v", s.Hours, h)
		}
		for field, d := range map[string]simkit.Time{
			"window_hours":          simkit.Hours(s.Arrival.WindowHours),
			"storm_hours":           simkit.Hours(s.Market.StormHours),
			"extra_latency_seconds": simkit.Seconds(s.Faults.ExtraLatencySeconds),
		} {
			if d < 0 {
				t.Fatalf("accepted %s converts to %v", field, d)
			}
		}
	})
}
