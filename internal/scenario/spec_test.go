package scenario

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validSpec() Spec {
	return Spec{Name: "t", VMs: 4, Hours: 24, Seed: 1}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "needs a name"},
		{"zero vms", func(s *Spec) { s.VMs = 0 }, "vms"},
		{"zero hours", func(s *Spec) { s.Hours = 0 }, "hours"},
		{"bad shape", func(s *Spec) { s.Arrival.Shape = "lunar" }, "arrival shape"},
		{"bad regime", func(s *Spec) { s.Market.Regime = "bull" }, "market regime"},
		{"replay without csv", func(s *Spec) { s.Market.Regime = "replay" }, "replay_csv"},
		{"fail prob above 1", func(s *Spec) { s.Faults.FailProb = 1.5 }, "fail_prob"},
		{"negative latency", func(s *Spec) { s.Faults.ExtraLatencySeconds = -1 }, "extra_latency"},
		{"window beyond horizon", func(s *Spec) { s.Arrival.WindowHours = 100 }, "window_hours"},
		{"fractional surge", func(s *Spec) { s.Arrival.Surge = 0.5 }, "surge"},
		{"peak hour out of range", func(s *Spec) { s.Arrival.PeakHour = 24 }, "peak_hour"},
		{"unknown policy", func(s *Spec) { s.Policy = "9P-X" }, "policy"},
		{"unknown mechanism", func(s *Spec) { s.Mechanism = "teleport" }, "mechanism"},
		{"hours overflow", func(s *Spec) { s.Hours = 3e6 }, "hours = 3e+06 does not fit"},
		{"window not a number", func(s *Spec) { s.Arrival.WindowHours = math.NaN() }, "window_hours = NaN does not fit"},
		{"storm hours overflow", func(s *Spec) { s.Market.StormHours = 3e6 }, "storm_hours = 3e+06 does not fit"},
		{"latency overflow", func(s *Spec) { s.Faults.ExtraLatencySeconds = 1e12 }, "extra_latency_seconds = 1e+12 does not fit"},
		{"horizon under a nanosecond", func(s *Spec) { s.Hours = 1e-20 }, "shorter than a nanosecond"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	orig := Spec{
		Name: "rt", VMs: 8, Hours: 48, Seed: 7, Policy: "1P-M",
		Mechanism: "spotcheck-full", Stateless: true,
		Arrival: Arrival{Shape: "diurnal", WindowHours: 24, PeakHour: 9, Surge: 3},
		Market:  Market{Regime: "storm", Storms: 2, StormHours: 1, StormMultiple: 8},
		Faults:  Faults{FailProb: 0.1, ExtraLatencySeconds: 30, Seed: 3},
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Errorf("round trip changed the spec:\n%+v\nvs\n%+v", got, orig)
	}
}

// Typos in a scenario file must fail loudly, not silently run defaults.
func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"x","vms":4,"hours":24,"surge":3}`))
	if err == nil {
		t.Fatal("unknown top-level field accepted")
	}
}

func TestParseSpecRejectsInvalid(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("spec without vms/hours accepted")
	}
	if _, err := ParseSpec([]byte(`{broken`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestLoadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"name":"file","vms":4,"hours":24,"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "file" || s.VMs != 4 {
		t.Errorf("loaded spec = %+v", s)
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLibraryNamesAndValidity(t *testing.T) {
	lib := Library()
	if len(lib) < 5 {
		t.Fatalf("library has %d scenarios, want >= 5", len(lib))
	}
	want := []string{"diurnal", "storm", "price-war", "slow-api", "trace-replay"}
	seen := map[string]bool{}
	for _, s := range lib {
		if err := s.Validate(); err != nil {
			t.Errorf("library scenario %s invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate library scenario %s", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("library missing scenario %q", name)
		}
		if _, err := Named(name); err != nil {
			t.Errorf("Named(%q): %v", name, err)
		}
	}
	if _, err := Named("nope"); err == nil {
		t.Error("Named accepted an unknown scenario")
	}
}
