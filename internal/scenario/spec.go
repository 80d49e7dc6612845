package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/simkit"
)

// Spec declares one experiment cell. The zero values of the optional
// fields reproduce the paper's defaults: flat arrivals at t=0, the
// four-market evaluation traces, no injected faults.
type Spec struct {
	// Name identifies the scenario in reports and error messages.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// VMs is the nested-VM fleet size. Ignored when the arrival shape
	// derives its own schedule length (it never does today — shapes emit
	// exactly VMs offsets).
	VMs int `json:"vms"`
	// Hours is the simulation horizon in hours.
	Hours float64 `json:"hours"`
	// Seed drives trace generation, the platform and the fault stream.
	Seed int64 `json:"seed"`
	// Policy names a Table 2 placement policy (1P-M, 2P-ML, 4P-ED,
	// 4P-COST, 4P-ST); empty means 4P-ED.
	Policy string `json:"policy,omitempty"`
	// Mechanism names the migration mechanism: xen-live, unoptimized-full,
	// spotcheck-full, unoptimized-lazy, spotcheck-lazy (the default).
	Mechanism string `json:"mechanism,omitempty"`
	// Stateless requests every VM without memory-state protection.
	Stateless bool `json:"stateless,omitempty"`

	Arrival Arrival `json:"arrival,omitempty"`
	Market  Market  `json:"market,omitempty"`
	Faults  Faults  `json:"faults,omitempty"`
}

// Arrival shapes when the fleet's VM requests reach the controller.
type Arrival struct {
	// Shape is one of:
	//   ""/"flat"  — the whole fleet at t=0 (the paper's pattern)
	//   "burst"    — evenly spaced over WindowHours
	//   "diurnal"  — a day-of-week traffic curve: arrival rate
	//                1 + (Surge-1)·½(1+cos(2π(h-PeakHour)/24)),
	//                integrated over WindowHours and inverted so VM i
	//                arrives at the i-th rate-weighted quantile. Heavy
	//                traffic clusters around PeakHour each day.
	Shape string `json:"shape,omitempty"`
	// WindowHours is the span arrivals spread over (default 24).
	WindowHours float64 `json:"window_hours,omitempty"`
	// PeakHour is the diurnal peak in [0, 24) (default 14, mid-afternoon).
	PeakHour float64 `json:"peak_hour,omitempty"`
	// Surge is the diurnal peak-to-trough arrival-rate ratio (default 6).
	Surge float64 `json:"surge,omitempty"`
}

// Market selects the spot price regime.
type Market struct {
	// Regime is one of:
	//   ""/"paper"  — the four-market evaluation traces (EvalTraces)
	//   "storm"     — paper traces with Storms coordinated price spikes
	//                 spliced into every market in the zone at once, each
	//                 holding StormMultiple × on-demand for StormHours —
	//                 the correlated-failure case the paper's independent
	//                 markets (Figs. 6c/6d) never produce
	//   "price-war" — a sustained sellers' war: base prices at ~4× the
	//                 paper's ratio with spikes every ~20 hours
	//   "replay"    — decode ReplayCSV (WriteCSV layout) and run on it
	Regime string `json:"regime,omitempty"`
	// Storms is the number of coordinated spikes (default 2).
	Storms int `json:"storms,omitempty"`
	// StormHours is each spike's duration (default 1).
	StormHours float64 `json:"storm_hours,omitempty"`
	// StormMultiple is the spike price over on-demand (default 10).
	StormMultiple float64 `json:"storm_multiple,omitempty"`
	// ReplayCSV is an inline CSV trace archive in the spotmarket.WriteCSV
	// layout (type,zone,offset_seconds,price_usd_per_hr).
	ReplayCSV string `json:"replay_csv,omitempty"`
}

// Faults configures the cloudchaos campaign riding on the run.
type Faults struct {
	// FailProb is the per-operation injected failure probability in [0,1].
	FailProb float64 `json:"fail_prob,omitempty"`
	// ExtraLatencySeconds stretches every asynchronous completion by a
	// uniform delay in [0, ExtraLatencySeconds] — the slow-API campaign.
	ExtraLatencySeconds float64 `json:"extra_latency_seconds,omitempty"`
	// Seed drives the fault stream (default: the spec seed + 1, so the
	// fault stream never aliases the market stream).
	Seed int64 `json:"seed,omitempty"`
}

// arrivalShapes and marketRegimes are the accepted enum values.
var (
	arrivalShapes = map[string]bool{"": true, "flat": true, "burst": true, "diurnal": true}
	marketRegimes = map[string]bool{"": true, "paper": true, "storm": true, "price-war": true, "replay": true}
)

// Validate reports the first specification error.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("scenario: spec needs a name")
	case s.VMs <= 0:
		return fmt.Errorf("scenario %s: vms must be positive, got %d", s.Name, s.VMs)
	case s.Hours <= 0:
		return fmt.Errorf("scenario %s: hours must be positive, got %v", s.Name, s.Hours)
	case !arrivalShapes[s.Arrival.Shape]:
		return fmt.Errorf("scenario %s: unknown arrival shape %q", s.Name, s.Arrival.Shape)
	case !marketRegimes[s.Market.Regime]:
		return fmt.Errorf("scenario %s: unknown market regime %q", s.Name, s.Market.Regime)
	case s.Market.Regime == "replay" && s.Market.ReplayCSV == "":
		return fmt.Errorf("scenario %s: replay regime needs replay_csv", s.Name)
	case s.Faults.FailProb < 0 || s.Faults.FailProb > 1:
		return fmt.Errorf("scenario %s: fail_prob must be in [0,1], got %v", s.Name, s.Faults.FailProb)
	case s.Faults.ExtraLatencySeconds < 0:
		return fmt.Errorf("scenario %s: extra_latency_seconds must be >= 0", s.Name)
	case s.Arrival.WindowHours < 0 || s.Arrival.WindowHours > s.Hours:
		return fmt.Errorf("scenario %s: window_hours must be in [0, hours]", s.Name)
	case s.Arrival.Surge < 0 || (s.Arrival.Surge > 0 && s.Arrival.Surge < 1):
		return fmt.Errorf("scenario %s: surge must be >= 1 (or 0 for the default)", s.Name)
	case s.Arrival.PeakHour < 0 || s.Arrival.PeakHour >= 24:
		return fmt.Errorf("scenario %s: peak_hour must be in [0, 24)", s.Name)
	case s.Market.Storms < 0 || s.Market.StormHours < 0 || s.Market.StormMultiple < 0:
		return fmt.Errorf("scenario %s: storm parameters must be >= 0", s.Name)
	}
	for _, d := range []struct {
		field string
		v     float64
		unit  simkit.Time
	}{
		{"hours", s.Hours, simkit.Hour},
		{"window_hours", s.Arrival.WindowHours, simkit.Hour},
		{"storm_hours", s.Market.StormHours, simkit.Hour},
		{"extra_latency_seconds", s.Faults.ExtraLatencySeconds, simkit.Second},
	} {
		// Written so NaN fails too: float64(math.MaxInt64) is 2^63, the
		// first product that no longer converts to a simkit.Time.
		if !(d.v*float64(d.unit) < float64(math.MaxInt64)) {
			return fmt.Errorf("scenario %s: %s = %v does not fit simulated time (at most %v)",
				s.Name, d.field, d.v, float64(math.MaxInt64)/float64(d.unit))
		}
	}
	if simkit.Hours(s.Hours) <= 0 {
		return fmt.Errorf("scenario %s: hours = %v is shorter than a nanosecond", s.Name, s.Hours)
	}
	if _, err := policyByName(s.Policy); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if _, err := mechanismByName(s.Mechanism); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// ParseSpec decodes one JSON spec, rejecting unknown fields so typos in a
// scenario file fail loudly instead of silently running the defaults.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads and decodes a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}
