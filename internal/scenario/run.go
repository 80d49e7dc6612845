package scenario

import (
	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/simkit"
)

// Result is one scenario cell's SLO outcome.
type Result struct {
	Spec Spec
	Run  experiments.PolicyRunResult

	// P99Downtime is the 99th-percentile per-VM total downtime
	// (nearest-rank over the run's sorted downtime ledger).
	P99Downtime simkit.Time
	// OnDemandPerHour is the price of the equivalent always-on nested VM,
	// the denominator of the cost SLO.
	OnDemandPerHour cloud.USD
	// InjectedFaults is the campaign's spotcheck_chaos_injected_total
	// reading — how many faults the chaos layer actually delivered, not
	// how many the probability promised.
	InjectedFaults int
}

// AvailabilityPct is the availability SLO in percent.
func (r Result) AvailabilityPct() float64 { return 100 * r.Run.Report.Availability }

// DegradedPct is the degraded-time fraction in percent.
func (r Result) DegradedPct() float64 { return 100 * r.Run.Report.DegradedFraction }

// CostPerVMHour is the cost SLO numerator.
func (r Result) CostPerVMHour() cloud.USD { return r.Run.Report.CostPerVMHour }

// Savings is the on-demand price over the achieved cost (the paper's
// headline multiplier).
func (r Result) Savings() float64 {
	if r.Run.Report.CostPerVMHour <= 0 {
		return 0
	}
	return float64(r.OnDemandPerHour) / float64(r.Run.Report.CostPerVMHour)
}

// Options configures a campaign run.
type Options struct {
	// Workers bounds the sweep's parallelism; <= 0 means GOMAXPROCS.
	// Results and the rendered report are identical at every setting.
	Workers int
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []simkit.Time, p float64) simkit.Time {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// RunCampaign compiles every spec and fans the cells out across the
// experiments sweep engine. Results come back in spec order regardless of
// the worker count, and each run is seed-deterministic, so the campaign's
// rendered report is byte-identical at any parallelism.
func RunCampaign(specs []Spec, opts Options) ([]Result, error) {
	runSpecs := make([]experiments.RunSpec, len(specs))
	for i, s := range specs {
		rs, err := Compile(s)
		if err != nil {
			return nil, err
		}
		runSpecs[i] = rs
	}
	runs, err := experiments.NewSession(opts.Workers).Sweep(runSpecs)
	if err != nil {
		return nil, err
	}
	// Every scenario requests m3.medium nested VMs, the paper's evaluation
	// type: its on-demand price is the savings anchor.
	od := cloud.OnDemandPrice(cloud.M3Medium)
	out := make([]Result, len(runs))
	for i, run := range runs {
		out[i] = Result{
			Spec:            specs[i],
			Run:             run,
			P99Downtime:     percentile(run.VMDowntimes, 0.99),
			OnDemandPerHour: od,
			InjectedFaults:  int(run.Metric("spotcheck_chaos_injected_total")),
		}
	}
	return out, nil
}
