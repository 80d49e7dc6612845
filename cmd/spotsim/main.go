// Command spotsim runs the paper's six-month policy simulations: Figure 10
// (average cost per VM-hour), Figure 11 (unavailability), Figure 12
// (performance degradation), Table 3 (concurrent-revocation storms) and the
// headline cost/availability comparison.
//
// Usage:
//
//	spotsim [-exp all|fig10|fig11|fig12|table3|headline|ablations|catalog|scale|scenarios] [-metrics] [-vms 40] [-months 6] [-seed 42] [-parallel N] [-fleet N] [-shards N] [-scenarios names] [-scenario file.json] [-cpuprofile f] [-memprofile f]
//
// The simulations in a batch are fully independent, so spotsim fans them
// out across the experiments sweep engine; -parallel bounds the worker
// count (0, the default, means GOMAXPROCS; 1 forces sequential execution).
// The output is identical for a fixed seed regardless of the worker count.
//
// The catalog experiment compares the paper's fixed-type acquisition
// policies against catalog-wide cheapest-compatible acquisition over a
// generated 54-market catalog (docs/ARCHITECTURE.md, "Generated catalog"),
// reporting cost, revocations and availability per policy.
//
// The scale experiment (docs/SCALING.md) is the one member excluded from
// -exp all: it climbs synthetic fleets of 1k/10k/100k nested VMs over the
// full horizon and reports ns per simulated VM-hour and bytes per VM.
// -fleet N replaces the ladder with a single rung of N VMs; -shards N
// splits every rung across N independent event loops whose reports merge
// into one fleet view (docs/ARCHITECTURE.md, "Sharded execution"). Both
// flags are errors without -exp scale, as -scenarios/-scenario are without
// -exp scenarios: spotsim rejects a flag it would otherwise ignore.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the heap profile is taken after a forced GC at exit), so
// perf work can profile any run without patching main.
//
// The scenarios experiment (docs/EXPERIMENTS.md, "Scenario library") runs
// the declarative scenario campaigns of internal/scenario — diurnal
// arrivals, coordinated revocation storms, price wars, a degraded control
// plane and CSV trace replay — and prints the availability/cost SLO report.
// Like scale it runs only when asked for by name: its cells carry their own
// fleet sizes and horizons, so the global -vms/-months knobs do not apply.
// -scenarios picks a comma-separated subset of the library; -scenario runs
// a single JSON spec file instead of the library.
//
// The -metrics flag additionally prints the headline simulation's
// end-of-run observability snapshot (every spotcheck_* and spotcheck_cloudsim_*
// series) as an aligned table.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/simkit"
)

func main() {
	opts := runOpts{}
	flag.StringVar(&opts.exp, "exp", "all", "experiment: all, fig10, fig11, fig12, table3, headline, ablations, catalog, scale, scenarios")
	flag.BoolVar(&opts.metrics, "metrics", false, "print the headline run's metrics snapshot")
	flag.IntVar(&opts.vms, "vms", 40, "nested VM fleet size")
	flag.Float64Var(&opts.months, "months", 6, "simulation horizon in months")
	flag.Int64Var(&opts.seed, "seed", 42, "simulation seed")
	flag.IntVar(&opts.parallel, "parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential)")
	flag.IntVar(&opts.fleet, "fleet", 0, "scale experiment fleet size (0 = the 1k/10k/100k ladder)")
	flag.IntVar(&opts.shards, "shards", 0, "scale experiment shard count (0 and 1 both mean one event loop)")
	flag.StringVar(&opts.scenarios, "scenarios", "", "comma-separated library subset for -exp scenarios (empty = whole library)")
	flag.StringVar(&opts.scenarioFile, "scenario", "", "JSON scenario spec file to run instead of the library")
	flag.StringVar(&opts.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&opts.memprofile, "memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "spotsim:", err)
		os.Exit(1)
	}
}

// knownExperiments are the accepted -exp values.
var knownExperiments = map[string]bool{
	"all":       true,
	"fig10":     true,
	"fig11":     true,
	"fig12":     true,
	"table3":    true,
	"headline":  true,
	"ablations": true,
	"catalog":   true,
	"scale":     true,
	"scenarios": true,
}

// runOpts carries every flag; the zero value of the optional fields matches
// the flag defaults tests rely on.
type runOpts struct {
	exp          string
	vms          int
	months       float64
	seed         int64
	metrics      bool
	parallel     int
	fleet        int
	shards       int    // scale experiment shard count
	scenarios    string // comma-separated library subset
	scenarioFile string // JSON spec path
	cpuprofile   string // pprof CPU profile path
	memprofile   string // pprof heap profile path
}

// profile starts the requested pprof captures and returns the stop hook:
// the CPU profile covers everything between the two calls, and the heap
// profile samples live objects after a forced GC at stop time.
func profile(o runOpts) (stop func() error, err error) {
	var cpu *os.File
	if o.cpuprofile != "" {
		cpu, err = os.Create(o.cpuprofile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if o.memprofile != "" {
			f, err := os.Create(o.memprofile)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

func run(w io.Writer, o runOpts) error {
	stopProfile, err := profile(o)
	if err != nil {
		return err
	}
	if err := runExperiments(w, o); err != nil {
		stopProfile()
		return err
	}
	return stopProfile()
}

func runExperiments(w io.Writer, o runOpts) error {
	exp, vms, months, seed, metrics, parallel, fleet :=
		o.exp, o.vms, o.months, o.seed, o.metrics, o.parallel, o.fleet
	// Validate up front: an unknown -exp must error even when -metrics (or
	// any other output) would otherwise produce something.
	if !knownExperiments[exp] {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	// A flag only one experiment reads is an error anywhere else, not a
	// silently unsharded (or library-wide) run.
	if exp != "scale" && (fleet != 0 || o.shards != 0) {
		return fmt.Errorf("-fleet and -shards only apply to -exp scale (got -exp %s)", exp)
	}
	if exp != "scenarios" && (o.scenarios != "" || o.scenarioFile != "") {
		return fmt.Errorf("-scenarios and -scenario only apply to -exp scenarios (got -exp %s)", exp)
	}
	horizon := simkit.Time(float64(30*simkit.Day) * months)
	// The scale ladder tops out at 100k VMs and the scenario cells size
	// themselves, so neither rides along with "all"; they run only when
	// asked for by name.
	want := func(f string) bool {
		return exp == f || (exp == "all" && f != "scale" && f != "scenarios")
	}

	// One session for the invocation: a simulation two sections share (Table
	// 3's pools, the headline and several ablation control arms are matrix
	// cells) runs once.
	session := experiments.NewSession(parallel)
	needMatrix := want("fig10") || want("fig11") || want("fig12")
	if needMatrix {
		fmt.Fprintf(os.Stderr, "spotsim: running %d simulations (%d VMs, %.1f months)...\n",
			5*4, vms, months)
		matrix, err := session.PolicyMatrix(vms, horizon, seed)
		if err != nil {
			return err
		}
		if want("fig10") {
			fmt.Fprint(w, experiments.Fig10Bars(matrix).String())
			fmt.Fprintln(w)
		}
		if want("fig11") {
			fmt.Fprint(w, experiments.Fig11Bars(matrix).String())
			fmt.Fprintln(w)
		}
		if want("fig12") {
			fmt.Fprint(w, experiments.Fig12Bars(matrix).String())
			fmt.Fprintln(w)
		}
	}
	if want("table3") {
		rows, err := session.Table3(vms, horizon, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.Table3Render(rows, vms).String())
		fmt.Fprintln(w)
	}
	if want("headline") || metrics {
		h, err := session.RunHeadline(vms, horizon, seed)
		if err != nil {
			return err
		}
		if want("headline") {
			fmt.Fprintf(w, "Headline (1P-M, SpotCheck lazy, %d VMs, %.1f months):\n", vms, months)
			fmt.Fprintf(w, "  cost per VM-hour:     $%.4f (on-demand $%.4f)\n", h.CostPerVMHour, h.OnDemandPerHour)
			fmt.Fprintf(w, "  savings:              %.1fx\n", h.Savings)
			fmt.Fprintf(w, "  availability:         %.4f%% (paper: 99.9989%%)\n", 100*h.Availability)
			fmt.Fprintf(w, "  migrations:           %d\n", h.Migrations)
			fmt.Fprintf(w, "  VMs lost:             %d (must be 0)\n", h.VMsLost)
			fmt.Fprintln(w)
		}
		if metrics {
			fmt.Fprintf(w, "Metrics snapshot (1P-M, SpotCheck lazy, %d VMs, %.1f months):\n", vms, months)
			fmt.Fprint(w, h.Snapshot.Summary())
			fmt.Fprintln(w)
		}
	}
	if want("ablations") {
		fmt.Fprintln(os.Stderr, "spotsim: running ablation studies...")
		out, err := session.RenderAblations(vms, horizon, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	if want("catalog") {
		fmt.Fprintln(os.Stderr, "spotsim: running catalog comparison (4 policies, 54 generated markets)...")
		rows, err := session.CatalogComparison(vms, horizon, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.CatalogComparisonTable(rows, vms).String())
		fmt.Fprintln(w)
	}
	if want("scale") {
		sizes := experiments.DefaultScaleLadder()
		if fleet > 0 {
			sizes = []int{fleet}
		}
		fmt.Fprintf(os.Stderr, "spotsim: running scale ladder %v (%.1f months)...\n", sizes, months)
		rows, err := experiments.ScaleLadder(sizes, horizon, seed,
			func() int64 { return time.Now().UnixNano() }, parallel, o.shards)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.ScaleTable(rows).String())
		fmt.Fprintln(w)
	}
	if want("scenarios") {
		specs, err := campaignSpecs(o)
		if err != nil {
			return err
		}
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		fmt.Fprintf(os.Stderr, "spotsim: running scenario campaigns %v...\n", names)
		results, err := scenario.RunCampaign(specs, scenario.Options{Workers: parallel})
		if err != nil {
			return err
		}
		fmt.Fprint(w, scenario.CampaignTable(results).String())
		fmt.Fprintln(w)
	}
	return nil
}

// campaignSpecs resolves which scenarios to run: a single spec file
// (-scenario), a named library subset (-scenarios), or the whole library.
func campaignSpecs(o runOpts) ([]scenario.Spec, error) {
	if o.scenarioFile != "" {
		if o.scenarios != "" {
			return nil, fmt.Errorf("-scenario and -scenarios are mutually exclusive")
		}
		s, err := scenario.LoadSpec(o.scenarioFile)
		if err != nil {
			return nil, err
		}
		return []scenario.Spec{s}, nil
	}
	if o.scenarios == "" {
		return scenario.Library(), nil
	}
	var specs []scenario.Spec
	for _, name := range strings.Split(o.scenarios, ",") {
		s, err := scenario.Named(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}
