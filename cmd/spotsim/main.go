// Command spotsim prints every table and figure of the paper's evaluation
// (§6). The six-month policy simulations: Figure 10 (average cost per
// VM-hour), Figure 11 (unavailability), Figure 12 (performance degradation),
// Table 3 (concurrent-revocation storms) and the headline cost/availability
// comparison. The spot-market characterization: Figure 1 (a price series
// spiking far above on-demand), Figures 6a-6d (availability vs bid, hourly
// jump CDFs, cross-zone and cross-type correlations) and the bid curves of
// §4.4's cost model. The microbenchmarks: Table 1 (control-plane operation
// latencies, 20 samples each), Figure 7 (backup-server multiplexing),
// Figure 8 (concurrent restoration) and Figure 9 (TPC-W response time during
// lazy restoration).
//
// Usage:
//
//	spotsim [-exp name] [-metrics] [-vms 40] [-months 6] [-seed 42] [-parallel N] [-fleet N] [-shards N] [-scenarios names] [-scenario file.json] [-replay file.csv] [-cpuprofile f] [-memprofile f]
//
// -exp names one section or a group of them:
//
//	all         fig10 fig11 fig12 table3 headline ablations catalog
//	market      fig1 fig6a fig6b fig6c fig6d bidcurve
//	mechanisms  table1 fig7 fig8 fig9
//
// scale, scenarios and traces belong to no group and run only by name.
// Table 1 in EXPERIMENTS.md is printed with -seed 1.
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
// The scale experiment (docs/SCALING.md) climbs synthetic fleets of
// 1k/10k/100k nested VMs over the full horizon and reports ns per simulated
// VM-hour and bytes per VM. -fleet N replaces the ladder with a single rung
// of N VMs; -shards N splits every rung across N independent event loops
// whose reports merge into one fleet view (docs/ARCHITECTURE.md, "Sharded
// execution"). Both flags are errors without -exp scale, as
// -scenarios/-scenario are without -exp scenarios and -replay is without
// -exp fig6a or fig6b: spotsim rejects a flag it would otherwise ignore.
//
// -replay computes Figure 6a or 6b from a price archive instead of the
// generator: this repo's CSV (what -exp traces writes) or an AWS
// describe-spot-price-history export, with or without its header row.
//
// -exp traces writes the four m3 markets the policy simulations run on, for
// -months and -seed, to stdout as CSV.
//
// -cpuprofile and -memprofile write pprof profiles covering the selected
// experiments (the heap profile is taken after a forced GC at exit), so
// perf work can profile any run without patching main.
//
// The scenarios experiment (docs/EXPERIMENTS.md, "Scenario library") runs
// the declarative scenario campaigns of internal/scenario — diurnal
// arrivals, coordinated revocation storms, price wars, a degraded control
// plane and CSV trace replay — and prints the availability/cost SLO report.
// Its cells carry their own fleet sizes and horizons, so the global
// -vms/-months knobs do not apply. -scenarios picks a comma-separated subset
// of the library; -scenario runs a single JSON spec file instead of the
// library.
//
// The -metrics flag additionally prints the headline simulation's
// end-of-run observability snapshot (every spotcheck_* and spotcheck_cloudsim_*
// series) as an aligned table.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/simkit"
	"repro/internal/spotmarket"
)

func main() {
	opts := runOpts{}
	flag.StringVar(&opts.exp, "exp", "all", "section or group: all, market, mechanisms, fig10, fig11, fig12, table3, headline, ablations, catalog, fig1, fig6a, fig6b, fig6c, fig6d, bidcurve, table1, fig7, fig8, fig9, scale, scenarios, traces")
	flag.BoolVar(&opts.metrics, "metrics", false, "print the headline run's metrics snapshot")
	flag.IntVar(&opts.vms, "vms", 40, "nested VM fleet size")
	flag.Float64Var(&opts.months, "months", 6, "simulation horizon in months")
	flag.Int64Var(&opts.seed, "seed", 42, "simulation seed")
	flag.IntVar(&opts.parallel, "parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = sequential)")
	flag.IntVar(&opts.fleet, "fleet", 0, "scale experiment fleet size (0 = the 1k/10k/100k ladder)")
	flag.IntVar(&opts.shards, "shards", 0, "scale experiment shard count (0 and 1 both mean one event loop)")
	flag.StringVar(&opts.scenarios, "scenarios", "", "comma-separated library subset for -exp scenarios (empty = whole library)")
	flag.StringVar(&opts.scenarioFile, "scenario", "", "JSON scenario spec file to run instead of the library")
	flag.StringVar(&opts.replay, "replay", "", "price archive for -exp fig6a/fig6b instead of generated traces: this repo's CSV or an AWS price-history CSV")
	flag.StringVar(&opts.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&opts.memprofile, "memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()

	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "spotsim:", err)
		os.Exit(1)
	}
}

// groups are the -exp values that print several sections, listed in the
// order they print.
var groups = map[string][]string{
	"all":        {"fig10", "fig11", "fig12", "table3", "headline", "ablations", "catalog"},
	"market":     {"fig1", "fig6a", "fig6b", "fig6c", "fig6d", "bidcurve"},
	"mechanisms": {"table1", "fig7", "fig8", "fig9"},
}

// ungrouped are the sections only their own name runs: the scale ladder
// tops out at 100k VMs, the scenario cells size themselves, and traces is
// CSV, not a figure.
var ungrouped = []string{"scale", "scenarios", "traces"}

// known reports whether exp is an accepted -exp value.
func known(exp string) bool {
	if _, ok := groups[exp]; ok || slices.Contains(ungrouped, exp) {
		return true
	}
	for _, sections := range groups {
		if slices.Contains(sections, exp) {
			return true
		}
	}
	return false
}

// table1Samples is how often Table 1 measures each operation: the paper's
// count.
const table1Samples = 20

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
	replay       string // price archive for fig6a/fig6b
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
	if !known(exp) {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	// A zero would otherwise run the defaults under a label that says zero.
	horizon, err := experiments.MonthsHorizon(months)
	if err != nil {
		return fmt.Errorf("-months %w", err)
	}
	if vms <= 0 {
		return fmt.Errorf("-vms must be positive (got %d)", vms)
	}
	// A flag only one experiment reads is an error anywhere else, not a
	// silently unsharded (or library-wide, or generated) run.
	if exp != "scale" && (fleet != 0 || o.shards != 0) {
		return fmt.Errorf("-fleet and -shards only apply to -exp scale (got -exp %s)", exp)
	}
	if exp != "scenarios" && (o.scenarios != "" || o.scenarioFile != "") {
		return fmt.Errorf("-scenarios and -scenario only apply to -exp scenarios (got -exp %s)", exp)
	}
	if exp != "fig6a" && exp != "fig6b" && o.replay != "" {
		return fmt.Errorf("-replay only applies to -exp fig6a and -exp fig6b (got -exp %s)", exp)
	}
	var replay spotmarket.Set
	if o.replay != "" {
		if replay, err = loadTraces(o.replay); err != nil {
			return err
		}
	}
	want := func(f string) bool { return exp == f || slices.Contains(groups[exp], f) }

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
	if err := runMarket(w, want, horizon, seed, replay); err != nil {
		return err
	}
	if err := runMechanisms(w, want, seed); err != nil {
		return err
	}
	if want("traces") {
		set, err := experiments.EvalTraces(horizon, seed)
		if err != nil {
			return err
		}
		return spotmarket.WriteCSV(w, set)
	}
	return nil
}

// runMarket prints the spot-market sections; Figures 6a and 6b read replay
// instead of generated traces when it is set.
func runMarket(w io.Writer, want func(string) bool, horizon simkit.Time, seed int64, replay spotmarket.Set) error {
	if want("fig1") {
		s, err := experiments.Fig1(seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.Fig1Chart(s))
		fmt.Fprintln(w)
	}
	if want("fig6a") {
		var rows []experiments.Fig6aRow
		if replay != nil {
			rows = experiments.Fig6aFromSet(replay)
		} else {
			var err error
			if rows, err = experiments.Fig6a(horizon, seed); err != nil {
				return err
			}
		}
		if len(rows) == 0 {
			return fmt.Errorf("no markets for figure 6a")
		}
		fmt.Fprint(w, experiments.Fig6aTable(rows).String())
		fmt.Fprintln(w)
	}
	if want("fig6b") {
		var inc, dec *analysis.CDF
		if replay != nil {
			inc, dec = experiments.Fig6bFromSet(replay)
		} else {
			var err error
			if inc, dec, err = experiments.Fig6b(horizon, seed); err != nil {
				return err
			}
		}
		fmt.Fprint(w, experiments.JumpCDFTable(inc, dec).String())
		fmt.Fprintf(w, "max increase %.0f%%, max decrease %.0f%%\n\n", inc.Max(), dec.Max())
	}
	if want("fig6c") {
		m, err := experiments.Fig6c(18, horizon, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderCorrelation("Fig 6c: price correlations across 18 zones", m))
		fmt.Fprintln(w)
	}
	if want("fig6d") {
		m, err := experiments.Fig6d(15, horizon, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderCorrelation("Fig 6d: price correlations across 15 instance types", m))
		fmt.Fprintln(w)
	}
	if want("bidcurve") {
		set, err := experiments.EvalTraces(horizon, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderBidCurves(set))
	}
	return nil
}

// runMechanisms prints the microbenchmark sections.
func runMechanisms(w io.Writer, want func(string) bool, seed int64) error {
	if want("table1") {
		t, err := experiments.Table1(table1Samples, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, t.String())
		fmt.Fprintln(w)
	}
	if want("fig7") {
		fmt.Fprint(w, experiments.Fig7Table(experiments.Fig7()).String())
		fmt.Fprintln(w)
	}
	if want("fig8") {
		rows, err := experiments.Fig8()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.Fig8Table(rows).String())
		fmt.Fprintln(w)
	}
	if want("fig9") {
		fmt.Fprint(w, experiments.Fig9Table(experiments.Fig9()).String())
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

// loadTraces reads a -replay archive: this repo's CSV schema or the AWS
// price-history schema. The first record decides: a "timestamp" header or
// an RFC 3339 first field is the AWS format, which may come without its
// header.
func loadTraces(path string) (spotmarket.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	first, err := csv.NewReader(f).Read()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if _, perr := time.Parse(time.RFC3339, first[0]); first[0] == "timestamp" || perr == nil {
		return spotmarket.ReadAWSPriceHistory(f, time.Time{})
	}
	return spotmarket.ReadCSV(f)
}
