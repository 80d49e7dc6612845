package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// verdicts of one (workload, end-to-end metric) row.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares a metric's samples in result b against result a by the
// metric's bound. Worsening of the median by more than the bound is a
// regression. Where either side's spread is wider than the bound the row
// is unresolved, unless every sample of one side beats every sample of the
// other. An improvement must exceed a's own spread.
func judge(def metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved
	}
	worse := (mb - ma) / ma // > 0 means b is worse, for a lower-is-better metric
	if def.Better == "higher" {
		worse = -worse
	}
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	allBetter, allWorse := hiB < loA, loB > hiA
	if def.Better == "higher" {
		allBetter, allWorse = allWorse, allBetter
	}
	switch wide := spread(a) > def.Bound || spread(b) > def.Bound; {
	case wide && allBetter:
		return improved
	case wide && allWorse && worse > def.Bound:
		return regressed
	case wide:
		return unresolved
	case worse > def.Bound:
		return regressed
	case -worse > spread(a) && -worse > 0.01:
		return improved
	default:
		return unchanged
	}
}

func readResult(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// compareMain prints one row per (workload, end-to-end metric) of two
// result files and exits non-zero if any row regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readResult(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readResult(args[1])
	if err != nil {
		return fail(err)
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadBenchSpec(root)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "a: %s commit %s seed %d   b: %s commit %s seed %d\n",
		filepath.Base(args[0]), a.Manifest.Commit, a.Manifest.Seed,
		filepath.Base(args[1]), b.Manifest.Commit, b.Manifest.Seed)
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "verdict")
	byName := map[string]workloadResult{}
	for _, res := range b.Results {
		byName[res.Workload] = res
	}
	code := 0
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, def := range spec.EndToEnd {
			sa, sb := ra.EndToEnd[def.Name], rb.EndToEnd[def.Name]
			if len(sa.Samples) == 0 || len(sb.Samples) == 0 {
				continue
			}
			verdict := judge(def, sa.Samples, sb.Samples)
			if verdict == regressed {
				code = 1
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				ra.Workload, def.Name, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median, 100*def.Bound, verdict)
		}
		for _, d := range simDiff(ra.Sim, rb.Sim, false) {
			fmt.Fprintf(stdout, "%-14s simulated statistic differs: %s\n", ra.Workload, d)
		}
	}
	return code
}
