// Command spotlint runs the project-invariant static-analysis suite
// (internal/lint) over package patterns and exits nonzero on any finding.
// It enforces what the compiler cannot: simulation determinism, metric-name
// hygiene, panic discipline, goroutine cancellation pairing, closure-free
// and loop-free event code, error discipline, duration-overflow safety and
// lock discipline. See docs/LINTING.md for the analyzer contracts and the
// suppression syntax.
//
// Usage:
//
//	spotlint [-checks determinism,metrichygiene,...] [-json] [-list] [patterns]
//
// Patterns default to ./... and follow the go tool's shape (./internal/...,
// ./cmd/spotsim). -json emits a machine-readable report (suppressed
// findings included, marked) instead of the line-per-finding human format.
// Exit status: 0 clean, 1 findings, 2 usage or load error (the stderr
// message names the offending file).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON (suppressed findings included)")
	flag.Usage = func() { usage(os.Stderr) }
	flag.Parse()
	os.Exit(run(os.Stdout, os.Stderr, *checks, *list, *jsonOut, flag.Args()))
}

func usage(w io.Writer) {
	fmt.Fprintf(w, "usage: spotlint [-checks list] [-json] [-list] [patterns]\n\n")
	fmt.Fprintf(w, "Runs the spotcheck invariant suite over package patterns (default ./...)\n")
	fmt.Fprintf(w, "and exits 1 on any finding. Suppress a justified exception with\n")
	fmt.Fprintf(w, "  %s <check> <reason>\non or directly above the flagged line.\n\nAnalyzers:\n", lint.IgnoreDirective)
	for _, a := range lint.All() {
		fmt.Fprintf(w, "  %-15s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nFlags:\n")
	fmt.Fprintf(w, "  -checks string   comma-separated analyzer subset (default: all)\n")
	fmt.Fprintf(w, "  -json            emit findings as JSON (suppressed findings included)\n")
	fmt.Fprintf(w, "  -list            list the analyzers and exit\n")
}

// jsonFinding is the wire shape of one finding in -json mode.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonReport is the top-level -json document. Count is the number of
// live (unsuppressed) findings — the number that gates the exit code.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Count      int           `json:"count"`
	Suppressed int           `json:"suppressed"`
}

func run(stdout, stderr io.Writer, checks string, list, jsonOut bool, patterns []string) int {
	if list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.ByName(checks)
	if err != nil {
		fmt.Fprintln(stderr, "spotlint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "spotlint:", err)
		return 2
	}
	pkgs, err := lint.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "spotlint:", err)
		return 2
	}
	relName := func(name string) string {
		if rel, err := filepath.Rel(root, name); err == nil {
			return rel
		}
		return name
	}

	if jsonOut {
		all := lint.RunDetailed(analyzers, pkgs)
		rep := jsonReport{Findings: []jsonFinding{}}
		for _, f := range all {
			rep.Findings = append(rep.Findings, jsonFinding{
				File:       filepath.ToSlash(relName(f.Pos.Filename)),
				Line:       f.Pos.Line,
				Col:        f.Pos.Column,
				Check:      f.Check,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
			if f.Suppressed {
				rep.Suppressed++
			} else {
				rep.Count++
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "spotlint:", err)
			return 2
		}
		if rep.Count > 0 {
			return 1
		}
		return 0
	}

	findings := lint.Run(analyzers, pkgs)
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relName(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "spotlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
