package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// runOne is the fixture-test harness: run analyzer a over src placed in the
// module-relative package rel and return the surviving findings.
func runOne(t *testing.T, a *Analyzer, rel, src string) []Finding {
	t.Helper()
	findings, err := RunSource(a, rel, "fixture.go", src)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return findings
}

func wantFindings(t *testing.T, got []Finding, wantSubstrings ...string) {
	t.Helper()
	if len(got) != len(wantSubstrings) {
		t.Fatalf("got %d findings, want %d:\n%v", len(got), len(wantSubstrings), got)
	}
	for i, want := range wantSubstrings {
		if !strings.Contains(got[i].Message, want) {
			t.Errorf("finding[%d] = %q, want substring %q", i, got[i].Message, want)
		}
	}
}

func TestSuppressionDirective(t *testing.T) {
	src := `package core

func f() {
	//lint:ignore panicdiscipline fixture justification
	panic("guarded")
	panic("unguarded")
}
`
	got := runOne(t, PanicDiscipline, "internal/core", src)
	wantFindings(t, got, "panic outside invariant-guard packages")
	if got[0].Pos.Line != 6 {
		t.Errorf("surviving finding at line %d, want 6", got[0].Pos.Line)
	}
}

func TestSuppressionSameLine(t *testing.T) {
	src := `package core

func f() {
	panic("guarded") //lint:ignore panicdiscipline same-line justification
}
`
	wantFindings(t, runOne(t, PanicDiscipline, "internal/core", src))
}

// A directive for check A must not silence check B.
func TestSuppressionWrongCheck(t *testing.T) {
	src := `package core

func f() {
	//lint:ignore determinism wrong check named
	panic("boom")
}
`
	got := runOne(t, PanicDiscipline, "internal/core", src)
	wantFindings(t, got, "panic outside invariant-guard packages")
}

// A reason is mandatory: a bare directive is itself a finding and does not
// suppress anything.
func TestMalformedDirective(t *testing.T) {
	src := `package core

func f() {
	//lint:ignore panicdiscipline
	panic("boom")
}
`
	got := runOne(t, PanicDiscipline, "internal/core", src)
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed directive + unsuppressed panic):\n%v", len(got), got)
	}
	if got[0].Check != "lint" || !strings.Contains(got[0].Message, "malformed directive") {
		t.Errorf("finding[0] = %+v, want malformed-directive", got[0])
	}
	if got[1].Check != "panicdiscipline" {
		t.Errorf("finding[1] = %+v, want panicdiscipline", got[1])
	}
}

func TestTestFilesSkipped(t *testing.T) {
	src := `package core

import "time"

func f() { _ = time.Now(); panic("boom") }
`
	for _, a := range All() {
		findings, err := RunSource(a, "internal/core", "fixture_test.go", src)
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 0 {
			t.Errorf("%s flagged a _test.go file: %v", a.Name, findings)
		}
	}
}

func TestStringConstResolution(t *testing.T) {
	src := `package backup

const prefix = "spotcheck_"
const ingest = prefix + "backup_ingest_mbs"

func f(reg registry) {
	reg.Describe(ingest, "help")
	reg.Describe(prefix+"backup_fanin", "help")
}

type registry interface{ Describe(name, help string) }
`
	wantFindings(t, runOne(t, MetricHygiene, "internal/backup", src))
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 8", len(all), err)
	}
	two, err := ByName("determinism, goroutines")
	if err != nil || len(two) != 2 || two[0].Name != "determinism" || two[1].Name != "goroutines" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown check name did not error")
	}
}

// TestLoadRepo exercises the module walker against the real repository:
// package paths resolve from go.mod, test files are carried along, and
// subtree patterns narrow the selection.
func TestLoadRepo(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	byRel := map[string]*Package{}
	for _, p := range pkgs {
		byRel[p.Rel] = p
	}
	core := byRel["internal/core"]
	if core == nil {
		t.Fatal("internal/core not loaded")
	}
	if core.Path != "repro/internal/core" {
		t.Errorf("core.Path = %q", core.Path)
	}
	if len(core.Files) < 4 {
		t.Errorf("core has %d files", len(core.Files))
	}
	if byRel["cmd/spotlint"] != nil {
		t.Error("./internal/... pattern leaked cmd packages")
	}

	one, err := Load(root, []string{"./internal/obs"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Rel != "internal/obs" {
		t.Fatalf("single-dir pattern = %+v", one)
	}
}

// TestRepoIsClean is the ratchet: the full suite over the whole module must
// report zero findings. Any new violation fails go test, not just the CI
// spotlint step.
func TestRepoIsClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(All(), pkgs) {
		rel, err := filepath.Rel(root, f.Pos.Filename)
		if err != nil {
			rel = f.Pos.Filename
		}
		t.Errorf("%s:%d:%d: %s: %s", rel, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
	}
}
