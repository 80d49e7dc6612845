package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the test into dir, restoring the old cwd on cleanup (run
// resolves the module root from the working directory).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// writeModule lays out a throwaway module on disk.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunFlagsFixtureViolations(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/bad.go": `package core

import "time"

func now() int64 { return time.Now().Unix() }

func guard() { panic("boom") }
`,
	})
	chdir(t, dir)

	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, false, nil); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"internal/core/bad.go:5", "determinism", "time.Now",
		"internal/core/bad.go:7", "panicdiscipline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "2 finding(s)") {
		t.Errorf("stderr = %q, want finding count", stderr.String())
	}

	// A -checks subset only runs the named analyzer.
	stdout.Reset()
	stderr.Reset()
	if code := run(&stdout, &stderr, "panicdiscipline", false, false, nil); code != 1 {
		t.Fatalf("subset exit = %d, want 1", code)
	}
	if strings.Contains(stdout.String(), "determinism") {
		t.Errorf("-checks subset leaked other analyzers:\n%s", stdout.String())
	}

	// Unknown check names are a usage error, not findings.
	if code := run(&stdout, &stderr, "nosuch", false, false, nil); code != 2 {
		t.Fatalf("unknown check exit = %d, want 2", code)
	}
}

func TestRunCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/ok.go": `package core

func add(a, b int) int { return a + b }
`,
	})
	chdir(t, dir)
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, false, nil); code != 0 {
		t.Fatalf("exit = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output: %q", stdout.String())
	}
}

// A file that does not parse is a broken tree, not a finding: exit 2 and
// the stderr message names the offending path.
func TestRunSyntaxErrorExitsTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/broken.go": `package core

func unterminated( {
`,
	})
	chdir(t, dir)
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, false, nil); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "broken.go") {
		t.Errorf("stderr does not name the offending file: %q", stderr.String())
	}
}

// A malformed //go:build constraint is likewise a load error with the
// path, not a silent skip.
func TestRunBadBuildTagExitsTwo(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/tagged.go": `//go:build linux &&

package core
`,
	})
	chdir(t, dir)
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, false, nil); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "tagged.go") {
		t.Errorf("stderr does not name the offending file: %q", stderr.String())
	}
}

// -json emits the structured report: every finding with file/line/check,
// suppressed ones included and marked, counts split live/suppressed.
func TestRunJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/bad.go": `package core

func guard() { panic("boom") }

func guarded() {
	//lint:ignore panicdiscipline fixture justification
	panic("ok")
}
`,
	})
	chdir(t, dir)
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, true, nil); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	var rep struct {
		Findings []struct {
			File       string `json:"file"`
			Line       int    `json:"line"`
			Check      string `json:"check"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
		} `json:"findings"`
		Count      int `json:"count"`
		Suppressed int `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(stdout.String()), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout.String())
	}
	if rep.Count != 1 || rep.Suppressed != 1 || len(rep.Findings) != 2 {
		t.Fatalf("report counts = %d live, %d suppressed, %d findings; want 1/1/2\n%s",
			rep.Count, rep.Suppressed, len(rep.Findings), stdout.String())
	}
	for _, f := range rep.Findings {
		if f.File != "internal/core/bad.go" || f.Check != "panicdiscipline" {
			t.Errorf("finding = %+v", f)
		}
		if f.Suppressed != (f.Line == 7) {
			t.Errorf("suppression flag wrong for line %d: %+v", f.Line, f)
		}
	}

	// A fully suppressed tree is clean: exit 0, count 0.
	stdout.Reset()
	if code := run(&stdout, &stderr, "panicdiscipline", false, true, []string{"./internal/core"}); code != 1 {
		t.Fatalf("second run exit = %d, want 1 (live finding remains)", code)
	}
}

// An ignore directive that no longer suppresses anything is itself a
// finding: stale suppressions would silently mask future violations.
func TestRunUnusedSuppressionFlagged(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module fixture\n\ngo 1.22\n",
		"internal/core/stale.go": `package core

//lint:ignore panicdiscipline nothing here panics anymore
func calm() int { return 1 }
`,
	})
	chdir(t, dir)
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, false, nil); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "unused suppression") {
		t.Errorf("output missing unused-suppression finding:\n%s", stdout.String())
	}
}

// TestRunRepoIsClean duplicates the CI gate from inside go test: the real
// repository must lint clean through the CLI path too.
func TestRunRepoIsClean(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", false, false, []string{"./..."}); code != 0 {
		t.Fatalf("spotlint over repo = %d, want 0\n%s%s", code, stdout.String(), stderr.String())
	}
}

func TestListAndUsage(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(&stdout, &stderr, "", true, false, nil); code != 0 {
		t.Fatalf("-list exit = %d", code)
	}
	for _, want := range []string{
		"determinism", "metrichygiene", "panicdiscipline", "goroutines", "hotpath",
		"errdiscipline", "duracc", "lockdiscipline",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-list missing %q:\n%s", want, stdout.String())
		}
	}

	var b strings.Builder
	usage(&b)
	for _, want := range []string{"usage: spotlint", "//lint:ignore", "determinism", "goroutines", "errdiscipline", "-checks", "-json"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, b.String())
		}
	}
}
