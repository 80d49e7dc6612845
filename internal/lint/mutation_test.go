package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// treeMutation is one edit of a real source file that an analyzer must
// catch: old occurs exactly once in file, the file is clean before the
// edit, and after it the analyzer reports want (once per finding, n
// findings). go vet catches no row, and no test catches one except the
// two read swallows, which internal/spotmarket's reader tests catch.
type treeMutation struct {
	name     string
	analyzer *Analyzer
	file     string // module-relative
	old, new string
	want     string
	n        int
}

var treeMutations = []treeMutation{
	{
		name: "Errorf wraps the capacity sentinel with %v", analyzer: ErrDiscipline,
		file: "internal/cloudsim/platform.go",
		old:  `fmt.Errorf("%w: type %s at its capacity of %d"`,
		new:  `fmt.Errorf("%v: type %s at its capacity of %d"`,
		want: "without %w", n: 1,
	},
	{
		name: "catalog generation error returns nil", analyzer: ErrDiscipline,
		file: "internal/experiments/catalog.go",
		old:  "cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())\n\tif err != nil {\n\t\treturn nil, err\n",
		new:  "cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())\n\tif err != nil {\n\t\treturn nil, nil\n",
		want: "return drops non-nil error err", n: 1,
	},
	{
		name: "nested VM creation error returns no id", analyzer: ErrDiscipline,
		file: "internal/core/provision.go",
		old:  "vm, err := nestedvm.NewVM(id, opts.Customer, typ, mem, c.sched.Now())\n\tif err != nil {\n\t\treturn \"\", err\n",
		new:  "vm, err := nestedvm.NewVM(id, opts.Customer, typ, mem, c.sched.Now())\n\tif err != nil {\n\t\treturn \"\", nil\n",
		want: "return drops non-nil error err", n: 1,
	},
	{
		name: "scenario compile error discarded", analyzer: ErrDiscipline,
		file: "internal/scenario/run.go",
		old:  "rs, err := Compile(s)\n\t\tif err != nil {\n\t\t\treturn nil, err\n\t\t}\n",
		new:  "rs, err := Compile(s)\n\t\t_ = err\n",
		want: "discarded with _ =", n: 1,
	},
	{
		name: "CSV read error skipped", analyzer: ErrDiscipline,
		file: "internal/spotmarket/csv.go",
		old:  `return nil, fmt.Errorf("spotmarket: CSV line %d: %w", line, err)`,
		new:  "continue",
		want: "bare continue swallows non-nil error err", n: 1,
	},
	{
		name: "AWS history read error skipped", analyzer: ErrDiscipline,
		file: "internal/spotmarket/awsimport.go",
		old:  `return nil, fmt.Errorf("spotmarket: aws history line %d: %w", line, err)`,
		new:  "continue",
		want: "bare continue swallows non-nil error err", n: 1,
	},
	{
		name: "Trace.Keep without the lock", analyzer: LockDiscipline,
		file: "internal/obs/trace.go",
		old:  "func (t *Trace) Keep(subject string) {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
		new:  "func (t *Trace) Keep(subject string) {\n",
		want: "field t.kept is guarded by mu", n: 2,
	},
	{
		name: "Trace.Forget without the lock", analyzer: LockDiscipline,
		file: "internal/obs/trace.go",
		old:  "func (t *Trace) Forget(subject string) {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
		new:  "func (t *Trace) Forget(subject string) {\n",
		want: "field t.kept is guarded by mu", n: 1,
	},
	{
		name: "Trace.Len without the lock", analyzer: LockDiscipline,
		file: "internal/obs/trace.go",
		old:  "func (t *Trace) Len() int {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
		new:  "func (t *Trace) Len() int {\n",
		want: "field t.n is guarded by mu", n: 1,
	},
	{
		name: "Trace.Cap without the lock", analyzer: LockDiscipline,
		file: "internal/obs/trace.go",
		old:  "func (t *Trace) Cap() int {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
		new:  "func (t *Trace) Cap() int {\n",
		want: "field t.buf is guarded by mu", n: 1,
	},
	{
		name: "Registry.Remove without the read lock", analyzer: LockDiscipline,
		file: "internal/obs/registry.go",
		old:  "\tr.mu.RLock()\n\tf := r.families[name]\n\tr.mu.RUnlock()\n\tif f == nil {\n\t\treturn\n\t}\n\tsortLabels(labels)\n",
		new:  "\tf := r.families[name]\n\tif f == nil {\n\t\treturn\n\t}\n\tsortLabels(labels)\n",
		want: "field r.families is guarded by mu", n: 1,
	},
}

// TestAnalyzersCatchTreeMutations proves errdiscipline and lockdiscipline
// on the code they guard, not only on fixtures.
func TestAnalyzersCatchTreeMutations(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range treeMutations {
		t.Run(m.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.file)))
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			if c := strings.Count(src, m.old); c != 1 {
				t.Fatalf("%s: mutated text occurs %d times, want 1", m.file, c)
			}
			rel := filepath.ToSlash(filepath.Dir(m.file))
			before, err := RunSource(m.analyzer, rel, m.file, src)
			if err != nil {
				t.Fatal(err)
			}
			wantFindings(t, before)
			after, err := RunSource(m.analyzer, rel, m.file, strings.Replace(src, m.old, m.new, 1))
			if err != nil {
				t.Fatalf("mutated %s does not parse: %v", m.file, err)
			}
			want := make([]string, m.n)
			for i := range want {
				want[i] = m.want
			}
			wantFindings(t, after, want...)
		})
	}
}
