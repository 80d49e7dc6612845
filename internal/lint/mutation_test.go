package lint

import (
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// treeMutation is one edit of a real source file that an analyzer must
// catch: old occurs exactly once in file, the package is clean before the
// edit, and after it the analyzer, and no other, reports want (once per
// finding, n findings). go vet catches no row. No test catches one except
// the two read swallows, which internal/spotmarket's reader tests catch,
// and the raw degraded sum, whose fold still overwrites the total, so
// TestRunDigestTable's sharded row catches it too.
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
		name: "Trace.Timeline without the lock", analyzer: LockDiscipline,
		file: "internal/obs/trace.go",
		old:  "func (t *Trace) Timeline(subject string) []TraceEvent {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
		new:  "func (t *Trace) Timeline(subject string) []TraceEvent {\n",
		want: "field t.kept is guarded by mu", n: 1,
	},
	{
		name: "Trace.Dump without the lock", analyzer: LockDiscipline,
		file: "internal/obs/trace.go",
		old:  "func (t *Trace) Dump() TraceDump {\n\tt.mu.Lock()\n\tdefer t.mu.Unlock()\n",
		new:  "func (t *Trace) Dump() TraceDump {\n",
		want: "is guarded by mu", n: 8,
	},
	{
		name: "Registry.Remove without the read lock", analyzer: LockDiscipline,
		file: "internal/obs/registry.go",
		old:  "\tr.mu.RLock()\n\tf := r.families[name]\n\tr.mu.RUnlock()\n\tif f == nil {\n\t\treturn\n\t}\n\tsortLabels(labels)\n",
		new:  "\tf := r.families[name]\n\tif f == nil {\n\t\treturn\n\t}\n\tsortLabels(labels)\n",
		want: "field r.families is guarded by mu", n: 1,
	},
	{
		name: "conformance shuffle on the global source", analyzer: Determinism,
		file: "internal/cloudtest/conformance.go",
		old:  "rand.New(rand.NewSource(1)).Shuffle(",
		new:  "rand.Shuffle(",
		want: "rand.Shuffle uses the global math/rand source", n: 1,
	},
	{
		name: "warning counter looked up per record", analyzer: MetricHygiene,
		file: "internal/cloudsim/platform.go",
		old:  "p.met.warnings.Inc()",
		new:  "p.met.reg.Counter(metricWarnings).Add(1)",
		want: "looks the instrument up on every record", n: 1,
	},
	{
		name: "catalog generation error panics", analyzer: PanicDiscipline,
		file: "internal/experiments/catalog.go",
		old:  "cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())\n\tif err != nil {\n\t\treturn nil, err\n",
		new:  "cat, err := cloud.GenerateCatalog(cloud.DefaultCatalogSpec())\n\tif err != nil {\n\t\tpanic(err)\n",
		want: "panic outside invariant-guard packages", n: 1,
	},
	{
		name: "daemon clock loop without a stop channel", analyzer: Goroutines,
		file: "cmd/spotcheckd/main.go",
		old:  "\t\tstop := make(chan struct{})\n\t\tdefer close(stop)\n\t\tgo d.clockLoop(ticker.C, time.Now(), *speedup, stop)\n",
		new:  "\t\tgo d.clockLoop(ticker.C, time.Now(), *speedup, nil)\n",
		want: "has no visible cancellation path", n: 1,
	},
	{
		name: "price crossing scheduled through a closure", analyzer: HotPath,
		file: "internal/cloudsim/platform.go",
		old:  `p.sched.AtArg(at, "price-change", p.crossFn, uint64(m.index))`,
		new:  `p.sched.AtArg(at, "price-change", func(a uint64) { p.crossFn(a) }, uint64(m.index))`,
		want: "function literal handed to p.sched.AtArg", n: 1,
	},
	{
		name: "shard fold sums degraded time raw", analyzer: DurAcc,
		file: "internal/core/shard.go",
		old:  "degraded.add(r.TotalDegraded)",
		new:  "agg.TotalDegraded += r.TotalDegraded",
		want: "duration accumulation agg.TotalDegraded += … in a loop", n: 1,
	},
}

// TestAnalyzersCatchTreeMutations proves every analyzer on the code it
// guards, not only on fixtures. Each row's file is checked with the rest of
// its package loaded, as spotlint sees it, so package-wide facts (duracc's
// duration fields, metrichygiene's constants) hold, and with the whole
// suite, so a row shows that only its analyzer catches the edit.
func TestAnalyzersCatchTreeMutations(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range treeMutations {
		t.Run(m.name, func(t *testing.T) {
			pkgs, err := Load(root, []string{"./" + filepath.Dir(m.file)})
			if err != nil {
				t.Fatal(err)
			}
			var file *File
			for _, f := range pkgs[0].Files {
				if f.Name == filepath.Join(root, filepath.FromSlash(m.file)) {
					file = f
				}
			}
			if file == nil {
				t.Fatalf("%s not loaded", m.file)
			}
			data, err := os.ReadFile(file.Name)
			if err != nil {
				t.Fatal(err)
			}
			src := string(data)
			if c := strings.Count(src, m.old); c != 1 {
				t.Fatalf("%s: mutated text occurs %d times, want 1", m.file, c)
			}
			wantFindings(t, Run(All(), pkgs))
			file.AST, err = parser.ParseFile(file.Fset, file.Name, strings.Replace(src, m.old, m.new, 1), parser.ParseComments)
			if err != nil {
				t.Fatalf("mutated %s does not parse: %v", m.file, err)
			}
			pkgs[0].collectConsts()
			want := make([]string, m.n)
			for i := range want {
				want[i] = m.want
			}
			after := Run(All(), pkgs)
			wantFindings(t, after, want...)
			for _, f := range after {
				if f.Check != m.analyzer.Name {
					t.Errorf("%s caught it too: %s", f.Check, f)
				}
			}
		})
	}
}
