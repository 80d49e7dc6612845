package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyDirective exempts an exported name that only tests reach. The
// full form is
//
//	//lint:testonly <reason>
//
// on the name's line or the line directly above it (the last line of its
// doc comment).
const testOnlyDirective = "//lint:testonly"

// refScan type-checks the non-test files of every package under the module
// root and returns one finding per exported name, declared under cmd/ or
// internal/, that no non-test file references. bench/ is a program, so its
// references count. Methods that satisfy an interface declared in the
// module, fmt.Stringer, error, io.Writer or errors' Unwrap protocol are
// skipped; any other exemption carries a //lint:testonly reason, and a
// directive on a name a program references, or on no checked name, is a
// finding too. Standard-library imports come from the gc export data that
// `go list -export` names, so only the module is type-checked from source.
func refScan(root string) ([]string, error) {
	pkgs, err := Load(root, nil)
	if err != nil {
		return nil, err
	}
	byPath := map[string][]*ast.File{}
	rels := map[string]string{}
	var fset *token.FileSet
	stdSet := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			if f.IsTest() {
				continue
			}
			fset = f.Fset
			byPath[p.Path] = append(byPath[p.Path], f.AST)
			rels[p.Path] = p.Rel
		}
	}
	for _, files := range byPath {
		for _, f := range files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); byPath[path] == nil && path != "unsafe" {
					stdSet[path] = true
				}
			}
		}
	}
	exports, err := exportData(root, stdSet)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if byPath[path] != nil {
			return check(path)
		}
		return gc.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if tp := checked[path]; tp != nil {
			return tp, nil
		}
		tp, err := conf.Check(path, fset, byPath[path], info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		checked[path] = tp
		return tp, nil
	}
	paths := make([]string, 0, len(byPath))
	for path := range byPath {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	// fmt.Stringer, error, io.Writer and the errors package's unwrap
	// protocol: the standard library calls these through an interface.
	var ifaces []*types.Interface
	for _, src := range []string{
		"interface{ String() string }", "interface{ Error() string }",
		"interface{ Write([]byte) (int, error) }", "interface{ Unwrap() error }",
	} {
		tv, err := types.Eval(fset, nil, token.NoPos, src)
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
	}
	for _, tp := range checked {
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}

	type directive struct {
		pos    token.Position
		reason string
		hit    bool
	}
	dirs := map[string]map[int]*directive{} // file -> line -> directive
	for _, files := range byPath {
		for _, f := range files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, testOnlyDirective)
					if !ok || rest != "" && rest[0] != ' ' && rest[0] != '\t' {
						continue
					}
					pos := fset.Position(c.Pos())
					if dirs[pos.Filename] == nil {
						dirs[pos.Filename] = map[int]*directive{}
					}
					dirs[pos.Filename][pos.Line] = &directive{pos: pos, reason: strings.TrimSpace(rest)}
				}
			}
		}
	}

	var out []string
	report := func(pos token.Position, format string, args ...any) {
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, fmt.Sprintf(format, args...)))
	}
	candidate := func(obj types.Object, name string) {
		pos := fset.Position(obj.Pos())
		var d *directive
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			if d = dirs[pos.Filename][line]; d != nil {
				break
			}
		}
		switch {
		case d == nil && !used[obj]:
			report(pos, "%s is exported, but no non-test file references it: delete it, or mark it %s <reason>", name, testOnlyDirective)
		case d == nil:
		case used[obj]:
			d.hit = true
			report(d.pos, "%s on %s, which a program references", testOnlyDirective, name)
		case d.reason == "":
			d.hit = true
			report(d.pos, "%s on %s gives no reason", testOnlyDirective, name)
		default:
			d.hit = true
		}
	}
	for _, path := range paths {
		rel := rels[path]
		if !strings.HasPrefix(rel, "cmd/") && !strings.HasPrefix(rel, "internal/") {
			continue
		}
		scope := checked[path].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				candidate(obj, obj.Pkg().Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfies(named, m.Name(), ifaces) {
					candidate(m, obj.Pkg().Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	for _, byLine := range dirs {
		for _, d := range byLine {
			if !d.hit {
				report(d.pos, "%s covers no exported name the scan checks", testOnlyDirective)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// satisfies reports whether method name of t (or *t) is part of an
// interface in ifaces that t or *t implements.
func satisfies(t *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// origin maps a method or field of an instantiated generic type back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportData maps each of the given standard-library import paths to its
// gc export data file, as one `go list -export` run in root reports it.
func exportData(root string, paths map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range paths {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// TestNoTestOnlyExports is the reference scan over the real tree: nothing
// exported under cmd/ or internal/ is reached only by tests, unless its
// //lint:testonly directive says why.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := refScan(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestRefScanFixture runs the scan over a small module: what a program
// references passes, what only a test references fails, and each misuse of
// the directive is a finding.
func TestRefScanFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "fmt"

func Used() string { return fmt.Sprint(T{}) }

func OnlyTested() {}

//lint:testonly the tests drive it
func Seam() {}

//lint:testonly a program calls it
func Stale() {}

//lint:testonly
func Bare() {}

func ForTool() {}

type T struct{}

func (T) String() string { return "t" }

func (T) Do() {}

func (T) Helper() {}

type Doer interface{ Do() }

//lint:testonly on nothing exported
var x = 1
`,
		"internal/a/a_test.go": `package a

import "testing"

func TestA(t *testing.T) { OnlyTested(); Seam(); Bare(); T{}.Helper(); _ = x }
`,
		"cmd/app/main.go": `package main

import "fix/internal/a"

var _ a.Doer = a.T{}

func main() { a.Used(); a.Stale() }
`,
		"tools/gen/main.go": `package main

import "fix/internal/a"

func main() { a.ForTool() }
`,
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := refScan(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:12: //lint:testonly on a.Stale, which a program references",
		"internal/a/a.go:15: //lint:testonly on a.Bare gives no reason",
		"internal/a/a.go:30: //lint:testonly covers no exported name",
		"internal/a/a.go:7: a.OnlyTested is exported, but no non-test file references it",
		"internal/a/a.go:26: a.T.Helper is exported, but no non-test file references it",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || strings.HasPrefix(g, w)
		}
		if !found {
			t.Errorf("no finding %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}
}
