package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
)

// Finding is one analyzer hit: which check fired, where, and why.
// Suppressed is set (by RunDetailed) on findings covered by a
// //lint:ignore directive; Run drops them.
type Finding struct {
	Check      string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Message)
}

// Package is one parsed directory of Go files. External test packages
// (package foo_test) share the Package of their directory; analyzers skip
// test files, so the distinction never matters.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Rel   string // module-relative dir, e.g. "internal/core" ("" = root)
	Dir   string // filesystem dir
	Files []*File

	consts map[string]string // package-level string constants (non-test files)
}

// File is one parsed source file plus its package context.
type File struct {
	Fset *token.FileSet
	AST  *ast.File
	Name string // path as reported in findings
	Pkg  *Package
}

// IsTest reports whether the file is a _test.go file. Analyzers skip test
// files: tests legitimately use wall clocks, panics and ad-hoc goroutines.
func (f *File) IsTest() bool { return strings.HasSuffix(f.Name, "_test.go") }

// StringConst resolves expr to a compile-time string constant: a string
// literal, a reference to a package-level string constant, or a +
// concatenation of such. The bool result is false for anything dynamic
// (fmt.Sprintf, variables, parameters, cross-package constants).
func (f *File) StringConst(expr ast.Expr) (string, bool) {
	return resolveString(expr, f.Pkg.consts)
}

func resolveString(expr ast.Expr, consts map[string]string) (string, bool) {
	switch e := expr.(type) {
	case *ast.BasicLit:
		if e.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(e.Value)
		return s, err == nil
	case *ast.Ident:
		v, ok := consts[e.Name]
		return v, ok
	case *ast.ParenExpr:
		return resolveString(e.X, consts)
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return "", false
		}
		x, okx := resolveString(e.X, consts)
		y, oky := resolveString(e.Y, consts)
		return x + y, okx && oky
	}
	return "", false
}

// collectConsts interns the package's resolvable string constants. Constants
// may reference earlier ones (prefix + suffix), so iterate to a fixed point;
// two passes cover any declaration order the parser can produce, and the
// loop is bounded for pathological cycles.
func (p *Package) collectConsts() {
	p.consts = map[string]string{}
	for pass := 0; pass < 8; pass++ {
		changed := false
		for _, f := range p.Files {
			if f.IsTest() {
				continue
			}
			for _, decl := range f.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.CONST {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) {
							break
						}
						if _, done := p.consts[name.Name]; done {
							continue
						}
						if v, ok := resolveString(vs.Values[i], p.consts); ok {
							p.consts[name.Name] = v
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// Analyzer is one project-invariant check. Run is called once per non-test
// file; it reports findings through the Pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, file) unit of work.
type Pass struct {
	File     *File
	check    string
	findings *[]Finding
}

// Reportf records a finding anchored at node's position.
func (p *Pass) Reportf(node ast.Node, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Check:   p.check,
		Pos:     p.File.Fset.Position(node.Pos()),
		Message: fmt.Sprintf(format, args...),
	})
}

// IgnoreDirective is the suppression comment prefix. The full form is
//
//	//lint:ignore <check> <reason>
//
// placed on the flagged line or the line directly above it.
const IgnoreDirective = "//lint:ignore"

// directive is one parsed //lint:ignore comment. used flips when a
// finding of its check lands on a line it covers.
type directive struct {
	check string
	pos   token.Position
	used  bool
}

// suppressions maps line -> directives on that line for one file.
type suppressions map[int][]*directive

// covers reports whether a finding of check at line is suppressed by a
// directive on the same line or the line immediately above, marking any
// matching directive used.
func (s suppressions) covers(check string, line int) bool {
	hit := false
	for _, l := range [2]int{line, line - 1} {
		for _, d := range s[l] {
			if d.check == check {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// parseSuppressions scans a file's comments for ignore directives. A
// directive missing its check name or reason is malformed and is returned
// as a finding of the always-on "lint" pseudo-check.
func parseSuppressions(f *File) (suppressions, []Finding) {
	sup := suppressions{}
	var bad []Finding
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, IgnoreDirective) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, IgnoreDirective)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				bad = append(bad, Finding{
					Check:   "lint",
					Pos:     f.Fset.Position(c.Pos()),
					Message: "malformed directive: want //lint:ignore <check> <reason>",
				})
				continue
			}
			pos := f.Fset.Position(c.Pos())
			sup[pos.Line] = append(sup[pos.Line], &directive{check: fields[0], pos: pos})
		}
	}
	return sup, bad
}

// RunDetailed applies the analyzers to every non-test file of every
// package and returns all findings sorted by position, with suppressed
// ones kept and marked rather than dropped. It also audits the
// directives themselves: a //lint:ignore naming a check that is not in
// the suite at all, or naming a check that ran but suppressed nothing,
// is dead weight that would silently mask a future refactor — each is
// reported as a "lint" finding. Directives for known checks outside the
// requested subset are left alone (a narrowed -checks run cannot judge
// them).
func RunDetailed(analyzers []*Analyzer, pkgs []*Package) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			sup, bad := parseSuppressions(f)
			out = append(out, bad...)
			if !f.IsTest() {
				for _, a := range analyzers {
					var raw []Finding
					a.Run(&Pass{File: f, check: a.Name, findings: &raw})
					for _, fd := range raw {
						fd.Suppressed = sup.covers(a.Name, fd.Pos.Line)
						out = append(out, fd)
					}
				}
			}
			for _, ds := range sup {
				for _, d := range ds {
					switch {
					case d.used:
					case !known[d.check]:
						out = append(out, Finding{
							Check:   "lint",
							Pos:     d.pos,
							Message: fmt.Sprintf("directive names unknown check %q (have %s)", d.check, strings.Join(Names(), ", ")),
						})
					case ran[d.check]:
						out = append(out, Finding{
							Check:   "lint",
							Pos:     d.pos,
							Message: fmt.Sprintf("unused suppression: no %s finding on this or the next line", d.check),
						})
					}
				}
			}
		}
	}
	sortFindings(out)
	return out
}

// Run applies the analyzers to every non-test file of every package,
// filters findings through //lint:ignore directives, and returns the
// survivors sorted by position. Unused or unknown-check directives
// survive as "lint" findings — suppressions are part of the ratchet.
func Run(analyzers []*Analyzer, pkgs []*Package) []Finding {
	all := RunDetailed(analyzers, pkgs)
	out := all[:0]
	for _, f := range all {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, MetricHygiene, PanicDiscipline, Goroutines, HotPath,
		ErrDiscipline, DurAcc, LockDiscipline,
	}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a := byName[n]
		if a == nil {
			return nil, fmt.Errorf("unknown check %q (have %s)", n, strings.Join(Names(), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the suite's analyzer names in stable order.
func Names() []string {
	var out []string
	for _, a := range All() {
		out = append(out, a.Name)
	}
	return out
}

// ---------------------------------------------------------------------------
// Shared syntactic helpers.

// recvTypeName returns the bare receiver type name of a method ("durAcc"
// for `func (d *durAcc) add…`), "" for functions.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// recvObj returns the receiver identifier's object, nil for unnamed or
// absent receivers.
func recvObj(fd *ast.FuncDecl) *ast.Object {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return fd.Recv.List[0].Names[0].Obj
}

// selectorPath renders a pure identifier chain ("p.instSlab", "c.sched")
// or returns "" when the expression is anything else (calls, indexes).
func selectorPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := selectorPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return selectorPath(e.X)
	}
	return ""
}

// pathContainsFold reports whether any dot-separated segment of path
// contains sub, case-insensitively ("p.instSlab" contains "slab").
func pathContainsFold(path, sub string) bool {
	for _, seg := range strings.Split(path, ".") {
		if strings.Contains(strings.ToLower(seg), sub) {
			return true
		}
	}
	return false
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// nilComparison decodes `x == nil` / `x != nil` (either operand order),
// returning the compared expression and whether the operator is ==.
func nilComparison(e ast.Expr) (x ast.Expr, isEq, ok bool) {
	be, isBin := e.(*ast.BinaryExpr)
	if !isBin || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false, false
	}
	switch {
	case isNilIdent(be.Y):
		return be.X, be.Op == token.EQL, true
	case isNilIdent(be.X):
		return be.Y, be.Op == token.EQL, true
	}
	return nil, false, false
}

// importLocalNames resolves the local names a file binds for the given
// import paths (unquoted), honoring aliases. The default name for
// "math/rand/v2" is "rand".
func importLocalNames(f *ast.File, paths ...string) map[string]bool {
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	out := map[string]bool{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if !want[path] {
			continue
		}
		local := path
		if i := strings.LastIndexByte(local, '/'); i >= 0 {
			local = local[i+1:]
		}
		if local == "v2" { // math/rand/v2 and friends
			rest := strings.TrimSuffix(strings.Trim(imp.Path.Value, `"`), "/v2")
			if i := strings.LastIndexByte(rest, '/'); i >= 0 {
				rest = rest[i+1:]
			}
			local = rest
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		out[local] = true
	}
	return out
}
