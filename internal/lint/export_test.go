package lint

import (
	"go/parser"
	"go/token"
)

// RunSource parses src as a single file of a package rooted at the
// module-relative dir rel (e.g. "internal/core") and runs one analyzer over
// it, suppression filtering included. It exists for fixture tests.
func RunSource(a *Analyzer, rel, filename, src string) ([]Finding, error) {
	fset := token.NewFileSet()
	astf, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: "repro/" + rel, Rel: rel, Dir: rel}
	f := &File{Fset: fset, AST: astf, Name: filename, Pkg: pkg}
	pkg.Files = []*File{f}
	pkg.collectConsts()
	return Run([]*Analyzer{a}, []*Package{pkg}), nil
}
