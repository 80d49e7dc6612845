package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzAnalyzers runs every analyzer over any source go/parser accepts and
// requires that none panics. The seeds are the package's fixtures: every
// raw string literal in its test files that is itself a Go file.
func FuzzAnalyzers(f *testing.F) {
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range tests {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		file, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && strings.HasPrefix(lit.Value, "`package ") {
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(s)
			}
			return true
		})
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := parser.ParseFile(token.NewFileSet(), "fuzz.go", src, parser.ParseComments); err != nil {
			return
		}
		// internal/cloudsim is in scope for every package-scoped analyzer.
		for _, a := range All() {
			if _, err := RunSource(a, "internal/cloudsim", "fuzz.go", src); err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
		}
	})
}
