package lint

import (
	"go/ast"
	"go/token"
)

// FleetScalePackages are the packages whose accumulators see fleet-wide
// sums: at the ROADMAP's 100k–1M VM scale, six months of per-VM service
// time overflows int64 nanoseconds (~292 VM-years) long before the run
// ends — the PR 6 bug that garbaged VMHours/Availability until the
// Report accumulators moved onto durAcc.
var FleetScalePackages = map[string]bool{
	"internal/core":        true,
	"internal/cloudsim":    true,
	"internal/experiments": true,
}

// durAccType is the blessed widened accumulator (internal/core/report.go):
// 2^62-ns chunks plus an int64 remainder, bit-identical to narrow
// arithmetic until actual overflow. Its own methods are exempt — they are
// the implementation.
const durAccType = "durAcc"

// DurAcc flags `x += d` (and `x = x + d`) on duration-typed accumulators
// inside loops in the fleet-scale packages. Duration-ness is inferred
// syntactically from declarations: variables declared
// simkit.Time/time.Duration (or converted from one), and struct fields
// whose declared type is a duration anywhere in the package. A
// for-statement's own post clause (`t += tick` stepping virtual time) is
// bounded iteration, not accumulation, and stays legal.
var DurAcc = &Analyzer{
	Name: "duracc",
	Doc:  "duration += in fleet-scale loops wraps int64 at ~292 VM-years; accumulate through durAcc",
	Run:  runDurAcc,
}

// durTypeExpr reports whether a type expression denotes a duration:
// simkit.Time, time.Duration, or bare Time/Duration inside internal/simkit
// itself.
func durTypeExpr(t ast.Expr, pkgRel string) bool {
	switch t := t.(type) {
	case *ast.SelectorExpr:
		base, ok := t.X.(*ast.Ident)
		if !ok {
			return false
		}
		return (base.Name == "simkit" && t.Sel.Name == "Time") ||
			(base.Name == "time" && t.Sel.Name == "Duration")
	case *ast.Ident:
		return pkgRel == "internal/simkit" && (t.Name == "Time" || t.Name == "Duration")
	}
	return false
}

// durFields collects, package-wide, the names of struct fields declared
// with a duration type. Matching is by field name (no type info), so a
// same-named non-duration field elsewhere would also match; none exists
// in the tree and a justified case carries a suppression.
func durFields(pkg *Package) map[string]bool {
	out := map[string]bool{}
	for _, f := range pkg.Files {
		if f.IsTest() {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				if !durTypeExpr(fld.Type, pkg.Rel) {
					continue
				}
				for _, name := range fld.Names {
					out[name.Name] = true
				}
			}
			return true
		})
	}
	return out
}

// durObjs infers which local objects hold durations: explicit duration
// declarations (vars, params, results) and duration conversions.
func durObjs(body *ast.BlockStmt, decl *ast.FuncDecl, pkgRel string) map[*ast.Object]bool {
	out := map[*ast.Object]bool{}
	markFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			if !durTypeExpr(fld.Type, pkgRel) {
				continue
			}
			for _, name := range fld.Names {
				if name.Obj != nil {
					out[name.Obj] = true
				}
			}
		}
	}
	if decl != nil {
		markFields(decl.Type.Params)
		markFields(decl.Type.Results)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if n.Type != nil && durTypeExpr(n.Type, pkgRel) {
				for _, name := range n.Names {
					if name.Obj != nil {
						out[name.Obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Obj == nil {
					continue
				}
				if call, ok := n.Rhs[i].(*ast.CallExpr); ok && len(call.Args) == 1 &&
					durTypeExpr(call.Fun, pkgRel) {
					out[id.Obj] = true
				}
			}
		}
		return true
	})
	return out
}

func runDurAcc(pass *Pass) {
	if !FleetScalePackages[pass.File.Pkg.Rel] {
		return
	}
	fields := durFields(pass.File.Pkg)
	for _, d := range pass.File.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || recvTypeName(fd) == durAccType {
			continue
		}
		objs := durObjs(fd.Body, fd, pass.File.Pkg.Rel)
		walkDurLoops(pass, fd.Body, objs, fields, 0)
	}
}

// walkDurLoops descends tracking loop depth; ForStmt post clauses are
// skipped entirely (loop-variable stepping).
func walkDurLoops(pass *Pass, n ast.Node, objs map[*ast.Object]bool, fields map[string]bool, depth int) {
	switch s := n.(type) {
	case nil:
		return
	case *ast.ForStmt:
		if s.Init != nil {
			walkDurLoops(pass, s.Init, objs, fields, depth)
		}
		walkDurLoops(pass, s.Body, objs, fields, depth+1)
		return
	case *ast.RangeStmt:
		walkDurLoops(pass, s.Body, objs, fields, depth+1)
		return
	case *ast.AssignStmt:
		if depth > 0 {
			checkDurAssign(pass, s, objs, fields)
		}
	case *ast.FuncLit:
		// A closure runs in its caller's context; reset the loop depth —
		// flagged only for loops inside the literal itself.
		walkDurLoops(pass, s.Body, objs, fields, 0)
		return
	}
	// Generic descent.
	children(n, func(c ast.Node) {
		walkDurLoops(pass, c, objs, fields, depth)
	})
}

// children invokes fn for each direct child node.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

func checkDurAssign(pass *Pass, s *ast.AssignStmt, objs map[*ast.Object]bool, fields map[string]bool) {
	isDur := func(e ast.Expr) (string, bool) {
		switch e := e.(type) {
		case *ast.Ident:
			if e.Obj != nil && objs[e.Obj] {
				return e.Name, true
			}
		case *ast.SelectorExpr:
			if fields[e.Sel.Name] {
				return selectorPath(e), true
			}
		}
		return "", false
	}
	report := func(name string) {
		if name == "" {
			name = "accumulator"
		}
		pass.Reportf(s, "duration accumulation %s += … in a loop wraps int64 nanoseconds at ~292 VM-years; use durAcc (internal/core/report.go)", name)
	}
	switch s.Tok {
	case token.ADD_ASSIGN:
		for _, lhs := range s.Lhs {
			if name, ok := isDur(lhs); ok {
				report(name)
			}
		}
	case token.ASSIGN:
		// x = x + d
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		name, ok := isDur(s.Lhs[0])
		if !ok {
			return
		}
		be, isBin := s.Rhs[0].(*ast.BinaryExpr)
		if !isBin || be.Op != token.ADD {
			return
		}
		lname, _ := isDur(be.X)
		rname, _ := isDur(be.Y)
		if lname == name || rname == name {
			report(name)
		}
	}
}
