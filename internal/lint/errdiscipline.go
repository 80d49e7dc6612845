package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ErrDiscipline enforces the error-handling contract the PR 7 policy bugs
// motivated: an error value, once known non-nil, must be consumed —
// returned, wrapped, passed to a call, classified with errors.Is — not
// silently dropped. Three rules, all intraprocedural walks of the syntax
// tree:
//
//  1. `_ = err` discards of an error variable;
//  2. a bare `continue`/`break`, or a `return` whose results never
//     mention the error and construct nothing, reached before any call or
//     any mention of the error on a branch where it is known non-nil (the
//     `if err != nil { continue }` swallow that masked catalog
//     misconfiguration across 54 markets);
//  3. `fmt.Errorf` formatting a sentinel (`ErrFoo`) or error variable
//     with %v/%s instead of wrapping with %w, which breaks errors.Is
//     callers.
//
// Error-ness is inferred without types: a variable is tracked when it is
// declared `var x error`, named like an error (err, errX), or bound as
// the final result of a multi-value call and compared against nil.
//
// Deliberate exemptions, documented in docs/LINTING.md: an error scoped
// to an if/switch init clause (`if err := f(); err != nil { … }`) is a
// predicate by construction — it cannot escape the statement; a strconv
// parse error tested by the very next `if` is a validity test, not an
// event; and a branch that performs any call while the error is live (a
// retry, a counter increment, a log) has reacted to the failure, so a
// subsequent bare return is not a swallow.
var ErrDiscipline = &Analyzer{
	Name: "errdiscipline",
	Doc:  "errors must be consumed: no _ = discards, no bare continue/return on a live non-nil error, sentinels wrapped with %w",
	Run:  runErrDiscipline,
}

// errVars is the classification of a function's error variables.
type errVars struct {
	strong   map[*ast.Object]bool // declared error / err-named
	weak     map[*ast.Object]bool // final result of a multi-value call
	compared map[*ast.Object]bool // ever compared against nil
	scoped   map[*ast.Object]bool // declared in an if/switch init clause
}

// swallowable reports whether dropping o silently is worth flagging:
// strong error variables always, weak ones only once a nil comparison
// gave evidence they hold an error; statement-scoped predicates never.
func (v errVars) swallowable(o *ast.Object) bool {
	return !v.scoped[o] && (v.strong[o] || (v.weak[o] && v.compared[o]))
}

func errName(n string) bool {
	l := strings.ToLower(n)
	return l == "err" || l == "error" || strings.HasPrefix(l, "err") || strings.HasSuffix(l, "err")
}

// sentinelName matches exported/package error sentinels: ErrNotFound,
// errBadState.
func sentinelName(n string) bool {
	return (strings.HasPrefix(n, "Err") || strings.HasPrefix(n, "err")) &&
		len(n) > 3 && n[3] >= 'A' && n[3] <= 'Z'
}

func collectErrVars(body *ast.BlockStmt) errVars {
	v := errVars{
		strong:   map[*ast.Object]bool{},
		weak:     map[*ast.Object]bool{},
		compared: map[*ast.Object]bool{},
		scoped:   map[*ast.Object]bool{},
	}
	markScoped := func(init ast.Stmt) {
		if as, ok := init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Obj != nil {
					v.scoped[id.Obj] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			markScoped(n.Init)
		case *ast.SwitchStmt:
			markScoped(n.Init)
		case *ast.ValueSpec:
			if id, ok := n.Type.(*ast.Ident); ok && id.Name == "error" {
				for _, name := range n.Names {
					if name.Obj != nil {
						v.strong[name.Obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			isCall := false
			if len(n.Rhs) == 1 && len(n.Lhs) >= 2 {
				_, isCall = n.Rhs[0].(*ast.CallExpr)
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Obj == nil {
					continue
				}
				switch {
				case errName(id.Name):
					v.strong[id.Obj] = true
				case isCall && i == len(n.Lhs)-1:
					v.weak[id.Obj] = true
				}
			}
		case *ast.BinaryExpr:
			if x, _, ok := nilComparison(n); ok {
				if id, ok := x.(*ast.Ident); ok && id.Obj != nil {
					v.compared[id.Obj] = true
				}
			}
		}
		return true
	})
	return v
}

// isBlankDiscard decodes `_ = x` returning x.
func isBlankDiscard(n ast.Node) *ast.Ident {
	as, ok := n.(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	if lhs, ok := as.Lhs[0].(*ast.Ident); !ok || lhs.Name != "_" {
		return nil
	}
	rhs, _ := as.Rhs[0].(*ast.Ident)
	return rhs
}

// mentions reports whether obj occurs in n other than as the bare operand
// of a nil comparison: `errors.Is(err, …)`, `f(err) != nil`, `err =
// g()` and a closure capturing err all count.
func mentions(n ast.Node, obj *ast.Object) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		if e, ok := nn.(ast.Expr); ok {
			if x, _, ok := nilComparison(e); ok {
				if id, ok := x.(*ast.Ident); ok && id.Obj == obj {
					return false
				}
			}
		}
		if id, ok := nn.(*ast.Ident); ok && id.Obj == obj {
			found = true
		}
		return !found
	})
	return found
}

// hasCall reports whether n contains a call outside nested closures.
func hasCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			found = true
		}
		return !found
	})
	return found
}

// nonNilWhen appends to out the variables cond proves non-nil when it
// evaluates to want: `err != nil` true, `err == nil` false, through
// parentheses, negation, && conjuncts (true) and || disjuncts (false).
func nonNilWhen(cond ast.Expr, want bool, out []*ast.Object) []*ast.Object {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return nonNilWhen(e.X, want, out)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return nonNilWhen(e.X, !want, out)
		}
	case *ast.BinaryExpr:
		if (e.Op == token.LAND && want) || (e.Op == token.LOR && !want) {
			return nonNilWhen(e.Y, want, nonNilWhen(e.X, want, out))
		}
		if x, isEq, ok := nilComparison(e); ok && isEq != want {
			if id, ok := x.(*ast.Ident); ok && id.Obj != nil {
				out = append(out, id.Obj)
			}
		}
	}
	return out
}

// errWalk is rule 2 over one function declaration, closures included.
type errWalk struct {
	pass         *Pass
	vars         errVars
	strconvNames map[string]bool
	reported     map[errSite]bool
}

type errSite struct {
	at  ast.Node
	obj *ast.Object
}

func runErrDiscipline(pass *Pass) {
	fmtNames := importLocalNames(pass.File.AST, "fmt")
	strconvNames := importLocalNames(pass.File.AST, "strconv")
	for _, d := range pass.File.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		w := &errWalk{pass: pass, vars: collectErrVars(fd.Body), strconvNames: strconvNames, reported: map[errSite]bool{}}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if id := isBlankDiscard(n); id != nil && w.vars.strong[id.Obj] {
					pass.Reportf(id, "error %s discarded with _ =; handle it, return it, or classify it with errors.Is", id.Name)
				}
			case *ast.CallExpr:
				checkErrorf(pass, fmtNames, w.vars, n)
			case *ast.BlockStmt:
				w.branches(n.List)
			case *ast.CaseClause:
				w.branches(n.Body)
			case *ast.CommClause:
				w.branches(n.Body)
			}
			return true
		})
	}
}

// branches finds, in one statement list, every if statement that proves
// an error non-nil on some branch, and walks that branch.
func (w *errWalk) branches(list []ast.Stmt) {
	for i, s := range list {
		if is, ok := s.(*ast.IfStmt); ok {
			var prev ast.Stmt
			if i > 0 {
				prev = list[i-1]
			}
			w.branch(is, prev, list[i+1:])
		}
	}
}

// branch walks the statements on which is proves an error non-nil: the
// then-block of `err != nil`, the else (or else-if chain) of `err ==
// nil`, and — when the then-block of `err == nil` always leaves — rest,
// the statements after is. prev is the statement before is, nil in an
// else-if chain.
func (w *errWalk) branch(is *ast.IfStmt, prev ast.Stmt, rest []ast.Stmt) {
	for _, obj := range nonNilWhen(is.Cond, true, nil) {
		if w.live(is, prev, obj) {
			w.open(is.Body.List, obj)
		}
	}
	for _, obj := range nonNilWhen(is.Cond, false, nil) {
		if !w.live(is, prev, obj) {
			continue
		}
		open := is.Else == nil || w.openStmt(is.Else, obj)
		if open && leaves(is.Body.List) {
			w.open(rest, obj)
		}
	}
	if elif, ok := is.Else.(*ast.IfStmt); ok {
		w.branch(elif, nil, nil)
	}
}

// live reports whether is tests obj as an error that must be consumed:
// swallowable, not already used by the condition itself, and not a
// strconv parse result tested in the init clause or right after the parse.
func (w *errWalk) live(is *ast.IfStmt, prev ast.Stmt, obj *ast.Object) bool {
	if !w.vars.swallowable(obj) || mentions(is.Cond, obj) {
		return false
	}
	for _, s := range []ast.Stmt{is.Init, prev} {
		if as, ok := s.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && mentions(as, obj) {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if pkg, _, ok := strings.Cut(selectorPath(call.Fun), "."); ok && w.strconvNames[pkg] {
					return false
				}
			}
		}
	}
	return true
}

// open walks list in source order on a path where obj is non-nil and not
// yet used. It reports each swallow it reaches and returns whether the
// path can fall off the end of list with obj still unused.
func (w *errWalk) open(list []ast.Stmt, obj *ast.Object) bool {
	for _, s := range list {
		if !w.openStmt(s, obj) {
			return false
		}
	}
	return true
}

func (w *errWalk) openStmt(s ast.Stmt, obj *ast.Object) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.open(s.List, obj)
	case *ast.LabeledStmt:
		return w.openStmt(s.Stmt, obj)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE || s.Tok == token.BREAK {
			w.report(s, obj, "bare %s swallows non-nil error %s; wrap it, collect it, or classify the expected case with errors.Is", s.Tok, obj.Name)
		}
		return false
	case *ast.ReturnStmt:
		if !returnConstructsValue(s) && !reacts(obj, s) {
			w.report(s, obj, "return drops non-nil error %s on the floor; return it, wrap it with %%w, or handle it first", obj.Name)
		}
		return false
	case *ast.IfStmt:
		if reacts(obj, s.Init, s.Cond) {
			return false
		}
		then := w.open(s.Body.List, obj)
		els := s.Else == nil || w.openStmt(s.Else, obj)
		return then || els
	case *ast.ForStmt:
		if reacts(obj, s.Init, s.Cond, s.Post) {
			return false
		}
		w.open(s.Body.List, obj)
		return true
	case *ast.RangeStmt:
		if reacts(obj, s.X) {
			return false
		}
		w.open(s.Body.List, obj)
		return true
	case *ast.SwitchStmt:
		return !reacts(obj, s.Init, s.Tag) && w.clauses(s.Body, obj)
	case *ast.TypeSwitchStmt:
		return !reacts(obj, s.Init, s.Assign) && w.clauses(s.Body, obj)
	case *ast.SelectStmt:
		return w.clauses(s.Body, obj)
	}
	return !reacts(obj, s)
}

// clauses walks each case of a switch or select. Control leaves the
// statement with obj unused when some case does, or when a switch has no
// default.
func (w *errWalk) clauses(body *ast.BlockStmt, obj *ast.Object) bool {
	open, hasDefault := false, false
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			used := false
			for _, e := range c.List {
				used = used || reacts(obj, e)
			}
			open = !used && w.open(c.Body, obj) || open
		case *ast.CommClause:
			hasDefault = true
			open = !reacts(obj, c.Comm) && w.open(c.Body, obj) || open
		}
	}
	return open || !hasDefault
}

// reacts reports whether any of ns uses obj or calls anything.
func reacts(obj *ast.Object, ns ...ast.Node) bool {
	for _, n := range ns {
		if n != nil && (mentions(n, obj) || hasCall(n)) {
			return true
		}
	}
	return false
}

func (w *errWalk) report(at ast.Node, obj *ast.Object, format string, args ...any) {
	if site := (errSite{at, obj}); !w.reported[site] {
		w.reported[site] = true
		w.pass.Reportf(at, format, args...)
	}
}

// leaves reports whether control never falls off the end of list: it
// ends in a return, a branch statement, a panic, or an if/else whose
// every arm leaves.
func leaves(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return leaves(s.List)
	case *ast.LabeledStmt:
		return leaves([]ast.Stmt{s.Stmt})
	case *ast.IfStmt:
		return s.Else != nil && leaves(s.Body.List) && leaves([]ast.Stmt{s.Else})
	case *ast.ExprStmt:
		return isPanic(s)
	}
	return false
}

// isPanic reports whether s is a call of the builtin panic.
func isPanic(s *ast.ExprStmt) bool {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// checkErrorf is rule 3: fmt.Errorf of a sentinel or error variable
// without %w.
func checkErrorf(pass *Pass, fmtNames map[string]bool, vars errVars, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" || len(call.Args) < 2 {
		return
	}
	if base, ok := sel.X.(*ast.Ident); !ok || !fmtNames[base.Name] {
		return
	}
	format, ok := pass.File.StringConst(call.Args[0])
	if !ok || strings.Contains(format, "%w") {
		return
	}
	for _, a := range call.Args[1:] {
		name, isErrArg := "", false
		switch arg := a.(type) {
		case *ast.Ident:
			name = arg.Name
			isErrArg = sentinelName(name) || (arg.Obj != nil && vars.strong[arg.Obj])
		case *ast.SelectorExpr:
			name = selectorPath(arg)
			isErrArg = sentinelName(arg.Sel.Name)
		}
		if isErrArg {
			pass.Reportf(call, "fmt.Errorf formats error %s without %%w; errors.Is callers cannot match the sentinel", name)
		}
	}
}

// returnConstructsValue reports whether any result builds a new value (a
// call, composite literal, or &composite): returning a freshly
// constructed error or aggregate counts as handling the path.
func returnConstructsValue(s *ast.ReturnStmt) bool {
	found := false
	for _, r := range s.Results {
		ast.Inspect(r, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.CallExpr, *ast.CompositeLit:
				found = true
			}
			return !found
		})
	}
	return found
}
