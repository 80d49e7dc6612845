package lint

import (
	"go/ast"
	"regexp"
)

// LockDiscipline checks `// guarded by <mutex>` field annotations: inside
// methods of the annotated struct, every access to the guarded field must
// sit on a path where the named sibling mutex is held. The held set is
// carried through the statement tree — Lock/RLock add, Unlock/RUnlock
// remove, `defer mu.Unlock()` keeps the mutex held to every return, a
// branch that leaves adds nothing to what follows it, and branches that
// fall through meet by intersection.
//
// The annotation is opt-in per field:
//
//	type Trace struct {
//		mu   sync.Mutex
//		kept map[string][]TraceEvent // guarded by mu
//	}
//
// Limits (no type information): only accesses through the method's
// receiver are checked — an alias (`m := &t.kept`) or access from a
// non-method function is invisible; RLock is accepted for writes too, and
// closures inside a method are skipped (their execution time is unknown).
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "fields annotated `guarded by mu` must only be accessed with that mutex held",
	Run:  runLockDiscipline,
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

// guardedFields maps struct type name -> field name -> guarding mutex
// field name, collected from field doc and line comments package-wide.
func guardedFields(pkg *Package) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, f := range pkg.Files {
		if f.IsTest() {
			continue
		}
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					mu := guardAnnotation(fld)
					if mu == "" {
						continue
					}
					m := out[ts.Name.Name]
					if m == nil {
						m = map[string]string{}
						out[ts.Name.Name] = m
					}
					for _, name := range fld.Names {
						m[name.Name] = mu
					}
				}
			}
		}
	}
	return out
}

func guardAnnotation(fld *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockSet is the set of receiver mutexes held, keyed by mutex field
// name. nil means control never gets here (every path left).
type lockSet map[string]bool

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// meet joins two paths: a path that left (nil) adds nothing, otherwise
// only mutexes held on both stay held.
func meet(a, b lockSet) lockSet {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	for k := range a {
		if !b[k] {
			delete(a, k)
		}
	}
	return a
}

// recvMutexCall decodes recv.<mu>.<op>() where recv is the receiver
// object, returning the mutex field name and operation.
func recvMutexCall(call *ast.CallExpr, recv *ast.Object) (mu, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	base, ok := inner.X.(*ast.Ident)
	if !ok || base.Obj == nil || base.Obj != recv {
		return "", ""
	}
	return inner.Sel.Name, sel.Sel.Name
}

func runLockDiscipline(pass *Pass) {
	guards := guardedFields(pass.File.Pkg)
	if len(guards) == 0 {
		return
	}
	for _, d := range pass.File.AST.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fields := guards[recvTypeName(fd)]
		if len(fields) == 0 {
			continue
		}
		if recv := recvObj(fd); recv != nil {
			w := &lockWalk{pass: pass, recv: recv, fields: fields}
			w.stmts(fd.Body.List, lockSet{})
		}
	}
}

// lockWalk checks one method body. quiet suppresses reports during a
// loop body's first pass, which only learns what an iteration keeps held.
type lockWalk struct {
	pass   *Pass
	recv   *ast.Object
	fields map[string]string
	quiet  int
}

// stmts walks list with held locked and returns what is held where
// control falls off its end, nil if it never does.
func (w *lockWalk) stmts(list []ast.Stmt, held lockSet) lockSet {
	for _, s := range list {
		if held = w.stmt(s, held); held == nil {
			return nil
		}
	}
	return held
}

func (w *lockWalk) stmt(s ast.Stmt, held lockSet) lockSet {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.BranchStmt:
		return nil
	case *ast.ReturnStmt:
		w.node(s, held)
		return nil
	case *ast.ExprStmt:
		held = w.node(s, held)
		if isPanic(s) {
			return nil
		}
		return held
	case *ast.DeferStmt:
		// `defer recv.mu.Unlock()` keeps the mutex held for the rest of
		// the function.
		if mu, op := recvMutexCall(s.Call, w.recv); mu != "" && (op == "Unlock" || op == "RUnlock") {
			return held
		}
		return w.node(s, held)
	case *ast.IfStmt:
		held = w.node(s.Cond, w.node(s.Init, held))
		then := w.stmts(s.Body.List, held.clone())
		if s.Else != nil {
			held = w.stmt(s.Else, held)
		}
		return meet(then, held)
	case *ast.ForStmt:
		return w.loop(w.node(s.Init, held), s.Cond, s.Body, s.Post)
	case *ast.RangeStmt:
		return w.loop(w.node(s.X, held), nil, s.Body, nil)
	case *ast.SwitchStmt:
		return w.clauses(s.Body, w.node(s.Tag, w.node(s.Init, held)))
	case *ast.TypeSwitchStmt:
		return w.clauses(s.Body, w.node(s.Assign, w.node(s.Init, held)))
	case *ast.SelectStmt:
		return w.clauses(s.Body, held)
	}
	return w.node(s, held)
}

// loop walks a loop body twice: the first pass learns what an iteration
// keeps held, the second checks the body under what every iteration
// starts with, which is also what holds after the loop (it may run zero
// times).
func (w *lockWalk) loop(held lockSet, cond ast.Expr, body *ast.BlockStmt, post ast.Stmt) lockSet {
	w.quiet++
	end := w.stmts(body.List, held.clone())
	if end != nil {
		end = w.node(post, end)
	}
	w.quiet--
	held = meet(held, end)
	held = w.node(cond, held)
	if end := w.stmts(body.List, held.clone()); end != nil {
		w.node(post, end)
	}
	return held
}

// clauses walks each case of a switch or select from held and meets the
// cases that fall through; a switch without default may skip them all.
func (w *lockWalk) clauses(body *ast.BlockStmt, held lockSet) lockSet {
	var out lockSet
	skip := true
	for _, c := range body.List {
		st := held.clone()
		switch c := c.(type) {
		case *ast.CaseClause:
			skip = skip && c.List != nil
			for _, e := range c.List {
				st = w.node(e, st)
			}
			st = w.stmts(c.Body, st)
		case *ast.CommClause:
			skip = false
			st = w.stmts(c.Body, w.node(c.Comm, st))
		}
		out = meet(out, st)
	}
	if skip {
		out = meet(out, held)
	}
	return out
}

// node reports guarded accesses in n and applies its Lock and Unlock
// calls, in source order. Nested closures are skipped.
func (w *lockWalk) node(n ast.Node, held lockSet) lockSet {
	if n == nil || held == nil {
		return held
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch nn := nn.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			switch mu, op := recvMutexCall(nn, w.recv); op {
			case "Lock", "RLock":
				held[mu] = true
			case "Unlock", "RUnlock":
				delete(held, mu)
			}
		case *ast.SelectorExpr:
			base, ok := nn.X.(*ast.Ident)
			if !ok || base.Obj == nil || base.Obj != w.recv || w.quiet > 0 {
				break
			}
			if mu, guarded := w.fields[nn.Sel.Name]; guarded && !held[mu] {
				w.pass.Reportf(nn, "field %s.%s is guarded by %s but accessed without holding it",
					base.Name, nn.Sel.Name, mu)
			}
		}
		return true
	})
	return held
}
