package lint

import (
	"go/ast"
	"regexp"
)

// LockDiscipline checks `// guarded by <mutex>` field annotations: inside
// methods of the annotated struct, every access to the guarded field must
// sit on a path where the named sibling mutex is held. Lock state is a
// must-hold set solved over the CFG — Lock/RLock add, Unlock/RUnlock
// remove, `defer mu.Unlock()` keeps the mutex held to every return, and
// joining paths keep only mutexes held on all of them.
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

// lockState is the must-hold set of receiver mutexes, keyed by mutex
// field name.
type lockState map[string]bool

func (s lockState) clone() flowState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s lockState) joinFrom(o flowState) bool {
	os := o.(lockState)
	changed := false
	for k := range s {
		if !os[k] {
			delete(s, k)
			changed = true
		}
	}
	return changed
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
		recv := recvObj(fd)
		if recv == nil {
			continue
		}
		analyzeLockBody(pass, fd.Body, recv, fields)
	}
}

func analyzeLockBody(pass *Pass, body *ast.BlockStmt, recv *ast.Object, fields map[string]string) {
	transfer := func(fs flowState, n ast.Node) {
		st := fs.(lockState)
		if ds, ok := n.(*ast.DeferStmt); ok {
			// `defer recv.mu.Unlock()` keeps the mutex held for the rest
			// of the function; a deferred Lock would be bizarre — ignore.
			if mu, op := recvMutexCall(ds.Call, recv); mu != "" && (op == "Unlock" || op == "RUnlock") {
				return
			}
		}
		ast.Inspect(n, func(nn ast.Node) bool {
			if _, ok := nn.(*ast.FuncLit); ok {
				return false
			}
			call, ok := nn.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch mu, op := recvMutexCall(call, recv); op {
			case "Lock", "RLock":
				st[mu] = true
			case "Unlock", "RUnlock":
				delete(st, mu)
			}
			return true
		})
	}
	g := buildCFG(body)
	in := g.solve(lockState{}, flowFuncs{transfer: transfer})
	for _, blk := range g.blocks {
		entry, reachable := in[blk]
		if !reachable {
			continue
		}
		st := entry.clone().(lockState)
		for _, n := range blk.nodes {
			reportUnlockedAccess(pass, st, n, recv, fields)
			transfer(st, n)
		}
	}
}

// reportUnlockedAccess flags recv.<guarded field> accesses while the
// guarding mutex is not in the must-hold set. Lock/Unlock calls on the
// mutex itself and nested closures are skipped.
func reportUnlockedAccess(pass *Pass, st lockState, n ast.Node, recv *ast.Object, fields map[string]string) {
	ast.Inspect(n, func(nn ast.Node) bool {
		if _, ok := nn.(*ast.FuncLit); ok {
			return false
		}
		sel, ok := nn.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := sel.X.(*ast.Ident)
		if !ok || base.Obj == nil || base.Obj != recv {
			return true
		}
		mu, guarded := fields[sel.Sel.Name]
		if !guarded || st[mu] {
			return true
		}
		pass.Reportf(sel, "field %s.%s is guarded by %s but accessed without holding it",
			base.Name, sel.Sel.Name, mu)
		return true
	})
}
