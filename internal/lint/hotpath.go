package lint

import (
	"go/ast"
)

// HotPathPackages are the packages whose code runs inside simulation
// events: the controller, the platform and the fault injector around it.
var HotPathPackages = map[string]bool{
	"internal/core":       true,
	"internal/cloudsim":   true,
	"internal/cloudchaos": true,
}

// idKeyTypes are the identifier types cloudsim resolves through its
// sequence-indexed tables; a map keyed by one of them is the string hash
// per provider call growing back.
var idKeyTypes = map[string]bool{
	"cloud.InstanceID": true,
	"cloud.VolumeID":   true,
	"cloud.Addr":       true,
	"netip.Addr":       true,
}

// HotPath keeps event code free of per-event closures and of loop
// re-entry. In HotPathPackages it flags:
//
//	R1  a function literal passed to At/After/AtArg/AfterArg on a sched
//	    path, or to any method on a prov path (c.prov, p.provider): a
//	    closure per event, capturing slab pointers across the wait;
//	R2  a function literal in a go or defer statement;
//	R3  Step/Run/RunUntil on a sched path: code that runs inside an event
//	    never drives the loop, so no slab slot is recycled under it;
//	R4  (internal/cloudsim only) a map keyed by an id type in idKeyTypes.
//
// The check is syntactic: receivers are recognized by name, so a method
// value or a closure stored in a field first is invisible. A cold call
// site that keeps its closure carries //lint:ignore hotpath <reason>.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "event code hands no function literal to the scheduler or provider, never drives the loop, and cloudsim keys no map by an id",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	rel := pass.File.Pkg.Rel
	if !HotPathPackages[rel] {
		return
	}
	idMaps := rel == "internal/cloudsim"
	ast.Inspect(pass.File.AST, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			reportLiteralStmt(pass, n.Call, "go")
		case *ast.DeferStmt:
			reportLiteralStmt(pass, n.Call, "defer")
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.MapType:
			if key := selectorPath(n.Key); idMaps && idKeyTypes[key] {
				pass.Reportf(n, "map keyed by %s in cloudsim; resolve ids through the sequence-indexed tables", key)
			}
		}
		return true
	})
}

func reportLiteralStmt(pass *Pass, call *ast.CallExpr, stmt string) {
	if _, ok := call.Fun.(*ast.FuncLit); ok {
		pass.Reportf(call, "function literal in a %s statement in event code", stmt)
	}
}

// checkHotCall applies R1 and R3 to one call.
func checkHotCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	path := selectorPath(sel.X)
	if path == "" {
		return
	}
	method := sel.Sel.Name
	sched := pathContainsFold(path, "sched")
	switch {
	case sched && (method == "Step" || method == "Run" || method == "RunUntil"):
		pass.Reportf(call, "%s.%s drives the event loop from event code; only the run driver yields", path, method)
	case sched && (method == "At" || method == "After" || method == "AtArg" || method == "AfterArg"),
		pathContainsFold(path, "prov"):
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				pass.Reportf(lit, "function literal handed to %s.%s is a closure per event; bind a function once and carry the entity in its argument or record", path, method)
			}
		}
	}
}
