package lint

import (
	"go/ast"
	"strings"
)

// MetricPrefix is the project's single scrape namespace. One prefix keeps
// dashboards greppable and guarantees no collision with Go runtime or
// third-party exporter families on a shared Prometheus.
const MetricPrefix = "spotcheck_"

// nameMethods are obs.Registry methods whose first argument is a metric
// family name. The first set is distinctive enough to match on the method
// name alone; Remove and Total are common identifiers, so they are checked
// only when the receiver chain visibly ends in a registry.
var (
	nameMethods    = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "Describe": true}
	regOnlyMethods = map[string]bool{"Remove": true, "Total": true}
)

// recordMethods maps each instrument lookup to the recording method that,
// called on the lookup's result in the same expression, makes every record
// pay for an intern: reg.Counter(name, labels...).Add(v) hashes the label
// signature and takes the family lock each time it runs.
var recordMethods = map[string]string{"Counter": "Add", "Gauge": "Set", "Histogram": "Observe"}

// MetricHygiene requires every metric name handed to an obs.Registry to be
// a compile-time string constant (literal, package-level const, or their
// concatenation) carrying the spotcheck_ prefix. Dynamic names — above all
// fmt.Sprintf — are banned outright: a name minted per entity makes family
// cardinality unbounded and the exposition scrape-unsafe; variation belongs
// in labels, whose series obs.Registry.Remove can retire. It also flags an
// instrument looked up and recorded to in one expression — Counter(...).Add,
// Gauge(...).Set, Histogram(...).Observe — because obs.Registry's contract
// is "resolve once and keep the returned pointer". The check is syntactic
// (no type information), so it keys on method names; the obs package itself
// is exempt, being the framework under test.
var MetricHygiene = &Analyzer{
	Name: "metrichygiene",
	Doc:  "obs metric names must be spotcheck_-prefixed string constants; instruments are resolved once, not per record",
	Run:  runMetricHygiene,
}

func runMetricHygiene(pass *Pass) {
	if pass.File.Pkg.Rel == "internal/obs" {
		return
	}
	ast.Inspect(pass.File.AST, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		method := sel.Sel.Name
		if lookup := lookupMethod(sel.X); lookup != "" && recordMethods[lookup] == method {
			pass.Reportf(call,
				"%s(...).%s looks the instrument up on every record; resolve it once and keep the pointer",
				lookup, method)
		}
		switch {
		case nameMethods[method]:
		case regOnlyMethods[method] && receiverLooksLikeRegistry(sel.X):
		default:
			return true
		}
		name, isConst := pass.File.StringConst(call.Args[0])
		switch {
		case !isConst:
			pass.Reportf(call.Args[0],
				"metric name passed to %s must be a compile-time string constant, not a computed value (unbounded cardinality); put variation in labels",
				method)
		case !strings.HasPrefix(name, MetricPrefix):
			pass.Reportf(call.Args[0], "metric name %q must carry the %q prefix", name, MetricPrefix)
		}
		return true
	})
}

// lookupMethod returns the method name when x is itself a call of the form
// recv.Counter(...), recv.Gauge(...) or recv.Histogram(...), and "" otherwise.
// A chain split across lines parses to the same tree.
func lookupMethod(x ast.Expr) string {
	inner, ok := ast.Unparen(x).(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := inner.Fun.(*ast.SelectorExpr)
	if !ok || recordMethods[sel.Sel.Name] == "" {
		return ""
	}
	return sel.Sel.Name
}

// receiverLooksLikeRegistry reports whether the receiver chain's last
// component names a registry (m.reg.Remove, registry.Total, ...), keeping
// unrelated Remove/Total methods (backup.Pool.Remove, Snapshot.Total in
// tests) out of scope.
func receiverLooksLikeRegistry(x ast.Expr) bool {
	var last string
	switch e := x.(type) {
	case *ast.Ident:
		last = e.Name
	case *ast.SelectorExpr:
		last = e.Sel.Name
	default:
		return false
	}
	return last == "reg" || strings.Contains(strings.ToLower(last), "registry")
}
