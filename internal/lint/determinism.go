package lint

import (
	"go/ast"
)

// DeterministicPackages are the module-relative packages whose non-test
// code must be reproducible: a fixed seed must yield byte-identical output
// across runs, machines and worker counts (the sweep engine's contract and
// the foundation of the paper's §5 bounded-time migration accounting).
// Wall-clock reads and global math/rand state break that silently.
var DeterministicPackages = map[string]bool{
	"internal/backup":      true,
	"internal/cloud":       true,
	"internal/cloudchaos":  true,
	"internal/cloudsim":    true,
	"internal/cloudtest":   true,
	"internal/core":        true,
	"internal/experiments": true,
	"internal/migration":   true,
	"internal/nestedvm":    true,
	"internal/scenario":    true,
	"internal/simkit":      true,
	"internal/slab":        true,
	"internal/spotmarket":  true,
	"internal/workload":    true,
}

// bannedTimeFuncs are package time functions that read or wait on the wall
// clock. Pure values (time.Duration, time.Hour) and parsing (time.Parse)
// stay legal: they carry no ambient state.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedRandFuncs are the top-level math/rand (and /v2) functions backed by
// the shared global source. Constructors (New, NewSource, NewPCG,
// NewChaCha8, NewZipf) and type names stay legal: seeded *rand.Rand values
// threaded through APIs are the sanctioned randomness.
var bannedRandFuncs = map[string]bool{
	"Seed": true, "Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true,
	// math/rand/v2 spellings
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

// Determinism bans wall-clock reads and global math/rand state in the
// simulation packages. The check is syntactic: it resolves each file's
// import aliases for "time", "math/rand" and "math/rand/v2" and flags
// selector references to the banned functions. Shadowing an import alias
// with a local variable would evade it; nothing in the tree does.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "ban time.Now/time.Sleep and global math/rand in simulation packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !DeterministicPackages[pass.File.Pkg.Rel] {
		return
	}
	timeNames, randNames := map[string]bool{}, map[string]bool{}
	for _, imp := range pass.File.AST.Imports {
		path := imp.Path.Value // quoted
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		}
		switch path {
		case `"time"`:
			if local == "" {
				local = "time"
			}
			timeNames[local] = true
		case `"math/rand"`, `"math/rand/v2"`:
			if local == "" {
				local = "rand"
			}
			randNames[local] = true
		}
	}
	if len(timeNames) == 0 && len(randNames) == 0 {
		return
	}
	ast.Inspect(pass.File.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case timeNames[ident.Name] && bannedTimeFuncs[sel.Sel.Name]:
			pass.Reportf(sel, "%s.%s reads the wall clock in a deterministic package; use simkit virtual time",
				ident.Name, sel.Sel.Name)
		case randNames[ident.Name] && bannedRandFuncs[sel.Sel.Name]:
			pass.Reportf(sel, "%s.%s uses the global math/rand source in a deterministic package; thread a seeded *rand.Rand",
				ident.Name, sel.Sel.Name)
		}
		return true
	})
}
