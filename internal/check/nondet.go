package check

import (
	"go/ast"
	"go/types"
)

// NondetAnalyzer flags sources of run-to-run nondeterminism inside the
// search-hot packages, where the Kohler–Steiglitz parameter combinations
// ⟨B,S,E,F,D,L,U,BR,RB⟩ must be deterministic, side-effect-free functions
// of the instance so that C1–C3 comparisons are reproducible:
//
//   - time.Now (and the rest of the wall-clock API): wall-clock reads in
//     the search make vertex counts and traces irreproducible. The
//     legitimate deadline-check sites carry a //bbvet:ignore nondet
//     allowlist comment.
//   - math/rand (and math/rand/v2) package-level draws: these consume the
//     shared global source, so results change across runs and across
//     unrelated call sites. Seeded *rand.Rand instances are fine.
//   - ranging over a map: Go randomizes map iteration order, so any map
//     range that feeds ordered output (child generation, placement order,
//     tie-breaking) silently breaks determinism. Iterate a sorted key
//     slice instead.
//   - comparing a time.Time against the zero composite literal
//     (t != time.Time{}): use t.IsZero(), which is both idiomatic and
//     robust against monotonic-clock field differences.
var NondetAnalyzer = &Analyzer{
	Name:       "nondet",
	Doc:        "flag wall-clock, global-rand and map-iteration nondeterminism in search-hot packages",
	NeedsTypes: true,
	Run:        runNondet,
}

// hotPackages are the module-relative packages whose execution must be
// deterministic (the search engine and everything under it).
var hotPackages = map[string]bool{
	"internal/core":       true,
	"internal/sched":      true,
	"internal/bruteforce": true,
}

// randConstructors create independent generators rather than drawing from
// the global source; they are the sanctioned escape hatch.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// timeNondet lists time-package functions that read the wall clock.
var timeNondet = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

func runNondet(pass *Pass) {
	if !hotPackages[pass.RelPath()] {
		return
	}
	for _, f := range pass.Files {
		file := f
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pkgPath, fn, ok := pass.calleePkgFunc(file, n)
				if !ok {
					return true
				}
				switch pkgPath {
				case "time":
					if timeNondet[fn] {
						pass.Reportf(n.Pos(), "time.%s in search-hot package %s: wall-clock reads make searches irreproducible (allowlist deliberate deadline checks with //bbvet:ignore nondet)", fn, pass.RelPath())
					}
				case "math/rand", "math/rand/v2":
					if !randConstructors[fn] {
						pass.Reportf(n.Pos(), "%s.%s draws from the process-global random source; use a seeded *rand.Rand instance for reproducible searches", pkgPath, fn)
					}
				}
			case *ast.RangeStmt:
				if pass.TypesInfo == nil {
					return true
				}
				tv, ok := pass.TypesInfo.Types[n.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "map iteration order is randomized: ranging over a map in search-hot package %s risks nondeterministic output; iterate a sorted key slice", pass.RelPath())
				}
			case *ast.BinaryExpr:
				if isTimeZeroComparison(pass, n) {
					pass.Reportf(n.Pos(), "comparing time.Time against the zero literal; use IsZero()")
				}
			}
			return true
		})
	}
}

// isTimeZeroComparison matches `x == time.Time{}` / `x != time.Time{}`
// (either operand order).
func isTimeZeroComparison(pass *Pass, e *ast.BinaryExpr) bool {
	if e.Op.String() != "==" && e.Op.String() != "!=" {
		return false
	}
	return isZeroTimeLiteral(pass, e.X) || isZeroTimeLiteral(pass, e.Y)
}

func isZeroTimeLiteral(pass *Pass, e ast.Expr) bool {
	// Allow one level of parens: (time.Time{}).
	if p, ok := e.(*ast.ParenExpr); ok {
		e = p.X
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok || len(lit.Elts) != 0 {
		return false
	}
	if pass.TypesInfo != nil {
		if tv, ok := pass.TypesInfo.Types[lit]; ok && tv.Type != nil {
			named, ok := tv.Type.(*types.Named)
			if !ok {
				return false
			}
			obj := named.Obj()
			return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
		}
	}
	// Syntactic fallback.
	sel, ok := lit.Type.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Time" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "time"
}
