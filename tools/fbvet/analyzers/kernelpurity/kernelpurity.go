// Package kernelpurity polices the determinism contract of the kernel
// packages (internal/vec, internal/knn, internal/ann, internal/geom).
// Every optimized path in those packages is pinned bitwise against a
// portable reference, and the ann quantizer is pinned by golden FNV
// hashes, so anything that can change results between runs, platforms
// or Go releases is forbidden in production code:
//
//   - math.FMA: fused multiply-add rounds once where a*b+c rounds
//     twice; a single call breaks the bitwise-parity suites.
//   - math/rand (and v2): the stream behind a seed is not specified
//     across Go releases; the repo's splitmix64 is the only sanctioned
//     PRNG (pinned by reference-output tests).
//   - time.Now: wall-clock input makes output run-dependent.
//   - ranging over a map while accumulating: map iteration order is
//     deliberately randomized, so order-sensitive accumulation differs
//     run to run. Extract and sort the keys first.
//
// _test.go files are exempt; deliberate uses carry //fbvet:ok <reason>.
package kernelpurity

import (
	"go/ast"
	"go/types"
	"strconv"

	"repro/tools/fbvet/analyzers/internal/lint"
	"repro/tools/fbvet/internal/analysis"
)

// Domains are the bitwise-pinned kernel packages.
var Domains = []string{
	"internal/vec",
	"internal/knn",
	"internal/ann",
	"internal/geom",
}

// forbiddenCalls maps package path -> function name -> reason.
var forbiddenCalls = map[string]map[string]string{
	"math": {
		"FMA": "fuses the multiply-add rounding and breaks the bitwise-parity pins (the no-FMA dispatch discipline is deliberate)",
	},
	"time": {
		"Now": "wall-clock input makes kernel output run-dependent",
	},
}

// forbiddenImports are packages that must not appear at all.
var forbiddenImports = map[string]string{
	"math/rand":    "its stream for a given seed is unspecified across Go releases; use the repo's splitmix64",
	"math/rand/v2": "its stream for a given seed is unspecified across Go releases; use the repo's splitmix64",
}

var Analyzer = &analysis.Analyzer{
	Name: "kernelpurity",
	Doc: "forbid math.FMA, math/rand, time.Now and map-ordered iteration " +
		"in the bitwise-pinned kernel packages",
	Run: run,
}

func run(pass *analysis.Pass) {
	if !lint.Scoped(pass, Domains...) {
		return
	}
	waivers := lint.CollectWaivers(pass)

	analysis.Walk(pass, func(n ast.Node, _ []ast.Node) {
		switch n.(type) {
		case *ast.ImportSpec, *ast.CallExpr, *ast.RangeStmt:
		default:
			return
		}
		if lint.InTestFile(pass, n.Pos()) || waivers.Waived(n.Pos()) {
			return
		}
		switch n := n.(type) {
		case *ast.ImportSpec:
			path, err := strconv.Unquote(n.Path.Value)
			if err != nil {
				return
			}
			if reason, bad := forbiddenImports[path]; bad {
				pass.Reportf(n.Pos(), "import %s is forbidden in kernel packages: %s (//fbvet:ok <reason> to waive)", path, reason)
			}
		case *ast.CallExpr:
			fn := analysis.StaticCallee(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			if reason, bad := forbiddenCalls[fn.Pkg().Path()][fn.Name()]; bad {
				pass.Reportf(n.Pos(), "%s.%s is forbidden in kernel packages: %s (//fbvet:ok <reason> to waive)", fn.Pkg().Name(), fn.Name(), reason)
			}
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				pass.Reportf(n.Pos(), "map iteration order is nondeterministic; accumulating in it breaks the bitwise-parity and golden-hash pins — extract and sort the keys first (//fbvet:ok <reason> to waive)")
			}
		}
	})
}
