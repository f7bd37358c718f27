// Package errgate is the typed port of the standalone tools/errgate
// walker: it fails the build when a call whose name promises an I/O
// error (Close, Sync, Remove, ...) is used as a bare statement,
// silently discarding that error. The persistence layer is
// exactly where a swallowed error turns into acknowledged-insert loss —
// a Sync whose failure nobody sees is a durability lie.
//
// The port keeps the original's narrow name-based contract and adds one
// type-informed refinement the parser-only walker could not: a call
// whose results include no error is never flagged, whatever it is named.
//
// Every intentional discard must be spelled `_ = f.Close()` (visible in
// review) or carry a `//fbvet:ok <reason>` waiver. Test files are
// exempt; `defer` and `go` statements are out of scope (their result is
// unrecoverable by construction).
package errgate

import (
	"go/ast"
	"go/types"

	"repro/tools/fbvet/analyzers/internal/lint"
	"repro/tools/fbvet/internal/analysis"
)

// risky holds method/function names that, on every I/O-bearing type in
// this module (os.File, persist.File, persist.FS, *core.DurableBypass,
// json.Encoder, http.Server, ...), return an error worth looking at.
// Kept identical to the standalone walker's set.
var risky = map[string]bool{
	"Close":     true,
	"Sync":      true,
	"SyncDir":   true,
	"Flush":     true,
	"Remove":    true,
	"RemoveAll": true,
	"Rename":    true,
	"Truncate":  true,
	"Setenv":    true,
	"Shutdown":  true,
	"Encode":    true,
	"Compact":   true,
}

var Analyzer = &analysis.Analyzer{
	Name: "errgate",
	Doc: "forbid bare-statement calls that discard an I/O error " +
		"(Close/Sync/Remove/...); spell intentional discards `_ = ...` " +
		"or waive with //fbvet:ok",
	Run: run,
}

func run(pass *analysis.Pass) {
	waivers := lint.CollectWaivers(pass)

	analysis.Walk(pass, func(stmt *ast.ExprStmt, _ []ast.Node) {
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !risky[sel.Sel.Name] {
			return
		}
		if !returnsError(pass.TypesInfo, call) {
			return
		}
		if lint.InTestFile(pass, stmt.Pos()) || waivers.Waived(stmt.Pos()) {
			return
		}
		callee := lint.ExprString(sel)
		pass.Reportf(stmt.Pos(), "result of %s() is discarded; use `_ = %s()` or add //fbvet:ok <reason>", callee, callee)
	})
}

// returnsError reports whether any result of the call is an error. When
// the callee's signature cannot be resolved it errs on the side of the
// original name-based behavior and returns true.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return true
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}
