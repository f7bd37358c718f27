// Package sentinelwrap enforces the error-chain contract of the
// serving and persistence layers (internal/service, internal/persist,
// internal/store, internal/ann, internal/core, internal/httpapi): the HTTP status
// mapping, the degraded-mode latch and every test in the fault plane
// dispatch on errors.Is/errors.As, so an error that reaches fmt.Errorf
// must be wrapped with %w, not flattened to text with %v/%s — and
// never pre-stringified with err.Error(). One %v in a parse path turns
// an ErrCorrupt-family failure into an unclassifiable string and the
// wrong HTTP status.
//
// Only constant format strings are analyzed; explicit argument indexes
// ([1]) are rare enough that such calls are skipped. _test.go files are
// exempt; deliberate flattening carries //fbvet:ok <reason>.
package sentinelwrap

import (
	"go/ast"
	"go/constant"
	"go/types"

	"repro/tools/fbvet/analyzers/internal/lint"
	"repro/tools/fbvet/internal/analysis"
)

// Domains are the packages whose errors must stay errors.Is-able.
var Domains = []string{
	"internal/service",
	"internal/persist",
	"internal/store",
	"internal/ann",
	"internal/core",
	"internal/httpapi", // statusFor maps sentinels to HTTP codes: a flattened one becomes a 500
}

var Analyzer = &analysis.Analyzer{
	Name: "sentinelwrap",
	Doc: "errors passed to fmt.Errorf in the sentinel-bearing packages " +
		"must use %w (not %v/%s or err.Error()) so errors.Is keeps working",
	Run: run,
}

func run(pass *analysis.Pass) {
	if !lint.Scoped(pass, Domains...) {
		return
	}
	waivers := lint.CollectWaivers(pass)
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

	isError := func(e ast.Expr) bool {
		t := pass.TypesInfo.TypeOf(e)
		return t != nil && types.Implements(t, errIface)
	}

	analysis.Walk(pass, func(call *ast.CallExpr, _ []ast.Node) {
		fn := analysis.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
			return
		}
		if len(call.Args) < 2 || call.Ellipsis.IsValid() {
			return
		}
		if lint.InTestFile(pass, call.Pos()) || waivers.Waived(call.Pos()) {
			return
		}

		// An error stringified before formatting defeats the verb check;
		// catch err.Error() arguments regardless of the format string.
		for _, arg := range call.Args[1:] {
			if c, ok := arg.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" && len(c.Args) == 0 && isError(sel.X) {
					pass.Reportf(arg.Pos(), "fmt.Errorf argument %s.Error() stringifies the error; pass the error itself with %%w so errors.Is/As see the chain (//fbvet:ok <reason> to waive)", lint.ExprString(sel.X))
				}
			}
		}

		tv, ok := pass.TypesInfo.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return
		}
		verbs, ok := parseVerbs(constant.StringVal(tv.Value))
		if !ok {
			return
		}
		args := call.Args[1:]
		for i, v := range verbs {
			if i >= len(args) {
				break
			}
			if v != 'w' && isError(args[i]) {
				pass.Reportf(args[i].Pos(), "error %s formatted with %%%c; use %%w so errors.Is/As see the chain (//fbvet:ok <reason> to waive)", lint.ExprString(args[i]), v)
			}
		}
	})
}

// parseVerbs returns, in argument order, the verb rune that consumes
// each argument of the format string. '*' width/precision arguments
// appear as '*'. Returns ok=false for formats it does not model
// (explicit argument indexes).
func parseVerbs(format string) (verbs []rune, ok bool) {
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		if i >= len(rs) {
			break
		}
		if rs[i] == '%' {
			continue
		}
		// flags
		for i < len(rs) && (rs[i] == '#' || rs[i] == '+' || rs[i] == '-' || rs[i] == ' ' || rs[i] == '0') {
			i++
		}
		// width
		for i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')) {
			if rs[i] == '*' {
				verbs = append(verbs, '*')
			}
			i++
		}
		// precision
		if i < len(rs) && rs[i] == '.' {
			i++
			for i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')) {
				if rs[i] == '*' {
					verbs = append(verbs, '*')
				}
				i++
			}
		}
		if i >= len(rs) {
			break
		}
		if rs[i] == '[' {
			return nil, false // explicit argument index: out of scope
		}
		verbs = append(verbs, rs[i])
	}
	return verbs, true
}
