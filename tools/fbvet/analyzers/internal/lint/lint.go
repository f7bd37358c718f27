// Package lint holds the small amount of machinery shared by every
// fbvet analyzer: package-scope gating, test-file detection, and the
// waiver protocol.
//
// Waivers: a diagnostic is suppressed when the offending line — or the
// comment line immediately above it — carries a `//fbvet:ok <reason>`
// comment. The reason is mandatory by convention (it is the reviewer's
// record of why the invariant does not apply) but not enforced
// mechanically.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/tools/fbvet/internal/analysis"
)

// Marker is the waiver comment marker.
const Marker = "fbvet:ok"

// Scoped reports whether the package under analysis is inside one of
// the named domains (e.g. "internal/persist"). A domain matches the
// package itself and any package below it. Fixture packages under
// testdata get paths like "fixture/internal/persist" so the same gate
// applies to them.
func Scoped(pass *analysis.Pass, domains ...string) bool {
	pkgPath := pass.Pkg.Path()
	for _, d := range domains {
		if pkgPath == d || strings.HasSuffix(pkgPath, "/"+d) ||
			strings.Contains(pkgPath+"/", "/"+d+"/") {
			return true
		}
	}
	return false
}

// InTestFile reports whether pos lies in a _test.go file. Most fbvet
// invariants bind production code only; tests may exercise forbidden
// operations deliberately (fault injection, fixtures, parity oracles).
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// Waivers records which file lines carry a waiver marker.
type Waivers struct {
	fset  *token.FileSet
	lines map[fileLine]bool
}

type fileLine struct {
	file string
	line int
}

// CollectWaivers scans every comment in the package for Marker and
// records the lines it annotates.
func CollectWaivers(pass *analysis.Pass) *Waivers {
	w := &Waivers{fset: pass.Fset, lines: make(map[fileLine]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, Marker) {
					p := pass.Fset.Position(c.Pos())
					w.lines[fileLine{p.Filename, p.Line}] = true
				}
			}
		}
	}
	return w
}

// Waived reports whether pos is covered by a waiver: a marker on the
// same line (trailing comment) or on the line directly above it (a
// standalone comment, for lines too long to carry a trailer).
func (w *Waivers) Waived(pos token.Pos) bool {
	p := w.fset.Position(pos)
	return w.lines[fileLine{p.Filename, p.Line}] || w.lines[fileLine{p.Filename, p.Line - 1}]
}

// ReceiverTypeName returns the base type name of a FuncDecl's receiver
// ("" for plain functions). Pointer receivers are unwrapped.
func ReceiverTypeName(fn *ast.FuncDecl) string {
	if fn == nil || fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip generic type parameters (T[P]).
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// ExprString renders a dotted selector path (`db.fs.Remove`) for
// diagnostics and receiver matching; anything non-trivial collapses.
func ExprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return ExprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return ExprString(v.X)
	default:
		return "(...)"
	}
}
