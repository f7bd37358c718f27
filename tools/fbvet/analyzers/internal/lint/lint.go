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

	"golang.org/x/tools/go/analysis"
)

// Marker is the waiver comment marker.
const Marker = "fbvet:ok"

// Scoped reports whether the package under analysis is inside one of
// the named domains (e.g. "internal/persist"). A domain matches the
// package itself and any package below it. Fixture packages under
// testdata get paths like "fixture/internal/persist" so the same gate
// applies to them.
func Scoped(pass *analysis.Pass, domains ...string) bool {
	return PathScoped(pass.Pkg.Path(), domains...)
}

// PathScoped is Scoped over a raw import path.
func PathScoped(pkgPath string, domains ...string) bool {
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

// Waivers records, per file line, which waiver markers appear there.
type Waivers struct {
	fset  *token.FileSet
	lines map[string]map[int]bool // filename -> line -> waived
}

// CollectWaivers scans every comment in the package for Marker and
// records the lines it annotates.
func CollectWaivers(pass *analysis.Pass) *Waivers {
	w := &Waivers{fset: pass.Fset, lines: make(map[string]map[int]bool)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, Marker) {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := w.lines[p.Filename]
				if m == nil {
					m = make(map[int]bool)
					w.lines[p.Filename] = m
				}
				m[p.Line] = true
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
	m := w.lines[p.Filename]
	if m == nil {
		return false
	}
	return m[p.Line] || m[p.Line-1]
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
