// Package analysis is the whole analysis framework fbvet needs, on the
// standard library alone: an Analyzer is a named function over one
// type-checked package (a Pass), Check parses and type-checks a package
// and runs analyzers over it, and Walk / StaticCallee are the two AST
// helpers every analyzer shares. There are no facts, no analyzer
// dependencies and no flags — the suite is five independent
// intra-package checks.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// An Analyzer is one invariant check. Doc is what `fbvet help` prints.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{pos, fmt.Sprintf(format, args...)})
}

// Check parses and type-checks the named files as the package at path
// under conf and runs the analyzers over the result in order, returning
// their diagnostics.
func Check(conf *types.Config, fset *token.FileSet, path string, filenames []string, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, diags: &diags})
	}
	return diags, nil
}

// Walk visits, in source order and depth first, every node of the
// package whose type is N (ast.Node for all of them). stack holds the
// node's ancestors from the *ast.File down, ending with n itself.
func Walk[N ast.Node](p *Pass, visit func(n N, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if t, ok := n.(N); ok {
				visit(t, stack)
			}
			return true
		})
	}
}

// StaticCallee returns the function or method a call statically
// resolves to, or nil for builtins, conversions, calls of function
// values and dynamically dispatched interface methods.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) { // look through explicit instantiation f[T](...)
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj() // method
		} else {
			obj = info.Uses[fun.Sel] // package-qualified function
		}
	}
	f, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return f
}
