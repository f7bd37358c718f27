// Package fsseam enforces the persist.FS seam: inside the persistence
// domains (internal/persist, internal/store, internal/ann,
// internal/core, internal/shardedbypass) no production code may touch
// the filesystem through the os package directly. Everything must flow
// through persist.FS, because internal/faultfs substitutes that seam to
// enumerate crash schedules — a direct os.Rename is an fsync/rename
// crash point the chaos harness can neither see nor fail, which
// silently shrinks the "zero acknowledged-insert loss" proof.
//
// Exemptions: _test.go files (they build fixtures and verify on-disk
// bytes out-of-band), methods of the osFS production implementation
// (the seam's own bottom), and lines waived with `//fbvet:ok <reason>`
// (e.g. mmap open paths that need a real file descriptor).
package fsseam

import (
	"go/ast"

	"repro/tools/fbvet/analyzers/internal/lint"
	"repro/tools/fbvet/internal/analysis"
)

// Domains are the package subtrees whose filesystem access must flow
// through the persist.FS seam.
var Domains = []string{
	"internal/persist",
	"internal/store",
	"internal/ann",
	"internal/core",
	"internal/shardedbypass",
}

// forbidden lists the os package functions that constitute filesystem
// access the faultfs crash schedules need to interpose on.
var forbidden = map[string]bool{
	"Create":     true,
	"CreateTemp": true,
	"Open":       true,
	"OpenFile":   true,
	"Rename":     true,
	"Remove":     true,
	"RemoveAll":  true,
	"WriteFile":  true,
	"ReadFile":   true,
	"Mkdir":      true,
	"MkdirAll":   true,
	"MkdirTemp":  true,
	"Truncate":   true,
	"Link":       true,
	"Symlink":    true,
}

var Analyzer = &analysis.Analyzer{
	Name: "fsseam",
	Doc: "forbid direct os filesystem calls in the persistence domains; " +
		"all I/O must flow through the persist.FS seam so faultfs crash " +
		"schedules stay exhaustive",
	Run: run,
}

func run(pass *analysis.Pass) {
	if !lint.Scoped(pass, Domains...) {
		return
	}
	waivers := lint.CollectWaivers(pass)

	analysis.Walk(pass, func(call *ast.CallExpr, stack []ast.Node) {
		fn := analysis.StaticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !forbidden[fn.Name()] {
			return
		}
		if lint.InTestFile(pass, call.Pos()) || waivers.Waived(call.Pos()) {
			return
		}
		// The osFS methods in internal/persist are the seam's bottom:
		// the one place direct os calls are the point.
		for _, anc := range stack {
			if fd, ok := anc.(*ast.FuncDecl); ok && lint.ReceiverTypeName(fd) == "osFS" {
				return
			}
		}
		pass.Reportf(call.Pos(),
			"direct os.%s bypasses the persist.FS seam (route through persist.FS so faultfs crash schedules cover it, or waive with //fbvet:ok <reason>)",
			fn.Name())
	})
}
