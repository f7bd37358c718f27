package feedbackbypass_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadCodeAllowlist names the package-level identifiers in internal/ and
// the root package that no non-test code references but that stay
// anyway, each with the reason. Keys are "pkgpath.Name" or
// "pkgpath.Type.Method". An entry that is referenced again, or no longer
// declared, fails the test.
var deadCodeAllowlist = map[string]string{
	"repro/internal/knn.Scan.SearchNaive":            "the per-row oracle the knn parity suites and BenchmarkKNNScanNaive hold the kernels to",
	"repro/internal/simplextree.Tree.PredictNaive":   "the full-solve oracle of TestPredictMatchesNaiveDescent and BenchmarkLookupNaive",
	"repro/internal/simplextree.Tree.Snapshot":       "the structural oracle the recovery and compaction tests hold a rebuilt tree to",
	"repro/internal/simplextree.Tree.CompressValues": "the paper's §3.1 storage/accuracy trade-off; only compress_test.go calls it, and no serving path does (ROADMAP 28)",
	"repro/internal/imagegen.Generate":               "the serial renderer TestBuildMatchesSerialGenerate holds the parallel dataset.Build to",
	"repro/internal/vec.Det":                         "the determinant oracle of TestInterpolationEqualsDeterminantFormulation",
	"repro/internal/vec.MatrixFromRows":              "the matrix-literal constructor of vec's own Solve and Det tests",
	"repro/internal/store.FromRows":                  "the row-literal constructor of the store, knn and engine tests and the root benchmarks",
	"repro/internal/vec.EqualTol":                    "the tolerance comparison six packages' tests assert with",
}

// deadCodeConfigs are the build configurations TestNoDeadCode and
// TestRepoRules check; an identifier referenced under either one is live
// and a rule finding under either one fails, so both sides of every
// build constraint in the tree (amd64/!amd64, unix/portable mmap) are
// covered.
var deadCodeConfigs = [][2]string{{"linux", "amd64"}, {"windows", "arm64"}}

// TestNoDeadCode type-checks every non-test package of the module, and
// bench/ as a caller, and fails on any package-level identifier (or
// method) declared in internal/ or in the root package that no non-test
// code references. The root package is the public API, so its Example
// functions count as callers of it too: a root export stays if non-test
// code, a cmd/ program or an Example uses it.
//
// A use inside the identifier's own declaration (recursion, a method's
// receiver naming its type) does not count. Use inside the declaring
// package counts: such an identifier is live, and unexporting it would
// delete nothing. A method is also live when its name and signature
// match a method of an interface type that the module's code uses, or
// when its type is aliased by the root package, the module's public API.
// internal/faultfs is test support and is not checked.
func TestNoDeadCode(t *testing.T) {
	declared := map[string]token.Position{}
	referenced := map[string]bool{}
	for _, l := range loadModule(t) {
		l.mark(declared, referenced)
	}

	var dead []string
	for key, pos := range declared {
		if _, ok := deadCodeAllowlist[key]; !ok && !referenced[key] {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is declared but no non-test code references it", d)
	}
	for key := range deadCodeAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("stale allowlist entry %s: no longer declared", key)
		} else if referenced[key] {
			t.Errorf("stale allowlist entry %s: now referenced", key)
		}
	}
}

// moduleLoad type-checks the module's non-test packages, bench/
// included, from source once per deadCodeConfigs entry, for both
// TestNoDeadCode and TestRepoRules.
var moduleLoad = sync.OnceValues(loadModuleConfigs)

// loadModule returns one loader per build configuration, each holding
// every package of the module type-checked under that configuration.
func loadModule(t *testing.T) []*deadCodeLoader {
	t.Helper()
	loaders, err := moduleLoad()
	if err != nil {
		t.Fatal(err)
	}
	return loaders
}

func loadModuleConfigs() ([]*deadCodeLoader, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	var dirs []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil) // shared: the standard library is checked once
	var loaders []*deadCodeLoader
	for _, cfg := range deadCodeConfigs {
		ctxt := build.Default
		ctxt.GOOS, ctxt.GOARCH, ctxt.CgoEnabled = cfg[0], cfg[1], false
		l := &deadCodeLoader{ctxt: &ctxt, fset: fset, std: std, modPath: modPath, pkgs: map[string]*deadCodePkg{}}
		for _, dir := range dirs {
			if _, err := l.load(l.importPath(dir)); err != nil && !errors.As(err, new(*build.NoGoError)) {
				return nil, fmt.Errorf("%s/%s: %w", cfg[0], cfg[1], err)
			}
		}
		if err := l.loadExamples(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cfg[0], cfg[1], err)
		}
		loaders = append(loaders, l)
	}
	return loaders, nil
}

type deadCodePkg struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// deadCodeExamples holds the root's external test files that declare an
// Example function, type-checked against the loaded root package, and
// the extents of those functions.
type deadCodeExamples struct {
	info  *types.Info
	funcs []*ast.FuncDecl
}

// deadCodeLoader type-checks the module's packages from source under
// one build configuration, importing the standard library through std.
type deadCodeLoader struct {
	ctxt     *build.Context
	fset     *token.FileSet
	std      types.Importer
	modPath  string
	pkgs     map[string]*deadCodePkg
	examples deadCodeExamples
}

func (l *deadCodeLoader) importPath(dir string) string {
	if dir == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(dir)
}

func (l *deadCodeLoader) Import(path string) (*types.Package, error) {
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *deadCodeLoader) load(path string) (*deadCodePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/"))
	if dir == "" {
		dir = "."
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &deadCodePkg{info: newTypesInfo()}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctxt.GOARCH)}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// loadExamples parses the root's external test files that declare an
// Example function and type-checks them against the loaded packages. A
// helper such a file takes from another test file stays unresolved:
// type errors are ignored, since only the Example bodies' uses of the
// module are read and go test compiles the files anyway.
func (l *deadCodeLoader) loadExamples() error {
	bp, err := l.ctxt.ImportDir(".", 0)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, name := range bp.XTestGoFiles {
		f, err := parser.ParseFile(l.fset, name, nil, 0)
		if err != nil {
			return err
		}
		n := len(l.examples.funcs)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				l.examples.funcs = append(l.examples.funcs, fd)
			}
		}
		if len(l.examples.funcs) > n {
			files = append(files, f)
		}
	}
	l.examples.info = newTypesInfo()
	conf := types.Config{Importer: l, Sizes: types.SizesFor("gc", l.ctxt.GOARCH), Error: func(error) {}}
	conf.Check(l.modPath+"_test", l.fset, files, l.examples.info) // errors ignored, see above
	return nil
}

// newTypesInfo records what TestNoDeadCode and TestRepoRules read.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// deadCodeKey names a package-level object or a method of a
// package-level type; it returns "" for everything else.
func deadCodeKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := types.Unalias(recv.Type())
			if p, ok := t.(*types.Pointer); ok {
				t = types.Unalias(p.Elem())
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// mark adds this configuration's checked identifiers to declared and its
// references to referenced.
func (l *deadCodeLoader) mark(declared map[string]token.Position, referenced map[string]bool) {
	checked := func(path string) bool {
		return path == l.modPath || strings.HasPrefix(path, l.modPath+"/internal/") && !strings.HasPrefix(path, l.modPath+"/internal/faultfs")
	}
	// own holds each key's declaration extent, where uses don't count;
	// receivers holds the receiver type identifiers of methods.
	type extent struct{ pos, end token.Pos }
	own := map[string][]extent{}
	receivers := map[*ast.Ident]bool{}
	var methods []*types.Func
	for path, p := range l.pkgs {
		if !checked(path) {
			continue
		}
		def := func(id *ast.Ident, node ast.Node) {
			if id.Name == "_" || id.Name == "init" {
				return
			}
			obj := p.info.Defs[id]
			key := deadCodeKey(obj)
			if key == "" {
				return
			}
			if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
				methods = append(methods, f)
			}
			declared[key] = l.fset.Position(id.Pos())
			own[key] = append(own[key], extent{node.Pos(), node.End()})
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					def(d.Name, d)
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							def(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								def(id, s)
							}
						}
					}
				}
			}
		}
	}

	// Interfaces the module's code uses: every interface reachable from
	// the type of an expression or object, and from type constraints.
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			walk(t.Underlying())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.TypeParam:
			walk(t.Constraint())
		case *types.Interface:
			ifaces = append(ifaces, t)
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		}
	}

	for path, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			key := deadCodeKey(obj)
			if key == "" || receivers[id] {
				continue
			}
			inside := false
			for _, e := range own[key] {
				inside = inside || (e.pos <= id.Pos() && id.Pos() < e.end)
			}
			if !inside {
				referenced[key] = true
			}
			walk(obj.Type())
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				walk(obj.Type())
			}
		}
		for _, tv := range p.info.Types {
			walk(tv.Type)
		}
		if path != l.modPath {
			continue
		}
		// The root package's aliases are the public API: their method
		// sets are live.
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			t := types.Unalias(tn.Type())
			if ptr, ok := t.(*types.Pointer); ok {
				t = types.Unalias(ptr.Elem())
			}
			if n, ok := t.(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					referenced[deadCodeKey(n.Method(i))] = true
				}
			}
		}
	}

	// Examples count as callers of root exports only: an internal
	// identifier that only an Example uses is still dead.
	for id, obj := range l.examples.info.Uses {
		if obj.Pkg() == nil || obj.Pkg().Path() != l.modPath {
			continue
		}
		for _, fd := range l.examples.funcs {
			if fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				if key := deadCodeKey(obj); key != "" {
					referenced[key] = true
				}
			}
		}
	}

	for _, m := range methods {
		for _, iface := range ifaces {
			for i := 0; i < iface.NumMethods(); i++ {
				if im := iface.Method(i); im.Name() == m.Name() && types.Identical(im.Type(), m.Type()) {
					referenced[deadCodeKey(m)] = true
				}
			}
		}
	}
}
