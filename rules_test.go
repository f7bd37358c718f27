package feedbackbypass_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// waiverMarker starts a comment that waives every rule on its own line
// and on the line below it: `//fbvet:ok <reason>`. The reason records
// why the invariant does not hold there.
const waiverMarker = "//fbvet:ok"

// TestRepoRules holds every non-test package of the module to the
// repository's five invariant rules (fsseam, kernelpurity, sentinelwrap,
// lockdiscipline, errgate; see DESIGN.md "Static analysis plane") under
// each of deadCodeConfigs. It fails on a finding no waiver silences, and
// on a waiver that silences no finding under either configuration.
// bench/ is its own module and is not checked. The subtests run the
// rules over ruleCases.
func TestRepoRules(t *testing.T) {
	loaders := loadModule(t)
	fset, std := loaders[0].fset, loaders[0].std
	for _, c := range ruleCases {
		t.Run(c.name, func(t *testing.T) { c.check(t, fset, std) })
	}
	r := newRuleRun(fset)
	for _, l := range loaders {
		for path, p := range l.pkgs {
			if path != l.modPath+"/bench" && !strings.HasPrefix(path, l.modPath+"/bench/") {
				r.check(path, p.files, p.info)
			}
		}
	}
	for _, f := range r.findings() {
		t.Errorf("%s: %s", f.pos, f.msg)
	}
}

// A ruleFinding is one diagnostic, or one waiver that silenced none.
type ruleFinding struct {
	pos token.Position
	msg string
}

type fileLine struct {
	file string
	line int
}

// ruleRun collects the rules' findings over packages and build
// configurations. A finding seen under both configurations counts once;
// a waiver is live if it silenced a finding under either.
type ruleRun struct {
	fset    *token.FileSet
	diags   map[ruleFinding]bool
	waivers map[fileLine]bool // a waiver's line → whether it silenced a finding
}

func newRuleRun(fset *token.FileSet) *ruleRun {
	return &ruleRun{fset: fset, diags: map[ruleFinding]bool{}, waivers: map[fileLine]bool{}}
}

// check runs the five rules over one type-checked package.
func (r *ruleRun) check(path string, files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, waiverMarker) {
					p := r.fset.Position(c.Pos())
					k := fileLine{p.Filename, p.Line}
					r.waivers[k] = r.waivers[k]
				}
			}
		}
	}
	p := &rulePass{run: r, path: path, files: files, info: info}
	fsSeam(p)
	kernelPurity(p)
	sentinelWrap(p)
	lockDiscipline(p)
	errGate(p)
}

// findings returns the unwaived diagnostics and the dead waivers, in
// file and line order.
func (r *ruleRun) findings() []ruleFinding {
	var out []ruleFinding
	for d := range r.diags {
		out = append(out, d)
	}
	for k, used := range r.waivers {
		if !used {
			out = append(out, ruleFinding{token.Position{Filename: k.file, Line: k.line},
				"waiver silences no finding under any build configuration; delete it"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].msg < out[j].msg
	})
	return out
}

// A rulePass is one package as the rules see it.
type rulePass struct {
	run   *ruleRun
	path  string
	files []*ast.File
	info  *types.Info
}

// in reports whether the package is one of the domains (such as
// "internal/persist") or below one. A fixture path like
// "fixture/internal/persist" lands in the same domain.
func (p *rulePass) in(domains ...string) bool {
	for _, d := range domains {
		if strings.Contains("/"+p.path+"/", "/"+d+"/") {
			return true
		}
	}
	return false
}

// reportf records a finding at pos unless a waiver sits on its line or
// on the line above, in which case the waiver is marked live.
func (p *rulePass) reportf(pos token.Pos, format string, args ...any) {
	at := p.run.fset.Position(pos)
	waived := false
	for _, k := range []fileLine{{at.Filename, at.Line}, {at.Filename, at.Line - 1}} {
		if _, ok := p.run.waivers[k]; ok {
			p.run.waivers[k], waived = true, true
		}
	}
	if !waived {
		p.run.diags[ruleFinding{at, fmt.Sprintf(format, args...)}] = true
	}
}

// walk visits, in source order and depth first, every node of the
// package whose type is N (ast.Node for all of them). stack holds the
// node's ancestors from the *ast.File down, ending with n itself.
func walk[N ast.Node](p *rulePass, visit func(n N, stack []ast.Node)) {
	var stack []ast.Node
	for _, f := range p.files {
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

// staticCallee returns the function or method a call statically
// resolves to, or nil for builtins, conversions, calls of function
// values and dynamically dispatched interface methods.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
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

// exprString renders a dotted selector path (`db.fs.Remove`) for
// diagnostics and lock keys; anything else collapses to "(...)".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	default:
		return "(...)"
	}
}

// fsSeamDomains reach the filesystem only through persist.FS:
// internal/faultfs substitutes that seam to enumerate crash schedules,
// and a direct os call is a crash point they can neither see nor fail.
var fsSeamDomains = []string{"internal/persist", "internal/store", "internal/ann", "internal/core", "internal/shardedbypass"}

var fsSeamForbidden = map[string]bool{
	"Create": true, "CreateTemp": true, "Open": true, "OpenFile": true,
	"Rename": true, "Remove": true, "RemoveAll": true, "WriteFile": true,
	"ReadFile": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Truncate": true, "Link": true, "Symlink": true,
}

// fsSeam forbids direct os filesystem calls in fsSeamDomains, except in
// the methods of osFS, the seam's production bottom.
func fsSeam(p *rulePass) {
	if !p.in(fsSeamDomains...) {
		return
	}
	walk(p, func(call *ast.CallExpr, stack []ast.Node) {
		fn := staticCallee(p.info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" || !fsSeamForbidden[fn.Name()] {
			return
		}
		for _, anc := range stack {
			if fd, ok := anc.(*ast.FuncDecl); ok && fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if exprString(recv) == "osFS" {
					return
				}
			}
		}
		p.reportf(call.Pos(),
			"direct os.%s bypasses the persist.FS seam (route through persist.FS so faultfs crash schedules cover it, or waive with //fbvet:ok <reason>)",
			fn.Name())
	})
}

// kernelDomains are pinned bitwise against portable references and by
// golden hashes, so nothing that varies between runs, platforms or Go
// releases may feed them.
var kernelDomains = []string{"internal/vec", "internal/knn", "internal/ann", "internal/geom"}

var kernelForbiddenCalls = map[string]map[string]string{
	"math": {"FMA": "fuses the multiply-add rounding and breaks the bitwise-parity pins (the no-FMA dispatch discipline is deliberate)"},
	"time": {"Now": "wall-clock input makes kernel output run-dependent"},
}

var kernelForbiddenImports = map[string]string{
	"math/rand":    "its stream for a given seed is unspecified across Go releases; use the repo's splitmix64",
	"math/rand/v2": "its stream for a given seed is unspecified across Go releases; use the repo's splitmix64",
}

// kernelPurity forbids math.FMA, math/rand, time.Now and ranging over a
// map in kernelDomains.
func kernelPurity(p *rulePass) {
	if !p.in(kernelDomains...) {
		return
	}
	walk(p, func(n ast.Node, _ []ast.Node) {
		switch n := n.(type) {
		case *ast.ImportSpec:
			path, err := strconv.Unquote(n.Path.Value)
			if reason, bad := kernelForbiddenImports[path]; err == nil && bad {
				p.reportf(n.Pos(), "import %s is forbidden in kernel packages: %s (//fbvet:ok <reason> to waive)", path, reason)
			}
		case *ast.CallExpr:
			fn := staticCallee(p.info, n)
			if fn == nil || fn.Pkg() == nil {
				return
			}
			if reason, bad := kernelForbiddenCalls[fn.Pkg().Path()][fn.Name()]; bad {
				p.reportf(n.Pos(), "%s.%s is forbidden in kernel packages: %s (//fbvet:ok <reason> to waive)", fn.Pkg().Name(), fn.Name(), reason)
			}
		case *ast.RangeStmt:
			if t := p.info.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.reportf(n.Pos(), "map iteration order is nondeterministic; accumulating in it breaks the bitwise-parity and golden-hash pins — extract and sort the keys first (//fbvet:ok <reason> to waive)")
				}
			}
		}
	})
}

// sentinelDomains dispatch on errors.Is/As (HTTP status, degraded
// latch, fault-plane tests), so their errors must stay wrapped.
var sentinelDomains = []string{"internal/service", "internal/persist", "internal/store", "internal/ann", "internal/core", "internal/httpapi"}

// sentinelWrap requires %w for an error passed to fmt.Errorf in
// sentinelDomains, and forbids passing err.Error() at all. Only constant
// format strings without explicit argument indexes are checked.
func sentinelWrap(p *rulePass) {
	if !p.in(sentinelDomains...) {
		return
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	isError := func(e ast.Expr) bool {
		t := p.info.TypeOf(e)
		return t != nil && types.Implements(t, errIface)
	}
	walk(p, func(call *ast.CallExpr, _ []ast.Node) {
		fn := staticCallee(p.info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 || call.Ellipsis.IsValid() {
			return
		}
		for _, arg := range call.Args[1:] {
			if c, ok := arg.(*ast.CallExpr); ok {
				if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" && len(c.Args) == 0 && isError(sel.X) {
					p.reportf(arg.Pos(), "fmt.Errorf argument %s.Error() stringifies the error; pass the error itself with %%w so errors.Is/As see the chain (//fbvet:ok <reason> to waive)", exprString(sel.X))
				}
			}
		}
		tv, ok := p.info.Types[call.Args[0]]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return
		}
		verbs, ok := formatVerbs(constant.StringVal(tv.Value))
		if !ok {
			return
		}
		for i, v := range verbs {
			if i < len(call.Args)-1 && v != 'w' && isError(call.Args[1+i]) {
				p.reportf(call.Args[1+i].Pos(), "error %s formatted with %%%c; use %%w so errors.Is/As see the chain (//fbvet:ok <reason> to waive)", exprString(call.Args[1+i]), v)
			}
		}
	})
}

// formatVerbs returns, in argument order, the verb that consumes each
// argument of a format string; a '*' width or precision appears as '*'.
// ok is false for explicit argument indexes, which it does not model.
func formatVerbs(format string) (verbs []rune, ok bool) {
	rs := []rune(format)
	digitsOrStar := func(i int) int {
		for ; i < len(rs) && (rs[i] == '*' || (rs[i] >= '0' && rs[i] <= '9')); i++ {
			if rs[i] == '*' {
				verbs = append(verbs, '*')
			}
		}
		return i
	}
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		if i++; i >= len(rs) || rs[i] == '%' {
			continue
		}
		for i < len(rs) && strings.ContainsRune("#+- 0", rs[i]) {
			i++
		}
		i = digitsOrStar(i)
		if i < len(rs) && rs[i] == '.' {
			i = digitsOrStar(i + 1)
		}
		if i >= len(rs) {
			break
		}
		if rs[i] == '[' {
			return nil, false
		}
		verbs = append(verbs, rs[i])
	}
	return verbs, true
}

// lockIONames promise blocking file I/O on every I/O-bearing type in
// the module; the read path holds none whose Sync or Flush is benign.
var lockIONames = map[string]bool{"Sync": true, "SyncDir": true, "Fsync": true, "Flush": true, "Truncate": true}

// A mutexOp is one Lock-family call on a sync mutex.
type mutexOp struct {
	key      string // the receiver, e.g. "db.mu"
	name     string // Lock, Unlock, RLock, RUnlock, TryLock, TryRLock
	deferred bool
}

// lockDiscipline, repo-wide, keeps RLock regions free of file I/O and
// channel sends, and requires each function that takes a lock to
// release it with the matching kind. Exclusive Lock regions are not
// policed for I/O: the WAL fsyncs under the exclusive tree lock by
// design. It is an intra-function, same-block heuristic; a lock split
// across helper functions carries a waiver.
func lockDiscipline(p *rulePass) {
	walk(p, func(fd *ast.FuncDecl, _ []ast.Node) {
		if fd.Body != nil {
			checkLockPairing(p, fd)
		}
	})
	walk(p, func(n ast.Node, _ []ast.Node) {
		switch n := n.(type) {
		case *ast.BlockStmt:
			checkRLockRegion(p, n.List)
		case *ast.CaseClause:
			checkRLockRegion(p, n.Body)
		case *ast.CommClause:
			checkRLockRegion(p, n.Body)
		}
	})
}

// syncMutexOp resolves call to a sync.Mutex or sync.RWMutex method.
func syncMutexOp(info *types.Info, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return mutexOp{key: exprString(sel.X), name: fn.Name()}, true
	}
	return mutexOp{}, false
}

// checkLockPairing requires, per mutex, that a lock taken anywhere in fd
// is released somewhere in fd with the matching kind.
func checkLockPairing(p *rulePass, fd *ast.FuncDecl) {
	type tally struct {
		lock, unlock, rlock, runlock int
		firstLock, firstRLock        ast.Node
	}
	tallies := map[string]*tally{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := syncMutexOp(p.info, call)
		if !ok {
			return true
		}
		t := tallies[op.key]
		if t == nil {
			t = &tally{}
			tallies[op.key] = t
		}
		switch op.name {
		case "Lock":
			if t.lock++; t.firstLock == nil {
				t.firstLock = call
			}
		case "Unlock":
			t.unlock++
		case "RLock":
			if t.rlock++; t.firstRLock == nil {
				t.firstRLock = call
			}
		case "RUnlock":
			t.runlock++
		}
		return true
	})
	for key, t := range tallies {
		if t.lock > 0 && t.unlock == 0 {
			if t.runlock > 0 && t.rlock == 0 {
				p.reportf(t.firstLock.Pos(), "%s.Lock() released with RUnlock — a write lock released as a read lock corrupts the mutex state", key)
			} else {
				p.reportf(t.firstLock.Pos(), "%s.Lock() has no matching Unlock in this function; if the pair is split across functions, waive with //fbvet:ok <reason>", key)
			}
		}
		if t.rlock > 0 && t.runlock == 0 {
			if t.unlock > 0 && t.lock == 0 {
				p.reportf(t.firstRLock.Pos(), "%s.RLock() released with Unlock — an RLock released with Unlock corrupts the RWMutex state", key)
			} else {
				p.reportf(t.firstRLock.Pos(), "%s.RLock() has no matching RUnlock in this function; if the pair is split across functions, waive with //fbvet:ok <reason>", key)
			}
		}
	}
}

// checkRLockRegion scans one statement list for read-locked regions and
// reports blocking operations inside them. A region opens at a statement
// `k.RLock()` and closes at `k.RUnlock()`; a `defer k.RUnlock()` keeps
// it open to the end of the list.
func checkRLockRegion(p *rulePass, stmts []ast.Stmt) {
	held := map[string]bool{}
	for _, s := range stmts {
		var op mutexOp
		var ok bool
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, isCall := s.X.(*ast.CallExpr); isCall {
				op, ok = syncMutexOp(p.info, call)
			}
		case *ast.DeferStmt:
			op, ok = syncMutexOp(p.info, s.Call)
			op.deferred = true
		}
		if ok && op.name == "RLock" {
			held[op.key] = true
			continue
		}
		if ok && op.name == "RUnlock" {
			if !op.deferred {
				delete(held, op.key)
			}
			continue
		}
		if len(held) > 0 {
			reportBlockingOps(p, s)
		}
	}
}

// reportBlockingOps flags channel sends and file I/O in one statement
// of a read-locked region. Function literals and defers are skipped: they
// do not run under the region's lock.
func reportBlockingOps(p *rulePass, s ast.Stmt) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			p.reportf(n.Pos(), "channel send while holding an RLock can block every reader; move the send outside the read-locked region (//fbvet:ok <reason> to waive)")
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn := staticCallee(p.info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
				p.reportf(n.Pos(), "os.%s while holding an RLock blocks every reader on disk latency; move the I/O outside the read-locked region (//fbvet:ok <reason> to waive)", fn.Name())
			} else if lockIONames[sel.Sel.Name] {
				p.reportf(n.Pos(), "%s() while holding an RLock blocks every reader on disk latency; move the I/O outside the read-locked region (//fbvet:ok <reason> to waive)", exprString(sel))
			}
		}
		return true
	})
}

// errGateNames, on every I/O-bearing type in the module (os.File,
// persist.File, persist.FS, *core.DurableBypass, json.Encoder,
// http.Server, ...), return an error worth looking at.
var errGateNames = map[string]bool{
	"Close": true, "Sync": true, "SyncDir": true, "Flush": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Truncate": true,
	"Setenv": true, "Shutdown": true, "Encode": true, "Compact": true,
}

// errGate, repo-wide, forbids a bare statement calling one of
// errGateNames when the call returns an error: a Sync whose failure
// nobody sees is a durability lie. Discards are spelled `_ = f.Close()`;
// defer and go statements are out of scope.
func errGate(p *rulePass) {
	walk(p, func(stmt *ast.ExprStmt, _ []ast.Node) {
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !errGateNames[sel.Sel.Name] || !returnsError(p.info, call) {
			return
		}
		callee := exprString(sel)
		p.reportf(stmt.Pos(), "result of %s() is discarded; use `_ = %s()` or add //fbvet:ok <reason>", callee, callee)
	})
}

// returnsError reports whether any result of the call is an error; an
// unresolved callee counts as returning one.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	if t == nil {
		return true
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// A ruleCase is one fixture: src is type-checked as the only file of a
// package at path, and the rules must report exactly want, each finding
// written "line: message prefix".
type ruleCase struct {
	name, path, src string
	want            []string
}

func (c ruleCase) check(t *testing.T, fset *token.FileSet, std types.Importer) {
	f, err := parser.ParseFile(fset, c.name+".go", c.src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: std}
	if _, err := conf.Check(c.path, fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	r := newRuleRun(fset)
	r.check(c.path, []*ast.File{f}, info)
	var got []string
	for _, d := range r.findings() {
		got = append(got, fmt.Sprintf("%d: %s", d.pos.Line, d.msg))
	}
	matched := make([]bool, len(got))
	for _, w := range c.want {
		i := 0
		for i < len(got) && (matched[i] || !strings.HasPrefix(got[i], w)) {
			i++
		}
		if i == len(got) {
			t.Errorf("want finding %q, got none", w)
			continue
		}
		matched[i] = true
	}
	for i, g := range got {
		if !matched[i] {
			t.Errorf("unexpected finding %s", g)
		}
	}
}

// ruleCases give each rule its violations, an out-of-scope package where
// it has one, clean shapes and both waiver spellings.
var ruleCases = []ruleCase{
	{name: "fsseam", path: "fixture/internal/persist", src: `package persist

import "os"

type FS interface{ Rename(oldpath, newpath string) error }

func direct(path string) error {
	return os.Rename(path, path+".new")
}

func directCreate(path string) (*os.File, error) {
	return os.Create(path)
}

func waivedTrailing(path string) error {
	return os.Remove(path) //fbvet:ok fixture: cleanup outside the crash schedules
}

func waivedPreceding(path string) (*os.File, error) {
	//fbvet:ok fixture: read-only open outside the crash schedules
	return os.Open(path)
}

// routed is the sanctioned shape.
func routed(fs FS, oldpath, newpath string) error { return fs.Rename(oldpath, newpath) }

// osFS mirrors the seam's production bottom; its methods are exempt.
type osFS struct{}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (*osFS) Remove(name string) error             { return os.Remove(name) }
`, want: []string{
		"8: direct os.Rename bypasses the persist.FS seam",
		"12: direct os.Create bypasses the persist.FS seam",
	}},
	{name: "fsseam-out-of-scope", path: "fixture/internal/other", src: `package other

import "os"

func free(path string) error { return os.Remove(path) }
`},
	{name: "kernelpurity", path: "fixture/internal/vec", src: `package vec

import (
	"math"
	"math/rand"
	"time"
)

func fused(a, b, c float64) float64 { return math.FMA(a, b, c) }

func unfused(a, b, c float64) float64 { return a*b + c }

func seed() int64 { return time.Now().UnixNano() }

func draw() float64 { return rand.Float64() }

func mapOrdered(m map[int]float64) (s float64) {
	for _, v := range m {
		s += v
	}
	return s
}

func sliceOrdered(xs []float64) (s float64) {
	for _, v := range xs {
		s += v
	}
	return s
}

func waivedClock() time.Time {
	return time.Now() //fbvet:ok fixture: wall clock feeds a log line, not a kernel result
}

// timedSection is internal/ann's instrumentation shape: a nil-guarded,
// waived clock read that feeds only a latency histogram.
func timedSection(observe func(time.Time)) float64 {
	var t0 time.Time
	if observe != nil {
		t0 = time.Now() //fbvet:ok fixture: latency histogram observation, no effect on kernel output
	}
	out := unfused(1, 2, 3)
	if observe != nil {
		observe(t0)
	}
	return out
}
`, want: []string{
		"5: import math/rand is forbidden in kernel packages",
		"9: math.FMA is forbidden in kernel packages",
		"13: time.Now is forbidden in kernel packages",
		"18: map iteration order is nondeterministic",
	}},
	{name: "kernelpurity-out-of-scope", path: "fixture/internal/experiments", src: `package experiments

import "time"

func stamp(m map[string]int) (time.Time, int) {
	var n int
	for _, v := range m {
		n += v
	}
	return time.Now(), n
}
`},
	{name: "sentinelwrap", path: "fixture/internal/store", src: `package store

import (
	"errors"
	"fmt"
)

var ErrCorrupt = errors.New("store: corrupt")

func flattened(err error) error { return fmt.Errorf("parse failed: %v", err) }

func flattenedString(err error) error { return fmt.Errorf("parse failed: %s", err) }

func stringified(err error) error { return fmt.Errorf("parse failed: %s", err.Error()) }

func wrapped(err error) error { return fmt.Errorf("%w: parse failed: %w", ErrCorrupt, err) }

func noErrorOperand(n, dim int) error { return fmt.Errorf("bad shape %dx%d", n, dim) }

func widthArgs(pad int, err error) error { return fmt.Errorf("%*d uses: %w", pad, pad, err) }

// Explicit argument indexes are outside the rule's model.
func explicitIndex(err error) error { return fmt.Errorf("%[1]v", err) }

func waived(err error) error {
	return fmt.Errorf("cause: %v", err) //fbvet:ok fixture: message deliberately flattens an untrusted error
}
`, want: []string{
		"10: error err formatted with %v; use %w",
		"12: error err formatted with %s; use %w",
		"14: fmt.Errorf argument err.Error() stringifies the error",
	}},
	{name: "sentinelwrap-out-of-scope", path: "fixture/internal/experiments", src: `package experiments

import "fmt"

func report(err error) error { return fmt.Errorf("figure failed: %v", err) }
`},
	{name: "lockdiscipline", path: "fixture/internal/service", src: `package service

import (
	"os"
	"sync"
)

type guarded struct {
	mu   sync.RWMutex
	file interface{ Sync() error }
	ch   chan int
	n    int
}

func (g *guarded) leakedLock() {
	g.mu.Lock()
	g.n++
}

func (g *guarded) mismatchedKind() int {
	g.mu.RLock()
	defer g.mu.Unlock()
	return g.n
}

func (g *guarded) ioUnderReadLock() error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.file.Sync()
}

func (g *guarded) osCallUnderReadLock(path string) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return os.Remove(path)
}

func (g *guarded) sendUnderReadLock(v int) {
	g.mu.RLock()
	g.ch <- v
	g.mu.RUnlock()
}

func (g *guarded) sendAfterRelease(v int) {
	g.mu.RLock()
	n := g.n
	g.mu.RUnlock()
	g.ch <- n + v
}

// ioUnderWriteLock is the write-ahead design: fsync under the exclusive
// lock is deliberate and not policed.
func (g *guarded) ioUnderWriteLock() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.file.Sync()
}

func (g *guarded) goroutineBodyNotHeld() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	go func() { g.ch <- 1 }()
}

func (g *guarded) lockHelper() {
	g.mu.Lock() //fbvet:ok fixture: released by unlockHelper
}

func (g *guarded) unlockHelper() { g.mu.Unlock() }
`, want: []string{
		"16: g.mu.Lock() has no matching Unlock",
		"21: g.mu.RLock() released with Unlock",
		"29: g.file.Sync() while holding an RLock",
		"35: os.Remove while holding an RLock",
		"40: channel send while holding an RLock",
	}},
	{name: "errgate", path: "fixture/cmd/gate", src: `package gate

import (
	"encoding/json"
	"io"
	"os"
)

func bare(f *os.File) { f.Close() }

func bareEncode(w io.Writer, v any) { json.NewEncoder(w).Encode(v) }

func waived(f *os.File) {
	//fbvet:ok fixture: preceding-line waiver
	f.Close()
}

func explicitDiscard(f *os.File) { _ = f.Close() }

func deferredOutOfScope(f *os.File) { defer f.Close() }

// errorlessClose matches by name, but its call returns no error.
func errorlessClose(c interface{ Close() }) { c.Close() }
`, want: []string{
		"9: result of f.Close() is discarded",
		"11: result of (...).Encode() is discarded",
	}},
	// The two regressions the rules exist to stop, a clean persistence
	// package, and waivers of two rules in one package.
	{name: "reintroduced-rename", path: "smoke/internal/persist", src: `package persist

import "os"

func Commit(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
`, want: []string{"5: direct os.Rename bypasses the persist.FS seam"}},
	{name: "reintroduced-fma", path: "smoke/internal/vec", src: `package vec

import "math"

func Dot(a, b, acc float64) float64 { return math.FMA(a, b, acc) }
`, want: []string{"5: math.FMA is forbidden in kernel packages"}},
	{name: "clean", path: "smoke/internal/persist", src: `package persist

type FS interface{ Rename(oldpath, newpath string) error }

func Commit(fs FS, oldpath, newpath string) error { return fs.Rename(oldpath, newpath) }
`},
	{name: "waivers", path: "smoke/internal/persist", src: `package persist

import "os"

func Sweep(path string) error {
	return os.Remove(path) //fbvet:ok smoke: deliberate bypass under test
}

func Drop(f *os.File) {
	//fbvet:ok smoke: deliberate discard under test
	f.Close()
}
`},
	{name: "stale-waiver", path: "smoke/internal/persist", src: `package persist

func Clean() int {
	return 1 //fbvet:ok nothing here to waive
}
`, want: []string{"4: waiver silences no finding"}},
}
