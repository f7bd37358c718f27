// Package lockdiscipline polices the repo's lock-domain rules around
// sync.Mutex / sync.RWMutex:
//
//  1. Read-domain purity. The read path (Predict, cache lookups, stats)
//     is specified to be a pure RLock region — blocking I/O or a
//     channel send while holding a read lock stalls every reader and
//     inverts the "reads stay live in degraded mode" guarantee. Between
//     an RLock and its RUnlock (or to the end of the block after a
//     `defer RUnlock`), calls named Sync/SyncDir/Fsync/Flush/Truncate,
//     any direct os filesystem call, and channel sends are forbidden.
//     (Exclusive-Lock regions are deliberately NOT policed for I/O: the
//     write-ahead design fsyncs the WAL under the exclusive tree lock.)
//
//  2. Pairing. A function that takes a lock must release it on some
//     path in the same function (directly or via defer), and must
//     release it with the matching method: RLock pairs with RUnlock,
//     Lock with Unlock. Split lock/unlock helper functions carry a
//     //fbvet:ok <reason> waiver on the lock call.
//
// The analysis is an intra-function, same-block heuristic: it does not
// chase locks across function boundaries, which keeps it silent on the
// `fooLocked()` callee convention. _test.go files are exempt.
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"repro/tools/fbvet/analyzers/internal/lint"
	"repro/tools/fbvet/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "enforce RLock-region purity (no file I/O or channel sends under a " +
		"read lock) and Lock/Unlock pairing-and-kind matching within a function",
	Run: run,
}

// ioNames are method names that promise blocking file I/O on every
// I/O-bearing type in this module (persist.File, persist.FS, *os.File,
// *bufio.Writer, *persist.WAL, ...). Name-based on purpose: the read
// path holds no I/O-bearing value whose Sync/Flush is benign.
var ioNames = map[string]bool{
	"Sync":     true,
	"SyncDir":  true,
	"Fsync":    true,
	"Flush":    true,
	"Truncate": true,
}

// mutexOp is one Lock-family call on a sync mutex.
type mutexOp struct {
	key      string // rendered receiver expression, e.g. "db.mu"
	name     string // Lock, Unlock, RLock, RUnlock, TryLock, TryRLock
	deferred bool
}

func run(pass *analysis.Pass) {
	waivers := lint.CollectWaivers(pass)

	analysis.Walk(pass, func(fd *ast.FuncDecl, _ []ast.Node) {
		if fd.Body == nil || lint.InTestFile(pass, fd.Pos()) {
			return
		}
		checkPairing(pass, fd, waivers)
	})

	// Region purity is a per-statement-list property; walk every list.
	analysis.Walk(pass, func(n ast.Node, _ []ast.Node) {
		switch n := n.(type) {
		case *ast.BlockStmt:
			checkRLockRegion(pass, n.List, waivers)
		case *ast.CaseClause:
			checkRLockRegion(pass, n.Body, waivers)
		case *ast.CommClause:
			checkRLockRegion(pass, n.Body, waivers)
		}
	})
}

// syncMutexOp resolves call to a sync.Mutex/sync.RWMutex method and
// returns the op, or ok=false.
func syncMutexOp(info *types.Info, call *ast.CallExpr) (mutexOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexOp{}, false
	}
	fn := analysis.StaticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return mutexOp{}, false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return mutexOp{key: lint.ExprString(sel.X), name: fn.Name()}, true
	}
	return mutexOp{}, false
}

// checkPairing verifies, per mutex key, that locks taken anywhere in fd
// are released somewhere in fd, with the matching release kind.
func checkPairing(pass *analysis.Pass, fd *ast.FuncDecl, waivers *lint.Waivers) {
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
		op, ok := syncMutexOp(pass.TypesInfo, call)
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
			t.lock++
			if t.firstLock == nil {
				t.firstLock = call
			}
		case "Unlock":
			t.unlock++
		case "RLock":
			t.rlock++
			if t.firstRLock == nil {
				t.firstRLock = call
			}
		case "RUnlock":
			t.runlock++
		}
		return true
	})
	for key, t := range tallies {
		if t.lock > 0 && t.unlock == 0 {
			if waivers.Waived(t.firstLock.Pos()) {
				continue
			}
			if t.runlock > 0 && t.rlock == 0 {
				pass.Reportf(t.firstLock.Pos(), "%s.Lock() released with RUnlock — a write lock released as a read lock corrupts the mutex state", key)
			} else {
				pass.Reportf(t.firstLock.Pos(), "%s.Lock() has no matching Unlock in this function; if the pair is split across functions, waive with //fbvet:ok <reason>", key)
			}
		}
		if t.rlock > 0 && t.runlock == 0 {
			if waivers.Waived(t.firstRLock.Pos()) {
				continue
			}
			if t.unlock > 0 && t.lock == 0 {
				pass.Reportf(t.firstRLock.Pos(), "%s.RLock() released with Unlock — an RLock released with Unlock corrupts the RWMutex state", key)
			} else {
				pass.Reportf(t.firstRLock.Pos(), "%s.RLock() has no matching RUnlock in this function; if the pair is split across functions, waive with //fbvet:ok <reason>", key)
			}
		}
	}
}

// checkRLockRegion scans one statement list for read-locked regions and
// reports blocking operations inside them. A region opens at an
// ExprStmt `k.RLock()` and closes at an ExprStmt `k.RUnlock()`; a
// `defer k.RUnlock()` keeps the region open to the end of the list.
func checkRLockRegion(pass *analysis.Pass, stmts []ast.Stmt, waivers *lint.Waivers) {
	if len(stmts) == 0 || lint.InTestFile(pass, stmts[0].Pos()) {
		return
	}
	held := map[string]bool{}
	for _, s := range stmts {
		if op, ok := stmtMutexOp(pass.TypesInfo, s); ok {
			switch op.name {
			case "RLock":
				held[op.key] = true
				continue
			case "RUnlock":
				if !op.deferred { // a deferred RUnlock keeps the region open
					delete(held, op.key)
				}
				continue
			}
		}
		if len(held) == 0 {
			continue
		}
		reportBlockingOps(pass, s, waivers)
	}
}

// stmtMutexOp recognizes `k.Op()` and `defer k.Op()` statements.
func stmtMutexOp(info *types.Info, s ast.Stmt) (mutexOp, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return syncMutexOp(info, call)
		}
	case *ast.DeferStmt:
		op, ok := syncMutexOp(info, s.Call)
		op.deferred = true
		return op, ok
	}
	return mutexOp{}, false
}

// reportBlockingOps walks one statement inside a read-locked region and
// flags channel sends and file I/O. Function literals are skipped: a
// goroutine or callback body does not run under the caller's lock.
func reportBlockingOps(pass *analysis.Pass, s ast.Stmt, waivers *lint.Waivers) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !waivers.Waived(n.Pos()) {
				pass.Reportf(n.Pos(), "channel send while holding an RLock can block every reader; move the send outside the read-locked region (//fbvet:ok <reason> to waive)")
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn := analysis.StaticCallee(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "os" {
				if !waivers.Waived(n.Pos()) {
					pass.Reportf(n.Pos(), "os.%s while holding an RLock blocks every reader on disk latency; move the I/O outside the read-locked region (//fbvet:ok <reason> to waive)", fn.Name())
				}
				return true
			}
			if ioNames[sel.Sel.Name] {
				if !waivers.Waived(n.Pos()) {
					pass.Reportf(n.Pos(), "%s() while holding an RLock blocks every reader on disk latency; move the I/O outside the read-locked region (//fbvet:ok <reason> to waive)", lint.ExprString(sel))
				}
			}
		}
		return true
	})
}
