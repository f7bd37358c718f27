package persist_test

// Fault-injected coverage for the WAL Append error paths — the
// rollback-truncate and broken-log guard were dead code under ordinary
// tests because only a real I/O failure can reach them. faultfs lives
// above persist in the import graph, so these tests drive the exported
// surface from an external test package.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/persist"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

const faultDim, faultOQP = 2, 3

func faultTree(t *testing.T) *simplextree.Tree {
	t.Helper()
	tree, err := simplextree.New(faultDim, vec.Zeros(faultOQP), simplextree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func openFaultWAL(t *testing.T, fs *faultfs.FS) (*persist.WAL, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.fbwl")
	w, err := persist.CreateWAL(fs, path, faultTree(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

// faultPoint is the ith journaled query point: distinct, inside the
// domain, so replay stores every one.
func faultPoint(i int) []float64 { return []float64{0.05 + 0.03*float64(i), 0.1} }

func appendN(t *testing.T, w *persist.WAL, n int) {
	t.Helper()
	for i := w.Records(); n > 0; i, n = i+1, n-1 {
		if err := w.Append(faultPoint(i), []float64{1, 2, 3}, uint64(i+1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

// replayCount loads the log at path and counts the journal records it
// replayed (each one stores a point).
func replayCount(t *testing.T, path string) int {
	t.Helper()
	tree, err := persist.LoadFile(path)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return tree.Stats().Points
}

// TestAppendRollbackShortWrite: a torn append (half the record reaches
// disk) must roll the log back to the last record boundary, leaving it
// open for business — the next append lands where the torn one was, and
// replay never sees the tear.
func TestAppendRollbackShortWrite(t *testing.T) {
	fs := faultfs.New(nil)
	w, path := openFaultWAL(t, fs)
	appendN(t, w, 2)
	sizeBefore := w.Size()

	// Rule counts start when the rule is armed: tear the very next write.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Nth: 1, Kind: faultfs.ShortWrite})
	err := w.Append(faultPoint(9), []float64{9, 9, 9}, 99)
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn append = %v, want ErrInjected", err)
	}
	if w.Records() != 2 || w.Size() != sizeBefore {
		t.Fatalf("after rollback: records=%d size=%d, want 2 records at size %d", w.Records(), w.Size(), sizeBefore)
	}

	appendN(t, w, 1)
	if got := replayCount(t, path); got != 3 {
		t.Fatalf("replay saw %d records, want 3 (2 before the tear + 1 after)", got)
	}
}

// TestAppendRollbackFsyncFailure: with per-append fsync, a record whose
// write landed but whose fsync failed must NOT be acknowledged — Append
// rolls the fully-written record back out so the log holds exactly the
// acknowledged set.
func TestAppendRollbackFsyncFailure(t *testing.T) {
	fs := faultfs.New(nil)
	w, path := openFaultWAL(t, fs)
	w.SetSyncOnAppend(true)
	appendN(t, w, 1)

	fs.AddRule(faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Kind: faultfs.Fail})
	err := w.Append(faultPoint(9), []float64{9, 9, 9}, 99)
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("failed-fsync append = %v, want ErrInjected", err)
	}
	if w.Records() != 1 {
		t.Fatalf("records = %d after failed fsync, want 1", w.Records())
	}
	if got := replayCount(t, path); got != 1 {
		t.Fatalf("replay saw %d records, want only the acknowledged 1", got)
	}

	appendN(t, w, 1)
	if got := replayCount(t, path); got != 2 {
		t.Fatalf("replay saw %d records after recovery append, want 2", got)
	}
}

// TestAppendENOSPC: out-of-space behaves like any failed write — rolled
// back, typed, and non-fatal to the log.
func TestAppendENOSPC(t *testing.T) {
	fs := faultfs.New(nil)
	w, path := openFaultWAL(t, fs)
	appendN(t, w, 1)

	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Nth: 1, Kind: faultfs.ENOSPC})
	err := w.Append(faultPoint(9), []float64{9, 9, 9}, 99)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC append = %v, want syscall.ENOSPC", err)
	}
	appendN(t, w, 1)
	if got := replayCount(t, path); got != 2 {
		t.Fatalf("replay saw %d records, want 2", got)
	}
}

// TestBrokenLogGuard: when the rollback truncate itself fails the tail
// is in an unknown state, and the WAL must refuse every further append
// (appending past torn bytes would corrupt the whole log) until a Reset
// commits a fresh one.
func TestBrokenLogGuard(t *testing.T) {
	fs := faultfs.New(nil)
	w, path := openFaultWAL(t, fs)
	appendN(t, w, 2)

	// Tear the next append AND fail its rollback truncate.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Nth: 1, Kind: faultfs.ShortWrite})
	fs.AddRule(faultfs.Rule{Op: faultfs.OpTruncate, Nth: 1, Kind: faultfs.Fail})
	err := w.Append(faultPoint(9), []float64{9, 9, 9}, 99)
	if err == nil {
		t.Fatal("append with failed rollback reported success")
	}

	// The guard: every further append refuses without touching the disk.
	opsBefore := fs.Ops()
	err2 := w.Append(faultPoint(8), []float64{8, 8, 8}, 100)
	if err2 == nil {
		t.Fatal("append on a broken log reported success")
	}
	if fs.Ops() != opsBefore {
		t.Fatalf("broken-log append touched the disk (%d ops, was %d)", fs.Ops(), opsBefore)
	}

	// Reset commits a fresh log, clearing the guard.
	if err := w.Reset(faultTree(t)); err != nil {
		t.Fatalf("reset: %v", err)
	}
	appendN(t, w, 1)
	if got := replayCount(t, path); got != 1 {
		t.Fatalf("replay saw %d records after reset, want 1", got)
	}
}

// savedImage commits a trained tree to a file and returns its path and
// bytes: the previous file a failed save must leave alone.
func savedImage(t *testing.T) (string, []byte) {
	t.Helper()
	tree := faultTree(t)
	for i := 0; i < 4; i++ {
		if _, err := tree.Insert(faultPoint(i), []float64{float64(i), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "tree.fbwl")
	if err := persist.SaveFile(path, tree); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, img
}

// assertUntouched: the file at path still holds img, loads, and has no
// temporary file beside it.
func assertUntouched(t *testing.T, path string, img []byte) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("the previous file changed: %d bytes, was %d", len(got), len(img))
	}
	if _, err := persist.LoadFile(path); err != nil {
		t.Fatalf("the previous file no longer loads: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed save left its temporary file: %v", err)
	}
}

// TestSaveFileNilKeepsPrevious: saving a nil tree over an existing file
// fails before touching it.
func TestSaveFileNilKeepsPrevious(t *testing.T) {
	path, img := savedImage(t)
	if err := persist.SaveFile(path, nil); err == nil {
		t.Fatal("saving a nil tree succeeded")
	}
	assertUntouched(t, path, img)
}

// TestSaveFileFaultKeepsPrevious: a save whose write is torn or runs out
// of space fails and leaves the previous file byte-identical.
func TestSaveFileFaultKeepsPrevious(t *testing.T) {
	for _, kind := range []faultfs.Kind{faultfs.ShortWrite, faultfs.ENOSPC} {
		path, img := savedImage(t)
		fs := faultfs.New(nil)
		fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Nth: 1, Kind: kind})
		tree := faultTree(t)
		if _, err := tree.Insert(faultPoint(7), []float64{7, 7, 7}); err != nil {
			t.Fatal(err)
		}
		if err := persist.SaveFileFS(fs, path, tree); err == nil {
			t.Fatalf("fault %d: the save succeeded", kind)
		}
		assertUntouched(t, path, img)
	}
}
