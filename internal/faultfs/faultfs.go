// Package faultfs is the fault-injection side of the persist.FS seam: a
// filesystem wrapper with scripted failpoints. Tests script it two ways:
//
//   - Rules target a specific operation class — "fail the 2nd fsync of
//     any path containing tree.fbwl", "tear the next write in half",
//     "ENOSPC every write from now on", "kill the process at this
//     rename" — and exercise the error paths of one writer (WAL
//     rollback-truncate, compaction cleanup, degraded-mode flips).
//
//   - SetCrashAt(n) arms a whole-run crash schedule: the nth mutating
//     operation (write, fsync, rename, truncate, remove, mkdir,
//     dir-fsync, writable open) is applied *partially* — a write
//     persists only its first half, a metadata op does not happen — and
//     every later operation fails with ErrCrashed. Combined with a
//     counting run (no crash armed, Ops() reports the total M), a
//     harness enumerates every crash point n = 1..M along
//     insert → WAL-append → compact and asserts recovery.
//
// The crash model is process-kill durability: everything the process
// wrote before the crash point is on disk (the repo's writers use
// unbuffered writes), the crashing operation may be torn, and nothing
// after it happens. Power-loss reordering (surviving an unsynced write's
// *absence*) is strictly harsher and not modeled here; the WAL's
// CRC-per-record format already covers torn tails of either origin.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"syscall"

	"repro/internal/persist"
)

// ErrInjected marks a scripted (rule-based) fault.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed marks every operation at and after an armed crash point —
// the filesystem of a process that no longer exists.
var ErrCrashed = errors.New("faultfs: crashed")

// Op classifies the filesystem operations rules can target.
type Op string

const (
	OpOpen     Op = "open"  // writable OpenFile (O_WRONLY/O_RDWR/O_CREATE/O_TRUNC)
	OpWrite    Op = "write" // File.Write and File.WriteAt
	OpSync     Op = "sync"  // File.Sync
	OpTruncate Op = "truncate"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdir    Op = "mkdir"
	OpSyncDir  Op = "syncdir"
)

// Kind is what happens when a rule fires.
type Kind int

const (
	// Fail returns ErrInjected without touching the disk.
	Fail Kind = iota
	// ENOSPC returns an error satisfying errors.Is(err, syscall.ENOSPC)
	// without touching the disk.
	ENOSPC
	// ShortWrite applies only the first half of the buffer, then returns
	// ErrInjected (non-write operations just fail). The torn bytes stay
	// on disk — exactly what a partial write leaves for recovery.
	ShortWrite
	// Crash fires this rule as a kill point: the operation applies
	// partially (like ShortWrite for writes, not at all otherwise) and
	// every subsequent operation fails with ErrCrashed.
	Crash
)

// Rule is one scripted failpoint.
type Rule struct {
	// Op is the operation class the rule watches.
	Op Op
	// Path, when non-empty, restricts the rule to operations whose path
	// contains it as a substring.
	Path string
	// Nth fires the rule on exactly the Nth matching operation observed
	// after the rule was armed (1-based). Nth <= 0 fires on every
	// matching operation — the disk-went-bad mode.
	Nth int
	// Kind is the fault to inject.
	Kind Kind
}

// FS wraps a real persist.FS with scripted faults. Safe for concurrent
// use (a module's writers and its readers may run in parallel).
type FS struct {
	real persist.FS

	mu      sync.Mutex
	rules   []*ruleState
	ops     int  // mutating operations observed
	crashAt int  // crash on the nth mutating op; 0 = disarmed
	crashed bool // sticky once a crash fired
}

type ruleState struct {
	Rule
	seen int
}

// New wraps real (nil means the real filesystem) with no faults armed.
func New(real persist.FS) *FS {
	return &FS{real: persist.OrOS(real)}
}

// AddRule arms one scripted failpoint. Rules are checked in the order
// they were added; the first one that fires wins.
func (f *FS) AddRule(r Rule) {
	f.mu.Lock()
	f.rules = append(f.rules, &ruleState{Rule: r})
	f.mu.Unlock()
}

// SetCrashAt arms the crash schedule: the nth mutating operation from
// now (1-based) becomes the kill point. n = 0 disarms.
func (f *FS) SetCrashAt(n int) {
	f.mu.Lock()
	f.crashAt = f.ops + n
	if n == 0 {
		f.crashAt = 0
	}
	f.mu.Unlock()
}

// Ops reports the number of mutating operations observed so far — run
// once without a crash armed to learn the schedule length M, then
// enumerate SetCrashAt(1..M) on fresh copies.
func (f *FS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether an armed crash point has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

type verdict int

const (
	vProceed verdict = iota
	vShort           // writes: apply the first half, then report the error
	vFail            // do not touch the disk
)

// before accounts one mutating operation and decides its fate.
func (f *FS) before(op Op, path string) (verdict, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return vFail, ErrCrashed
	}
	f.ops++
	if f.crashAt > 0 && f.ops >= f.crashAt {
		f.crashed = true
		if op == OpWrite {
			return vShort, ErrCrashed
		}
		return vFail, ErrCrashed
	}
	for _, r := range f.rules {
		if r.Op != op || (r.Path != "" && !strings.Contains(path, r.Path)) {
			continue
		}
		r.seen++
		if r.Nth > 0 && r.seen != r.Nth {
			continue
		}
		switch r.Kind {
		case Fail:
			return vFail, ErrInjected
		case ENOSPC:
			return vFail, fmt.Errorf("faultfs: %w", syscall.ENOSPC)
		case ShortWrite:
			if op == OpWrite {
				return vShort, ErrInjected
			}
			return vFail, ErrInjected
		case Crash:
			f.crashed = true
			if op == OpWrite {
				return vShort, ErrCrashed
			}
			return vFail, ErrCrashed
		}
	}
	return vProceed, nil
}

// readGate fails read-side operations only after a crash (a dead
// process reads nothing); rules never target reads.
func (f *FS) readGate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (persist.File, error) {
	writable := flag&(os.O_WRONLY|os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND) != 0
	if writable {
		if v, err := f.before(OpOpen, name); v != vProceed {
			return nil, err
		}
	} else if err := f.readGate(); err != nil {
		return nil, err
	}
	fl, err := f.real.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, f: fl, name: name}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if v, err := f.before(OpRename, newpath); v != vProceed {
		return err
	}
	return f.real.Rename(oldpath, newpath)
}

func (f *FS) Remove(name string) error {
	if v, err := f.before(OpRemove, name); v != vProceed {
		return err
	}
	return f.real.Remove(name)
}

func (f *FS) MkdirAll(path string, perm os.FileMode) error {
	if v, err := f.before(OpMkdir, path); v != vProceed {
		return err
	}
	return f.real.MkdirAll(path, perm)
}

func (f *FS) Stat(name string) (os.FileInfo, error) {
	if err := f.readGate(); err != nil {
		return nil, err
	}
	return f.real.Stat(name)
}

func (f *FS) SyncDir(dir string) error {
	if v, err := f.before(OpSyncDir, dir); v != vProceed {
		return err
	}
	return f.real.SyncDir(dir)
}

// file wraps one open handle, routing its mutating calls through the
// owning FS's fault script.
type file struct {
	fs   *FS
	f    persist.File
	name string
}

func (fl *file) Write(p []byte) (int, error) {
	switch v, err := fl.fs.before(OpWrite, fl.name); v {
	case vFail:
		return 0, err
	case vShort:
		n, _ := fl.f.Write(p[:len(p)/2])
		return n, err
	}
	return fl.f.Write(p)
}

func (fl *file) WriteAt(p []byte, off int64) (int, error) {
	switch v, err := fl.fs.before(OpWrite, fl.name); v {
	case vFail:
		return 0, err
	case vShort:
		n, _ := fl.f.WriteAt(p[:len(p)/2], off)
		return n, err
	}
	return fl.f.WriteAt(p, off)
}

func (fl *file) Sync() error {
	if v, err := fl.fs.before(OpSync, fl.name); v != vProceed {
		return err
	}
	return fl.f.Sync()
}

func (fl *file) Truncate(size int64) error {
	if v, err := fl.fs.before(OpTruncate, fl.name); v != vProceed {
		return err
	}
	return fl.f.Truncate(size)
}

func (fl *file) Read(p []byte) (int, error) {
	if err := fl.fs.readGate(); err != nil {
		return 0, err
	}
	return fl.f.Read(p)
}

func (fl *file) Seek(offset int64, whence int) (int64, error) {
	if err := fl.fs.readGate(); err != nil {
		return 0, err
	}
	return fl.f.Seek(offset, whence)
}

func (fl *file) Stat() (os.FileInfo, error) {
	if err := fl.fs.readGate(); err != nil {
		return nil, err
	}
	return fl.f.Stat()
}

// Close always reaches the real handle: leaking descriptors would make
// crash sweeps (hundreds of opens per test) hit ulimits, and closing a
// dead process's fd is the kernel's job anyway.
func (fl *file) Close() error { return fl.f.Close() }
