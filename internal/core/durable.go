package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/simplextree"
)

// Durable file names inside the module directory. JournalFile is the
// module's one tree file: a census of the tree, then the journal of the
// inserts accepted since. SnapshotFile names the snapshot of the retired
// two-file format and manifestFile the manifest of the retired
// hash-sharded layout; a directory holding either is refused, not
// migrated.
const (
	SnapshotFile = "tree.fbsx"
	JournalFile  = "tree.fbwl"
	manifestFile = "MANIFEST"
)

// ErrDegraded marks a module that has flipped to read-only serving after
// a persistence failure (failed journal append, failed compaction).
// Predictions keep working from the in-memory tree; inserts are rejected
// with an error satisfying errors.Is(err, ErrDegraded) — joined with the
// root cause, so errors.Is against the underlying failure also holds.
// The flip is sticky: the module stays read-only until it is closed and
// reopened against a healthy disk.
var ErrDegraded = errors.New("core: module degraded to read-only after persistence failure")

// DurableOptions tunes the persistence behaviour of a DurableBypass.
type DurableOptions struct {
	// CompactEvery triggers an automatic compaction (a fresh log whose
	// census is the current tree) once this many inserts have been
	// journaled since the last one. Zero disables automatic compaction;
	// call Compact.
	CompactEvery int
	// Sync forces an fsync after every journal append. Without it an
	// acknowledged insert survives a process kill (the append is an
	// unbuffered write) but not necessarily a power loss.
	Sync bool
	// FS routes every filesystem operation (journal, compaction,
	// directory fsyncs) through the given seam. Nil means the real
	// filesystem; the fault-injection plane (internal/faultfs)
	// substitutes scripted failures here.
	FS persist.FS
	// Obs, when non-nil, registers persistence instruments (WAL append
	// and fsync latency, compaction duration) in the given registry, each
	// carrying ObsLabels. Nil disables instrumentation: every instrument
	// is then nil, and observing a nil instrument does nothing.
	Obs *obsv.Registry
	// ObsLabels are attached to every instrument this module registers
	// (typically the collection name).
	ObsLabels []obsv.Label
}

// DurableBypass is a Bypass whose learned mapping survives crashes. Its
// directory holds one file, JournalFile: a census of the tree followed
// by the journal of accepted inserts, each journaled before the tree
// mutates. Opening the module rebuilds the census and replays the
// journal. Compaction commits a fresh log whose census is the current
// tree (temporary file, fsync, rename, directory fsync), which keeps
// recovery proportional to the tree's size, not the module's lifetime;
// a crash before the rename leaves the old log whole.
//
// Reads (Predict, PredictWithStats, Stats, ...) and writes (Insert,
// CompactAged) are the embedded Bypass's: this layer adds the journal
// they write through, the degraded latch, CompactEvery and Compact/Close.
// Every write serializes on the Bypass's one write mutex, so no
// acknowledged insert can fall between a census and the journal that
// follows it.
type DurableBypass struct {
	*Bypass

	wal   *persist.WAL // its record count is the inserts journaled since the last compaction
	opts  DurableOptions
	snapH *obsv.Histogram // compaction duration; nil without DurableOptions.Obs
}

// ModuleFile returns the path of the first file of a module's state in
// dir — its log, or a file of a retired layout (a two-file snapshot, a
// sharded manifest), which OpenDurable refuses by name instead of
// starting an empty module beside it — or "" when dir holds none.
func ModuleFile(fsys persist.FS, dir string) string {
	for _, name := range []string{JournalFile, SnapshotFile, manifestFile} {
		path := filepath.Join(dir, name)
		if _, err := persist.OrOS(fsys).Stat(path); err == nil {
			return path
		}
	}
	return ""
}

// RefuseRetired returns an error naming the file if dir holds a file of
// a retired layout: a two-file snapshot or a sharded manifest. OpenDurable
// calls it before it reads anything, and a caller with costly work to do
// before the module opens calls it before that work.
func RefuseRetired(fsys persist.FS, dir string) error {
	fsys = persist.OrOS(fsys)
	old := filepath.Join(dir, SnapshotFile)
	if _, err := fsys.Stat(old); err == nil {
		return fmt.Errorf("core: %s is a snapshot of the retired two-file format, which this version does not read", old)
	}
	manifest := filepath.Join(dir, manifestFile)
	if _, err := fsys.Stat(manifest); err == nil {
		return fmt.Errorf("core: %s is the manifest of a hash-sharded module, a layout this version does not read; "+
			"to keep shard 0's learned state, move %s to %s, then delete %s",
			manifest, filepath.Join(dir, "shard-000", JournalFile), filepath.Join(dir, JournalFile), manifest)
	}
	return nil
}

// OpenDurable opens (or initializes) a durable FeedbackBypass module
// rooted at dir, creating the directory if needed. A module with a log
// recovers from it alone — census, then journal replay — and cfg
// supplies only the serving policy (quotas, aging horizon); a module
// without one starts fresh from cfg and commits its first log before
// returning.
func OpenDurable(dir string, d, p int, cfg Config, opts DurableOptions) (*DurableBypass, error) {
	if opts.CompactEvery < 0 {
		return nil, fmt.Errorf("core: negative CompactEvery %d", opts.CompactEvery)
	}
	fsys := persist.OrOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := RefuseRetired(fsys, dir); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, JournalFile)
	wal, tree, err := persist.OpenWAL(fsys, path)
	if errors.Is(err, os.ErrNotExist) {
		var fresh *Bypass
		if fresh, err = New(d, p, cfg); err != nil {
			return nil, err
		}
		tree = fresh.Tree()
		wal, err = persist.CreateWAL(fsys, path, tree)
	}
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", path, err)
	}
	b, err := FromTree(tree, p)
	if err == nil && b.D() != d {
		err = fmt.Errorf("core: %s is for D=%d, want %d", path, b.D(), d)
	}
	if err != nil {
		_ = wal.Close()
		return nil, err
	}
	// Recovery done; from here on cfg's quota binds new inserts (replay
	// never refuses an insert the module already acknowledged). A tree
	// already past a lowered bound serves reads and rejects growth. The
	// aging horizon is serving policy, not persisted state, too.
	tree.SetQuota(cfg.MaxVertices)
	tree.SetAgeHorizon(cfg.AgeHorizon)
	db := &DurableBypass{Bypass: b, wal: wal, opts: opts}
	b.dur = db
	b.Observe(opts.Obs, opts.ObsLabels...)
	opts.Obs.GaugeFunc("fb_wal_bytes", "Tree log on-disk size, census and journal (recovery debt).", func() float64 { return float64(db.WALSize()) }, opts.ObsLabels...)
	wal.SetMetrics(
		opts.Obs.Histogram("fb_wal_append_seconds", "WAL append latency (encode + write + any per-append fsync).", obsv.LatencyBounds(), opts.ObsLabels...),
		opts.Obs.Histogram("fb_wal_fsync_seconds", "WAL fsync latency.", obsv.LatencyBounds(), opts.ObsLabels...),
	)
	db.snapH = opts.Obs.Histogram("fb_snapshot_seconds", "Compaction duration (census write + fsync + rename + directory fsync).", obsv.LatencyBounds(), opts.ObsLabels...)
	// Journal every accepted insert before the tree mutates (the
	// observer runs under the tree's exclusive lock, after the insert is
	// certain to succeed). Append is all-or-nothing — a failed write or
	// fsync rolls the log back to the last record boundary — so an
	// aborted insert leaves journal and tree consistent with each other.
	// A failed append is a persistence failure and flips the module to
	// read-only degraded mode; client-side errors (dimension mismatch,
	// out-of-domain queries, quota) never reach this hook.
	wal.SetSyncOnAppend(opts.Sync)
	db.attachObserver(tree)
	return db, nil
}

// attachObserver wires the journaling hook to tree. An aged compaction
// re-wires it onto the rebuilt tree it swaps in (adoptLocked).
func (db *DurableBypass) attachObserver(tree *simplextree.Tree) {
	tree.SetObserver(func(q, value []float64, stamp uint64) error {
		if err := db.wal.Append(q, value, stamp); err != nil {
			db.noteDegraded(err)
			return err
		}
		return nil
	})
}

// Journaled reports the number of inserts journaled since the last
// compaction (including those replayed at open).
func (db *DurableBypass) Journaled() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.wal.Records()
}

// WALSize reports the log's on-disk size in bytes, census and journal:
// the recovery debt a restart pays.
func (db *DurableBypass) WALSize() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.wal.Size()
}

// Compact commits a fresh log whose census is the current tree: the
// journal starts empty, and recovery replays the census alone.
func (db *DurableBypass) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.Degraded(); err != nil {
		return err
	}
	return db.compactLocked()
}

func (db *DurableBypass) maybeCompactLocked() error {
	if db.opts.CompactEvery <= 0 || db.wal.Records() < db.opts.CompactEvery {
		return nil
	}
	return db.compactLocked()
}

// compactLocked runs one compaction; a failure is a persistence failure
// and flips the module to read-only degraded mode.
func (db *DurableBypass) compactLocked() error {
	t0 := time.Now()
	if err := db.wal.Reset(db.Tree()); err != nil {
		db.noteDegraded(err)
		return db.Degraded()
	}
	db.snapH.ObserveSince(t0)
	return nil
}

// adoptLocked makes the rebuilt tree of an aged compaction the module's
// durable state before the swap publishes it: until then predictions and
// the log both come from old, so a crash recovers either census. A
// persistence failure latches the module degraded. The journaling hook
// moves from old to nt, so late holders of the retired tree cannot
// journal.
func (db *DurableBypass) adoptLocked(old, nt *simplextree.Tree) error {
	if err := db.wal.Reset(nt); err != nil {
		db.noteDegraded(err)
		return db.Degraded()
	}
	db.attachObserver(nt)
	old.SetObserver(nil)
	return nil
}

// Close flushes and closes the journal. The module must not be used
// afterwards; reopen with OpenDurable.
func (db *DurableBypass) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.Tree().SetObserver(nil)
	if err := db.wal.Sync(); err != nil {
		_ = db.wal.Close()
		return err
	}
	return db.wal.Close()
}
