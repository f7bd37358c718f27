package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

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

// DurableOptions tunes a module's compaction trigger and its log.
type DurableOptions struct {
	// CompactEvery runs a compaction (see Bypass.Compact) once this many
	// inserts have been accepted since the last one, with or without a
	// log; it is the trigger that ages vertices out. Zero disables
	// automatic compaction; call Compact.
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
	// Obs is the registry the module's instruments join, each carrying
	// ObsLabels: the tree and aged-compaction series, and with a log its
	// append, fsync, size and commit series. Nil gives the module a
	// private registry: its counters still count, for Compactions and
	// Reclaimed, but no exposition shows them.
	Obs *obsv.Registry
	// ObsLabels are attached to every instrument this module registers
	// (typically the collection name).
	ObsLabels []obsv.Label
}

// DurableBypass names Bypass for the HTTP benchmark module (bench/),
// which is built against this package; ROADMAP item 2(d) deletes it.
type DurableBypass = Bypass

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

// OpenDurable opens (or initializes) a FeedbackBypass module rooted at
// dir, creating the directory if needed. Its directory holds one file,
// JournalFile: a census of the tree followed by the journal of accepted
// inserts, each journaled before the tree mutates. A module with a log
// recovers from it alone — census, then journal replay — and cfg
// supplies only the serving policy (quotas, aging horizon); a module
// without one starts fresh from cfg and commits its first log before
// returning. A compaction commits a fresh log whose census is the
// current tree (temporary file, fsync, rename, directory fsync), which
// keeps recovery proportional to the tree's size, not the module's
// lifetime; a crash before the rename leaves the old log whole.
//
// With dir "" the module keeps no log: it starts fresh from cfg, and
// only opts.CompactEvery and opts.Obs apply.
func OpenDurable(dir string, d, p int, cfg Config, opts DurableOptions) (*Bypass, error) {
	if opts.CompactEvery < 0 {
		return nil, fmt.Errorf("core: negative CompactEvery %d", opts.CompactEvery)
	}
	// The serving policy is checked here, before any path, because a
	// recovered tree takes its thresholds from the log, not from
	// simplextree.New's checks. Epsilon must also be one FromCensus
	// accepts, or the log written with it would not reopen.
	if !(cfg.Epsilon >= 0) || math.IsInf(cfg.Epsilon, 1) || cfg.MaxVertices < 0 {
		return nil, fmt.Errorf("core: invalid Epsilon %v or negative MaxVertices %d", cfg.Epsilon, cfg.MaxVertices)
	}
	if dir == "" {
		tree, err := newTree(d, p, cfg)
		if err != nil {
			return nil, err
		}
		return open(tree, nil, p, opts), nil
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
		if tree, err = newTree(d, p, cfg); err != nil {
			return nil, err
		}
		wal, err = persist.CreateWAL(fsys, path, tree)
	}
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", path, err)
	}
	if tree.Dim() != d || tree.OQPDim() != d+p {
		_ = wal.Close()
		return nil, fmt.Errorf("core: %s stores %d-vectors over D=%d, want D+P = %d+%d", path, tree.OQPDim(), tree.Dim(), d, p)
	}
	// Recovery done; from here on cfg's quota binds new inserts (replay
	// never refuses an insert the module already acknowledged). A tree
	// already past a lowered bound serves reads and rejects growth. The
	// aging horizon is serving policy, not persisted state, too.
	tree.SetQuota(cfg.MaxVertices)
	tree.SetAgeHorizon(cfg.AgeHorizon)
	return open(tree, wal, p, opts), nil
}

// open wraps tree, and its log when wal is non-nil, as a module with P
// distance parameters, and registers its series in opts.Obs, or in a
// private registry when that is nil: the tree's size, depth and bytes,
// the aged-compaction series, and with a log its size, append, fsync and
// commit series.
func open(tree *simplextree.Tree, wal *persist.WAL, p int, opts DurableOptions) *Bypass {
	b := &Bypass{d: tree.Dim(), p: p, wal: wal, compactEvery: opts.CompactEvery}
	b.tree.Store(tree)
	reg, labels := opts.Obs, opts.ObsLabels
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	reg.GaugeFunc("fb_tree_points", "Simplex Tree stored points.", func() float64 { return float64(b.Stats().Points) }, labels...)
	reg.GaugeFunc("fb_tree_depth", "Simplex Tree depth.", func() float64 { return float64(b.Stats().Depth) }, labels...)
	reg.GaugeFunc("fb_tree_bytes", "Simplex Tree flat-array capacity in bytes.", func() float64 { return float64(b.Stats().Bytes) }, labels...)
	b.compactionsC = reg.Counter("fb_bypass_compactions_total", "Aged tree compactions (rebuild, log commit when durable, swap) completed.", labels...)
	b.reclaimedC = reg.Counter("fb_bypass_reclaimed_vertices_total", "Vertices reclaimed by aged compactions (aged out or ε-absorbed).", labels...)
	b.compactH = reg.Histogram("fb_bypass_compaction_seconds", "Aged compaction duration (rebuild, log commit when durable, swap).", obsv.LatencyBounds(), labels...)
	b.pointsBefG = reg.Gauge("fb_bypass_compaction_points_before", "Distinct vertices entering the last aged compaction.", labels...)
	b.pointsAftG = reg.Gauge("fb_bypass_compaction_points_after", "Distinct vertices surviving the last aged compaction.", labels...)
	if wal == nil {
		return b
	}
	// The inserts replayed at open count toward the next compaction.
	b.pending = wal.Records()
	reg.GaugeFunc("fb_wal_bytes", "Tree log on-disk size, census and journal (recovery debt).", func() float64 { return float64(b.WALSize()) }, labels...)
	wal.SetMetrics(
		reg.Histogram("fb_wal_append_seconds", "WAL append latency (encode + write + any per-append fsync).", obsv.LatencyBounds(), labels...),
		reg.Histogram("fb_wal_fsync_seconds", "WAL fsync latency.", obsv.LatencyBounds(), labels...),
	)
	b.snapH = reg.Histogram("fb_snapshot_seconds", "Compaction duration (census write + fsync + rename + directory fsync).", obsv.LatencyBounds(), labels...)
	wal.SetSyncOnAppend(opts.Sync)
	b.attachObserver(tree)
	return b
}

// attachObserver journals every accepted insert into tree before the
// tree mutates (the observer runs under the tree's exclusive lock, after
// the insert is certain to succeed). Append is all-or-nothing — a failed
// write or fsync rolls the log back to the last record boundary — so an
// aborted insert leaves journal and tree consistent with each other. A
// failed append is a persistence failure and flips the module to
// read-only degraded mode; client-side errors (dimension mismatch,
// out-of-domain queries, quota) never reach this hook. A compaction
// that rebuilds the tree re-wires it onto the tree it swaps in.
func (b *Bypass) attachObserver(tree *simplextree.Tree) {
	tree.SetObserver(func(q, value []float64, stamp uint64) error {
		if err := b.wal.Append(q, value, stamp); err != nil {
			b.noteDegraded(err)
			return err
		}
		return nil
	})
}

// Journaled reports the number of inserts journaled since the last
// compaction (including those replayed at open); 0 without a log.
func (b *Bypass) Journaled() int {
	if b.wal == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wal.Records()
}

// WALSize reports the log's on-disk size in bytes, census and journal:
// the recovery debt a restart pays; 0 without a log.
func (b *Bypass) WALSize() int64 {
	if b.wal == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wal.Size()
}

// Close flushes and closes the log; it does nothing without one. A
// module with a log must not be used afterwards; reopen it with
// OpenDurable.
func (b *Bypass) Close() error {
	if b.wal == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Tree().SetObserver(nil)
	if err := b.wal.Sync(); err != nil {
		_ = b.wal.Close()
		return err
	}
	return b.wal.Close()
}
