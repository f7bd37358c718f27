package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/persist"
	"repro/internal/simplextree"
)

// Durable file names inside the module directory.
const (
	SnapshotFile = "tree.fbsx"
	JournalFile  = "tree.fbwl"
)

// ErrDegraded marks a module that has flipped to read-only serving after
// a persistence failure (failed journal append, failed compaction).
// Predictions keep working from the in-memory tree; inserts are rejected
// with an error satisfying errors.Is(err, ErrDegraded) — joined with the
// root cause, so errors.Is against the underlying failure also holds.
// The flip is sticky: the module stays read-only until it is closed and
// reopened against a healthy disk.
var ErrDegraded = errors.New("core: module degraded to read-only after persistence failure")

// ErrQuotaExceeded re-exports the Simplex Tree's resource-governance
// sentinel so serving layers can classify rejections without importing
// simplextree.
var ErrQuotaExceeded = simplextree.ErrQuotaExceeded

// DurableOptions tunes the persistence behaviour of a DurableBypass.
type DurableOptions struct {
	// CompactEvery triggers an automatic compaction (snapshot + journal
	// truncation) once this many inserts have been journaled since the
	// last snapshot. Zero disables automatic compaction; call Compact.
	CompactEvery int
	// Sync forces an fsync after every journal append. Without it an
	// acknowledged insert survives a process kill (the append is an
	// unbuffered write) but not necessarily a power loss.
	Sync bool
	// FS routes every filesystem operation (journal, snapshot, directory
	// fsyncs) through the given seam. Nil means the real filesystem; the
	// fault-injection plane (internal/faultfs) substitutes scripted
	// failures here.
	FS persist.FS
	// Obs, when non-nil, registers persistence instruments (WAL append
	// and fsync latency, snapshot duration) in the given registry, each
	// carrying ObsLabels. Nil disables instrumentation entirely — the
	// hot paths then take no clock readings.
	Obs *obsv.Registry
	// ObsLabels are attached to every instrument this module registers
	// (typically collection and shard).
	ObsLabels []obsv.Label
}

// DurableBypass is a Bypass whose learned mapping survives crashes: every
// accepted insert is journaled to a write-ahead log before the tree
// mutates, and opening the module recovers snapshot + journal replay.
// Periodic compaction (snapshot the tree, truncate the journal) keeps
// recovery time proportional to the inserts since the last snapshot, not
// the lifetime of the module.
//
// Reads (Predict, PredictBatch, Stats, ...) are the embedded Bypass's and
// run in parallel. Inserts must go through DurableBypass.Insert /
// InsertBatch — they serialize against Compact so no acknowledged insert
// can fall between a snapshot and a journal truncation.
//
// Replay is deterministic and idempotent: the journal holds exactly the
// accepted inserts in application order, each replayed insert re-derives
// the same ε decision against the same intermediate tree, and a record
// already covered by the snapshot (a crash between the snapshot rename
// and the journal truncation) is rejected — by the ε test when ε > 0, or
// by the tree's exact-duplicate vertex-update check when interpolation
// rounding defeats an ε = 0 skip.
type DurableBypass struct {
	*Bypass

	mu        sync.Mutex // serializes inserts against compaction
	fs        persist.FS
	wal       *persist.WAL
	snapPath  string
	journaled int    // inserts journaled since the last compaction
	epoch     uint64 // current compaction epoch (snapshot and WAL agree)
	opts      DurableOptions
	snapH     *obsv.Histogram // optional: compaction snapshot duration

	// Lifecycle instruments (nil without DurableOptions.Obs).
	compactionsC *obsv.Counter   // fb_bypass_compactions_total
	reclaimedC   *obsv.Counter   // fb_bypass_reclaimed_vertices_total
	compactH     *obsv.Histogram // fb_bypass_compaction_seconds
	pointsBefG   *obsv.Gauge     // fb_bypass_compaction_points_before
	pointsAftG   *obsv.Gauge     // fb_bypass_compaction_points_after

	// Lifecycle counters for Stats/ShardInfo exposure.
	compactions atomic.Uint64
	reclaimed   atomic.Uint64

	// degMu guards degraded separately from mu: the WAL observer that
	// flips it runs under the tree's exclusive lock while mu is already
	// held by Insert, so it cannot retake mu.
	degMu    sync.Mutex
	degraded error // errors.Join(ErrDegraded, cause); nil while healthy
}

// OpenDurable opens (or initializes) a durable FeedbackBypass module
// rooted at dir. On first open it creates a fresh module from cfg; on
// later opens it recovers the persisted state — snapshot (if any) plus
// write-ahead-log replay — and cfg is consulted only if no snapshot
// exists yet. The directory is created if needed.
func OpenDurable(dir string, d, p int, cfg Config, opts DurableOptions) (*DurableBypass, error) {
	if opts.CompactEvery < 0 {
		return nil, fmt.Errorf("core: negative CompactEvery %d", opts.CompactEvery)
	}
	fsys := persist.OrOS(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, SnapshotFile)
	walPath := filepath.Join(dir, JournalFile)

	var b *Bypass
	var snapEpoch uint64
	if _, err := fsys.Stat(snapPath); err == nil {
		tree, epoch, err := persist.LoadFileEpochFS(fsys, snapPath)
		if err != nil {
			return nil, fmt.Errorf("core: loading snapshot: %w", err)
		}
		snapEpoch = epoch
		b, err = FromTree(tree, p)
		if err != nil {
			return nil, err
		}
		if b.D() != d {
			return nil, fmt.Errorf("core: snapshot is for D=%d, want %d", b.D(), d)
		}
	} else if errors.Is(err, os.ErrNotExist) {
		// Quotas are withheld until after replay (below): recovery must
		// never refuse an insert the module already acknowledged, even if
		// the quota was lowered since.
		freshCfg := cfg
		freshCfg.MaxVertices, freshCfg.MaxBytes = 0, 0
		if b, err = New(d, p, freshCfg); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	tree := b.Tree()
	wal, err := persist.OpenWALFS(fsys, walPath, d, tree.OQPDim())
	if err != nil {
		return nil, err
	}
	// Epoch reconciliation: the journal extends exactly the snapshot
	// whose epoch it carries.
	//
	//   wal == snap  — the normal pair: replay the journal.
	//   wal <  snap  — a crash hit between the snapshot rename and the
	//                  journal reset: every journaled record is already
	//                  inside the (newer) snapshot. Discard the stale
	//                  journal; recovery lands on the post-compaction
	//                  census. A crash *during* the reset (torn header)
	//                  reopens as a fresh epoch-0 journal with no records
	//                  and reconciles the same way.
	//   wal >  snap  — impossible under the protocol (the snapshot's
	//                  rename is directory-fsynced before the journal
	//                  moves to its epoch): the snapshot was lost or
	//                  swapped behind our back. Refuse.
	switch walEpoch := wal.Epoch(); {
	case walEpoch == snapEpoch:
		// The normal pair; fall through to replay.
	case wal.Records() == 0:
		// No journaled inserts: adopting the snapshot's epoch loses
		// nothing regardless of which side is ahead (this is also the
		// torn-reset recovery path).
		if err := wal.Reset(snapEpoch); err != nil {
			_ = wal.Close()
			return nil, fmt.Errorf("core: reconciling journal epoch: %w", err)
		}
	case walEpoch < snapEpoch:
		if err := wal.Reset(snapEpoch); err != nil {
			_ = wal.Close()
			return nil, fmt.Errorf("core: discarding stale journal: %w", err)
		}
	default:
		_ = wal.Close()
		return nil, fmt.Errorf("%w: journal epoch %d is ahead of snapshot epoch %d", persist.ErrCorrupt, walEpoch, snapEpoch)
	}
	replayed, err := wal.Replay(func(q, value []float64, stamp uint64) error {
		_, ierr := tree.InsertStamped(q, value, stamp)
		return ierr
	})
	if err != nil {
		_ = wal.Close()
		return nil, fmt.Errorf("core: replaying journal: %w", err)
	}
	// Recovery done; from here on cfg's quotas bind new inserts. A tree
	// already past a lowered bound serves reads and rejects growth.
	tree.SetQuota(cfg.MaxVertices, cfg.MaxBytes)
	// The aging horizon is serving policy, not persisted state: apply the
	// configured value to whatever tree recovery produced.
	tree.SetAgeHorizon(cfg.AgeHorizon)
	db := &DurableBypass{
		Bypass:    b,
		fs:        fsys,
		wal:       wal,
		snapPath:  snapPath,
		journaled: replayed,
		epoch:     wal.Epoch(),
		opts:      opts,
	}
	if opts.Obs != nil {
		wal.SetMetrics(
			opts.Obs.Histogram("fb_wal_append_seconds", "WAL append latency (encode + write + any per-append fsync).", obsv.LatencyBounds(), opts.ObsLabels...),
			opts.Obs.Histogram("fb_wal_fsync_seconds", "WAL fsync latency.", obsv.LatencyBounds(), opts.ObsLabels...),
		)
		db.snapH = opts.Obs.Histogram("fb_snapshot_seconds", "Compaction snapshot duration (write + fsync + rename + journal reset).", obsv.LatencyBounds(), opts.ObsLabels...)
		db.compactionsC = opts.Obs.Counter("fb_bypass_compactions_total", "Aged tree compactions (rebuild + snapshot + swap) completed.", opts.ObsLabels...)
		db.reclaimedC = opts.Obs.Counter("fb_bypass_reclaimed_vertices_total", "Vertices reclaimed by aged compactions (aged out or ε-absorbed).", opts.ObsLabels...)
		db.compactH = opts.Obs.Histogram("fb_bypass_compaction_seconds", "Aged compaction duration (rebuild + snapshot + journal reset + swap).", obsv.LatencyBounds(), opts.ObsLabels...)
		db.pointsBefG = opts.Obs.Gauge("fb_bypass_compaction_points_before", "Distinct vertices entering the last aged compaction.", opts.ObsLabels...)
		db.pointsAftG = opts.Obs.Gauge("fb_bypass_compaction_points_after", "Distinct vertices surviving the last aged compaction.", opts.ObsLabels...)
	}
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

// attachObserver wires the journaling hook to tree. CompactAged re-wires
// it onto each rebuilt tree it swaps in.
func (db *DurableBypass) attachObserver(tree *simplextree.Tree) {
	tree.SetObserver(func(q, value []float64, stamp uint64) error {
		if err := db.wal.Append(q, value, stamp); err != nil {
			db.noteDegraded(err)
			return err
		}
		return nil
	})
}

// Degraded reports the sticky persistence failure that flipped the
// module to read-only, or nil while it is healthy. The returned error
// satisfies errors.Is(err, ErrDegraded) and errors.Is against the root
// cause.
func (db *DurableBypass) Degraded() error {
	db.degMu.Lock()
	defer db.degMu.Unlock()
	return db.degraded
}

func (db *DurableBypass) noteDegraded(cause error) {
	db.degMu.Lock()
	if db.degraded == nil {
		db.degraded = errors.Join(ErrDegraded, cause)
	}
	db.degMu.Unlock()
}

// Insert stores a converged feedback outcome durably: an accepted insert
// is journaled before the in-memory tree changes, so once Insert returns
// true the outcome survives a crash.
func (db *DurableBypass) Insert(q []float64, oqp OQP) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.Degraded(); err != nil {
		return false, err
	}
	before := db.wal.Records()
	changed, err := db.Bypass.Insert(q, oqp)
	db.journaled += db.wal.Records() - before
	if err != nil && db.retryAfterQuotaLocked(err) {
		// Quota pressure with aging enabled: compact, then give the
		// insert the one retry the reclaimed space earned. The module
		// changed durably even if the retry is ε-skipped, so report
		// changed=true either way (caches over this tree must refresh).
		before = db.wal.Records()
		_, err = db.Bypass.Insert(q, oqp)
		db.journaled += db.wal.Records() - before
		changed = true
	}
	if err != nil {
		// If the failure was the journal append itself, the module just
		// flipped degraded; report the joined error so callers can match
		// ErrDegraded on the very first rejected insert.
		if derr := db.Degraded(); derr != nil {
			return changed, derr
		}
		return changed, err
	}
	return changed, db.maybeCompactLocked()
}

// retryAfterQuotaLocked implements compact-then-retry: when an insert
// bounced off a quota and aging is enabled, run one aged compaction and
// report whether it reclaimed anything (a retry without reclamation
// would bounce identically). Compaction errors are swallowed here — the
// caller returns the original quota error, and a persistence failure has
// already flipped the module degraded for the retry to discover.
func (db *DurableBypass) retryAfterQuotaLocked(err error) bool {
	if !errors.Is(err, ErrQuotaExceeded) || db.Tree().AgeHorizon() == 0 {
		return false
	}
	st, cerr := db.compactAgedLocked()
	return cerr == nil && st.Reclaimed > 0
}

// InsertBatch durably stores many outcomes under one exclusive-lock
// acquisition (see Bypass.InsertBatch for ordering and error semantics).
func (db *DurableBypass) InsertBatch(qs [][]float64, oqps []OQP) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.Degraded(); err != nil {
		return 0, err
	}
	before := db.wal.Records()
	stored, err := db.Bypass.InsertBatch(qs, oqps)
	db.journaled += db.wal.Records() - before
	if err != nil && db.retryAfterQuotaLocked(err) {
		// The batch stopped at the first pair over quota with earlier
		// pairs applied; after a fruitful compaction, re-running the
		// whole batch is safe (applied pairs re-skip by ε/duplicate
		// idempotence) and picks up where the quota cut it off.
		before = db.wal.Records()
		more, rerr := db.Bypass.InsertBatch(qs, oqps)
		db.journaled += db.wal.Records() - before
		stored += more
		err = rerr
	}
	if err != nil {
		if derr := db.Degraded(); derr != nil {
			return stored, derr
		}
		return stored, err
	}
	return stored, db.maybeCompactLocked()
}

// Journaled reports the number of inserts journaled since the last
// compaction (including those replayed at open).
func (db *DurableBypass) Journaled() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.journaled
}

// WALSize reports the journal's current on-disk size in bytes — the
// recovery debt the next compaction would clear. Serving layers export it
// per shard so operators can see write pressure per partition.
func (db *DurableBypass) WALSize() int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.wal.Size()
}

// Compact snapshots the tree and truncates the journal, bounding future
// recovery time. The snapshot is written to a temporary file, fsynced,
// and atomically renamed before the journal is reset, so a crash at any
// point leaves a recoverable (snapshot, journal) pair.
func (db *DurableBypass) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.Degraded(); err != nil {
		return err
	}
	return db.compactLocked()
}

func (db *DurableBypass) maybeCompactLocked() error {
	if db.opts.CompactEvery <= 0 || db.journaled < db.opts.CompactEvery {
		return nil
	}
	return db.compactLocked()
}

// compactLocked runs one compaction; any failure is a persistence
// failure and flips the module to read-only degraded mode. A partial
// compaction always leaves a recoverable (snapshot, journal) pair — the
// journal is only truncated after the new snapshot's rename is durable.
func (db *DurableBypass) compactLocked() error {
	if err := db.compactOnceLocked(); err != nil {
		db.noteDegraded(err)
		return db.Degraded()
	}
	return nil
}

func (db *DurableBypass) compactOnceLocked() error {
	var t0 time.Time
	if db.snapH != nil {
		t0 = time.Now()
	}
	if err := db.persistSwapLocked(db.Tree()); err != nil {
		return err
	}
	if db.snapH != nil {
		db.snapH.ObserveSince(t0)
	}
	return nil
}

// persistSwapLocked makes tree the module's durable state under the next
// compaction epoch: write it to a temporary snapshot, fsync, atomically
// rename it over the current snapshot, fsync the directory entry, then
// reset the journal to the new epoch. Every crash point leaves a
// recoverable (snapshot, journal) pair — before the rename recovery sees
// the old pair, after it the stale-journal reconciliation discards the
// pre-compaction records the new snapshot already contains.
func (db *DurableBypass) persistSwapLocked(tree *simplextree.Tree) error {
	newEpoch := db.epoch + 1
	tmp := db.snapPath + ".tmp"
	f, err := persist.CreateFile(db.fs, tmp)
	if err != nil {
		return err
	}
	if err := persist.SaveEpoch(f, tree, newEpoch); err != nil {
		_ = f.Close()
		_ = db.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = db.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = db.fs.Remove(tmp)
		return err
	}
	if err := db.fs.Rename(tmp, db.snapPath); err != nil {
		_ = db.fs.Remove(tmp)
		return err
	}
	// The rename's directory entry must be durable before the journal is
	// truncated: otherwise a power loss could persist the truncation but
	// not the rename, leaving an old snapshot next to an empty journal.
	if err := db.fs.SyncDir(filepath.Dir(db.snapPath)); err != nil {
		return err
	}
	if err := db.wal.Reset(newEpoch); err != nil {
		return err
	}
	db.epoch = newEpoch
	db.journaled = 0
	return nil
}

// CompactAged rebuilds the tree keeping only vertices alive under the
// configured age horizon, persists the rebuilt tree as the new snapshot
// (same atomic rename + journal reset discipline as Compact), and swaps
// it in. Until the swap, predictions and the snapshot both come from the
// old tree, so a crash at any point recovers either the full
// pre-compaction census or the exact rebuilt one — never a hybrid.
// Persistence failures flip the module to degraded read-only mode, like
// any failed compaction. The one-element slice matches the sharded
// module's per-shard shape.
func (db *DurableBypass) CompactAged() ([]CompactionStats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.Degraded(); err != nil {
		return nil, err
	}
	st, err := db.compactAgedLocked()
	if err != nil {
		return nil, err
	}
	return []CompactionStats{st}, nil
}

func (db *DurableBypass) compactAgedLocked() (CompactionStats, error) {
	var t0 time.Time
	if db.compactH != nil {
		t0 = time.Now()
	}
	tree := db.Tree()
	nt, rst, err := tree.RebuildAged(tree.AgeHorizon())
	if err != nil {
		// A rebuild failure is deterministic geometry, not a persistence
		// failure: the module stays healthy on its current tree.
		return CompactionStats{}, fmt.Errorf("core: aged rebuild: %w", err)
	}
	if err := db.persistSwapLocked(nt); err != nil {
		db.noteDegraded(err)
		return CompactionStats{}, db.Degraded()
	}
	// The rebuilt tree is durable and the journal restarted at its epoch:
	// publish it. The swap holds insMu so a misrouted direct
	// Bypass.Insert cannot land in the tree being retired; the retired
	// tree's observer is detached so late readers of it cannot journal.
	db.attachObserver(nt)
	db.insMu.Lock()
	db.tree.Store(nt)
	db.insMu.Unlock()
	tree.SetObserver(nil)
	st := CompactionStats{Before: rst.Before, After: rst.After, Reclaimed: rst.Reclaimed}
	db.compactions.Add(1)
	db.reclaimed.Add(uint64(rst.Reclaimed))
	if db.compactionsC != nil {
		db.compactionsC.Inc()
		db.reclaimedC.Add(uint64(rst.Reclaimed))
		db.pointsBefG.Set(float64(rst.Before))
		db.pointsAftG.Set(float64(rst.After))
		db.compactH.ObserveSince(t0)
	}
	return st, nil
}

// Compactions reports the number of aged compactions completed since
// open; Reclaimed the total vertices they reclaimed.
func (db *DurableBypass) Compactions() uint64 { return db.compactions.Load() }

// Reclaimed reports the total vertices reclaimed by aged compactions
// since open.
func (db *DurableBypass) Reclaimed() uint64 { return db.reclaimed.Load() }

// Epoch reports the module's current compaction epoch.
func (db *DurableBypass) Epoch() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.epoch
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

// Observer re-exports the simplextree hook type for callers layering
// their own journaling.
type Observer = simplextree.Observer
