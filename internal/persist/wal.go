package persist

// The live log of one Simplex Tree. A WAL is a log file (see the package
// comment) open for appending: every accepted insert appends one
// fixed-size journal record, and Reset — the compaction step — commits a
// fresh file whose census is the current tree. Recovery is OpenWAL:
// census, then journal replay. core.DurableBypass wires the tree to it.

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obsv"
	"repro/internal/simplextree"
)

// WAL is an append-only insert journal for one Simplex Tree. Appends are
// single unbuffered writes, so every record acknowledged by Append has
// reached the kernel when Append returns (call Sync to force it to
// stable storage). A WAL is not safe for concurrent use by itself; the
// tree's exclusive write lock already serializes the observer appends.
type WAL struct {
	fs      FS
	f       File
	path    string
	dim     int
	oqpDim  int
	buf     []byte // reused record encoding buffer
	records int    // journal records on disk (the census excluded)
	off     int64  // offset just past the last valid record
	sync    bool   // fsync after every append
	broken  error  // set when a failed append could not be rolled back

	appendH *obsv.Histogram // optional: whole-append latency
	fsyncH  *obsv.Histogram // optional: fsync latency (per-append and explicit)
}

// OpenWAL opens the log at path through fsys (nil means OSFS) and
// recovers its tree: the census rebuilt, then every journal record
// replayed. A temporary file left beside it by a crash mid-commit is
// removed, and a torn final record — a crash mid-append — is truncated
// away so the next append starts on a record boundary. A missing log is
// reported with an error satisfying errors.Is(err, os.ErrNotExist).
func OpenWAL(fsys FS, path string) (*WAL, *simplextree.Tree, error) {
	fsys = OrOS(fsys)
	if err := removeStaleTemp(fsys, path); err != nil {
		return nil, nil, err
	}
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	w, tree, err := resume(fsys, f, path)
	if err != nil {
		_ = f.Close()
		return nil, nil, err
	}
	return w, tree, nil
}

func resume(fsys FS, f File, path string) (*WAL, *simplextree.Tree, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	tree, end, records, err := readLog(f)
	if err != nil {
		return nil, nil, err
	}
	if end < info.Size() {
		if err := f.Truncate(end); err != nil {
			return nil, nil, err
		}
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return nil, nil, err
	}
	w := newWAL(fsys, path, tree)
	w.f, w.off, w.records = f, end, records
	return w, tree, nil
}

// CreateWAL commits a log holding tree's census at path through fsys
// (nil means OSFS), replacing any file there, and opens it for
// appending.
func CreateWAL(fsys FS, path string, tree *simplextree.Tree) (*WAL, error) {
	w := newWAL(OrOS(fsys), path, tree)
	if err := w.Reset(tree); err != nil {
		if w.f != nil {
			_ = w.f.Close()
		}
		return nil, err
	}
	return w, nil
}

func newWAL(fsys FS, path string, tree *simplextree.Tree) *WAL {
	return &WAL{
		fs:     fsys,
		path:   path,
		dim:    tree.Dim(),
		oqpDim: tree.OQPDim(),
		buf:    make([]byte, 0, walRecordSize(tree.Dim(), tree.OQPDim())),
	}
}

// SetSyncOnAppend makes every Append fsync before acknowledging, giving
// power-loss durability per record instead of process-kill durability.
func (w *WAL) SetSyncOnAppend(sync bool) { w.sync = sync }

// SetMetrics attaches optional latency histograms: appendH observes the
// full Append (encode + write + any per-append fsync), fsyncH observes
// every fsync (per-append and explicit Sync). Either may be nil, which
// observes nothing. Not safe to call concurrently with Append — wire
// metrics up before serving.
func (w *WAL) SetMetrics(appendH, fsyncH *obsv.Histogram) {
	w.appendH = appendH
	w.fsyncH = fsyncH
}

// Append journals one accepted insert with its logical timestamp. The
// write is a single unbuffered write call, so a process kill after
// Append returns cannot lose the record (power-loss durability
// additionally needs Sync, or SetSyncOnAppend). Append is
// all-or-nothing: a partial write or a failed per-append fsync is rolled
// back by truncating to the last record boundary, so the log never
// advances misaligned; if even the rollback fails, the WAL refuses
// further appends instead of corrupting the records already
// acknowledged.
func (w *WAL) Append(q, value []float64, stamp uint64) error {
	if w.broken != nil {
		return w.broken
	}
	if len(q) != w.dim {
		return fmt.Errorf("persist: WAL append point has dimension %d, want %d", len(q), w.dim)
	}
	if len(value) != w.oqpDim {
		return fmt.Errorf("persist: WAL append value has dimension %d, want %d", len(value), w.oqpDim)
	}
	t0 := time.Now()
	w.buf = appendRecord(w.buf[:0], q, value, stamp)
	if _, err := w.f.Write(w.buf); err != nil {
		return w.rollback(err)
	}
	if w.sync {
		if err := w.syncTimed(); err != nil {
			return w.rollback(err)
		}
	}
	w.off += int64(len(w.buf))
	w.records++
	w.appendH.ObserveSince(t0)
	return nil
}

// syncTimed fsyncs the log, observing the latency into fsyncH (a no-op
// when no histogram is attached).
func (w *WAL) syncTimed() error {
	t0 := time.Now()
	err := w.f.Sync()
	w.fsyncH.ObserveSince(t0)
	return err
}

// rollback restores the log to the last record boundary after a failed
// append. When the truncate itself fails the WAL is marked broken: the
// on-disk tail is in an unknown state, and appending past it would make
// the whole log unreadable (a size-complete record spanning torn bytes
// fails its checksum and turns every later record into ErrCorrupt).
func (w *WAL) rollback(cause error) error {
	if terr := w.f.Truncate(w.off); terr != nil {
		w.broken = fmt.Errorf("persist: WAL append failed (%w) and rollback failed (%w); log closed to appends", cause, terr)
		return w.broken
	}
	if _, serr := w.f.Seek(w.off, io.SeekStart); serr != nil {
		w.broken = fmt.Errorf("persist: WAL append failed (%w) and reposition failed (%w); log closed to appends", cause, serr)
		return w.broken
	}
	return cause
}

// Records reports the number of journal records in the log (found at
// open plus appended since); the census is not counted.
func (w *WAL) Records() int { return w.records }

// Size reports the log's on-disk size in bytes: header, census and
// every valid journal record.
func (w *WAL) Size() int64 { return w.off }

// Sync flushes the log to stable storage.
func (w *WAL) Sync() error { return w.syncTimed() }

// Reset is the compaction step: it commits a fresh log whose census is
// tree over the current one and continues appending there, so the
// journal starts empty. A crash before the commit's rename leaves the
// old log whole. Once the rename is done the WAL appends to the new
// file, even if the directory fsync after it failed (Reset then returns
// that error), and the broken state of an unrecoverable append failure
// is cleared; a failure before the rename leaves the WAL as it was.
func (w *WAL) Reset(tree *simplextree.Tree) error {
	if tree.Dim() != w.dim || tree.OQPDim() != w.oqpDim {
		return fmt.Errorf("persist: resetting a D=%d N=%d log with a D=%d N=%d tree", w.dim, w.oqpDim, tree.Dim(), tree.OQPDim())
	}
	f, size, err := commit(w.fs, w.path, tree.Census())
	if f == nil {
		return err
	}
	if w.f != nil {
		_ = w.f.Close() // the file it held was unlinked by the rename
	}
	w.f, w.off, w.records, w.broken = f, size, 0, nil
	return err
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }
