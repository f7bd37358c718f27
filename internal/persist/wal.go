package persist

// Write-ahead log for Simplex Tree inserts. The snapshot format of Save/
// Load captures a whole tree; the WAL complements it with incremental
// durability: every accepted insert appends one fixed-size record, and
// recovery is snapshot + replay. Compaction rewrites the snapshot and
// truncates the log (core.DurableBypass wires the two together).
//
// Format (little-endian):
//
//	header:
//	  magic   [4]byte  "FBWL"
//	  version uint32   2
//	  dim     uint32   query-domain dimensionality D
//	  oqpDim  uint32   stored-vector dimensionality N
//	  epoch   uint64   compaction epoch of the module
//	record (fixed size, repeated):
//	  q       [D]float64
//	  value   [N]float64
//	  stamp   uint64   logical insert timestamp
//	  crc32   uint32   IEEE checksum of the record bytes before it
//
// The header's epoch pairs the log with the snapshot it extends (a log
// whose epoch trails the snapshot's is a stale pre-compaction journal and
// is discarded on recovery), and each record carries the logical
// timestamp its vertex was stamped with, so replay reconstructs ages
// bitwise. Any other version — including the pre-lifecycle version 1,
// which nothing has written since stamps were introduced — is refused
// with ErrCorrupt.
//
// Records carry the same CRC-32/IEEE checksum the snapshot format uses,
// but per record, so a torn final write (a crash mid-append) is
// detectable and cheap to drop: replay and open both tolerate a
// truncated tail record, while a size-complete record with a checksum
// mismatch is reported as ErrCorrupt.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/obsv"
)

var walMagic = [4]byte{'F', 'B', 'W', 'L'}

// WALVersion is the log format version: the only one written and the
// only one read.
const WALVersion = 2

const (
	walHeaderPrefix = 4 + 4 + 4 + 4 // magic, version, dim, oqpDim
	walHeaderSize   = walHeaderPrefix + 8
)

// errTornWALHeader marks a file too short to hold its own header — the
// signature of a crash during header creation or mid-Reset. It wraps
// ErrCorrupt for readers; the open path rewrites the header instead
// (a file that short holds no records, so nothing is lost).
var errTornWALHeader = fmt.Errorf("%w: torn WAL header", ErrCorrupt)

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
	epoch   uint64 // header epoch
	buf     []byte // reused record encoding buffer
	records int    // valid records on disk
	off     int64  // offset just past the last valid record
	sync    bool   // fsync after every append
	broken  error  // set when a failed append could not be rolled back

	appendH *obsv.Histogram // optional: whole-append latency
	fsyncH  *obsv.Histogram // optional: fsync latency (per-append and explicit)
}

// walRecordSize is q, value, stamp and checksum.
func walRecordSize(dim, oqpDim int) int {
	return 8*(dim+oqpDim) + 8 + 4
}

// OpenWAL opens (or creates) the write-ahead log at path for trees of
// query dimension dim and OQP dimension oqpDim. An existing log is
// validated record by record: a truncated tail record — the signature of
// a crash mid-append — is discarded by truncating the file, while a
// size-complete record with a bad checksum returns ErrCorrupt. The
// returned WAL is positioned for appending.
func OpenWAL(path string, dim, oqpDim int) (*WAL, error) {
	return OpenWALFS(nil, path, dim, oqpDim)
}

// OpenWALFS is OpenWAL with every filesystem operation routed through fs
// (nil means OSFS) — the fault-injection seam for the journal.
func OpenWALFS(fsys FS, path string, dim, oqpDim int) (*WAL, error) {
	if dim <= 0 || oqpDim <= 0 {
		return nil, fmt.Errorf("persist: invalid WAL dimensions D=%d N=%d", dim, oqpDim)
	}
	fsys = OrOS(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{
		fs:     fsys,
		f:      f,
		path:   path,
		dim:    dim,
		oqpDim: oqpDim,
		buf:    make([]byte, walRecordSize(dim, oqpDim)),
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	rewriteFresh := func() (*WAL, error) {
		if err := f.Truncate(0); err != nil {
			_ = f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			_ = f.Close()
			return nil, err
		}
		if err := w.writeHeader(); err != nil {
			_ = f.Close()
			return nil, err
		}
		w.off = walHeaderSize
		return w, nil
	}
	if info.Size() < walHeaderPrefix {
		// Empty file, or a header torn by a crash during creation (or
		// during Reset, between the truncate and the header rewrite). A
		// file this short cannot hold records, so nothing is lost:
		// rewrite the header instead of reporting corruption.
		return rewriteFresh()
	}
	validEnd, records, epoch, err := scanWAL(f, dim, oqpDim)
	if errors.Is(err, errTornWALHeader) {
		// A header torn after its fixed prefix: still too short for
		// records, same recovery.
		return rewriteFresh()
	}
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if validEnd < info.Size() {
		// Torn tail record: drop it so the next append starts on a
		// record boundary.
		if err := f.Truncate(validEnd); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	w.epoch = epoch
	w.records = records
	w.off = validEnd
	return w, nil
}

// SetSyncOnAppend makes every Append fsync before acknowledging, giving
// power-loss durability per record instead of process-kill durability.
func (w *WAL) SetSyncOnAppend(sync bool) { w.sync = sync }

// SetMetrics attaches optional latency histograms: appendH observes the
// full Append (encode + write + any per-append fsync), fsyncH observes
// every fsync (per-append and explicit Sync). Either may be nil; with
// both nil the hot path takes no clock readings at all. Not safe to
// call concurrently with Append — wire metrics up before serving.
func (w *WAL) SetMetrics(appendH, fsyncH *obsv.Histogram) {
	w.appendH = appendH
	w.fsyncH = fsyncH
}

// Epoch reports the compaction epoch stamped in the log header.
func (w *WAL) Epoch() uint64 { return w.epoch }

// writeHeader writes the log header at the current (zero) offset.
func (w *WAL) writeHeader() error {
	var hdr [walHeaderSize]byte
	copy(hdr[0:4], walMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], WALVersion)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(w.dim))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(w.oqpDim))
	binary.LittleEndian.PutUint64(hdr[16:24], w.epoch)
	_, err := w.f.Write(hdr[:])
	return err
}

// scanWAL validates the header and every record of r, returning the file
// offset just past the last valid record, the record count, and the
// header's epoch. A truncated tail is tolerated (the returned offset
// excludes it); a complete record with a checksum mismatch is ErrCorrupt.
func scanWAL(f File, dim, oqpDim int) (validEnd int64, records int, epoch uint64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, err
	}
	br := bufio.NewReader(f)
	epoch, err = readWALHeader(br, dim, oqpDim)
	if err != nil {
		return 0, 0, 0, err
	}
	buf := make([]byte, walRecordSize(dim, oqpDim))
	offset := int64(walHeaderSize)
	for {
		_, err := io.ReadFull(br, buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Clean end on a record boundary, or a torn tail: tolerate, drop.
			return offset, records, epoch, nil
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if err := checkWALRecord(buf); err != nil {
			return 0, 0, 0, err
		}
		offset += int64(len(buf))
		records++
	}
}

// readWALHeader consumes and validates the header from r, returning the
// epoch.
func readWALHeader(r io.Reader, dim, oqpDim int) (epoch uint64, err error) {
	var hdr [walHeaderPrefix]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: reading WAL header: %w", ErrCorrupt, err)
	}
	if [4]byte(hdr[0:4]) != walMagic {
		return 0, fmt.Errorf("%w: bad WAL magic %q", ErrCorrupt, hdr[0:4])
	}
	if version := binary.LittleEndian.Uint32(hdr[4:8]); version != WALVersion {
		return 0, fmt.Errorf("%w: unsupported WAL version %d", ErrCorrupt, version)
	}
	gotDim := binary.LittleEndian.Uint32(hdr[8:12])
	gotOQP := binary.LittleEndian.Uint32(hdr[12:16])
	if gotDim != uint32(dim) || gotOQP != uint32(oqpDim) {
		return 0, fmt.Errorf("%w: WAL is for D=%d N=%d, want D=%d N=%d", ErrCorrupt, gotDim, gotOQP, dim, oqpDim)
	}
	var ep [8]byte
	if _, err := io.ReadFull(r, ep[:]); err != nil {
		return 0, fmt.Errorf("reading WAL epoch: %w", errTornWALHeader)
	}
	return binary.LittleEndian.Uint64(ep[:]), nil
}

// checkWALRecord verifies the trailing checksum of one complete record.
func checkWALRecord(rec []byte) error {
	payload := rec[:len(rec)-4]
	want := binary.LittleEndian.Uint32(rec[len(rec)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("%w: WAL record checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	return nil
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
	var t0 time.Time
	if w.appendH != nil {
		t0 = time.Now()
	}
	off := 0
	for _, x := range q {
		binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(x))
		off += 8
	}
	for _, x := range value {
		binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(x))
		off += 8
	}
	binary.LittleEndian.PutUint64(w.buf[off:], stamp)
	off += 8
	binary.LittleEndian.PutUint32(w.buf[off:], crc32.ChecksumIEEE(w.buf[:off]))
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
	if w.appendH != nil {
		w.appendH.ObserveSince(t0)
	}
	return nil
}

// syncTimed fsyncs the log, observing the latency when a metrics
// histogram is attached.
func (w *WAL) syncTimed() error {
	if w.fsyncH == nil {
		return w.f.Sync()
	}
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

// Records reports the number of valid records in the log (found at open
// plus appended since).
func (w *WAL) Records() int { return w.records }

// Size reports the log's on-disk size in bytes (header plus every valid
// record) — the recovery debt a compaction would clear.
func (w *WAL) Size() int64 { return w.off }

// Sync flushes the log to stable storage.
func (w *WAL) Sync() error { return w.syncTimed() }

// Reset truncates the log back to an empty header carrying the given
// compaction epoch — the log-compaction step after the tree state has
// been captured in a snapshot stamped with the same epoch. A
// successful Reset also clears the broken state left by an
// unrecoverable append failure, since the rewritten log is aligned
// again.
func (w *WAL) Reset(epoch uint64) error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	prevEpoch := w.epoch
	w.epoch = epoch
	if err := w.writeHeader(); err != nil {
		w.epoch = prevEpoch
		return err
	}
	w.records = 0
	w.off = walHeaderSize
	w.broken = nil
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// Replay reads the log from the beginning through a separate read handle
// and invokes fn for every valid record in order, returning the number
// replayed. A truncated tail record is silently dropped; a checksum
// mismatch on a complete record is ErrCorrupt. The q and value slices
// are reused across calls; fn must not retain them.
func (w *WAL) Replay(fn func(q, value []float64, stamp uint64) error) (int, error) {
	f, err := OpenRead(w.fs, w.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return ReplayWAL(f, w.dim, w.oqpDim, fn)
}

// ReplayWAL replays every valid record of the log read from r (see
// WAL.Replay for the tolerance semantics).
func ReplayWAL(r io.Reader, dim, oqpDim int, fn func(q, value []float64, stamp uint64) error) (int, error) {
	if dim <= 0 || oqpDim <= 0 {
		return 0, fmt.Errorf("persist: invalid WAL dimensions D=%d N=%d", dim, oqpDim)
	}
	br := bufio.NewReader(r)
	if _, err := readWALHeader(br, dim, oqpDim); err != nil {
		return 0, err
	}
	buf := make([]byte, walRecordSize(dim, oqpDim))
	q := make([]float64, dim)
	value := make([]float64, oqpDim)
	replayed := 0
	for {
		_, err := io.ReadFull(br, buf)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return replayed, nil // clean end, or tolerated torn tail
		}
		if err != nil {
			return replayed, err
		}
		if err := checkWALRecord(buf); err != nil {
			return replayed, err
		}
		for i := range q {
			q[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		base := 8 * dim
		for i := range value {
			value[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[base+8*i:]))
		}
		stamp := binary.LittleEndian.Uint64(buf[base+8*oqpDim:])
		if err := fn(q, value, stamp); err != nil {
			return replayed, err
		}
		replayed++
	}
}
