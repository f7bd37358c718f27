// Package persist stores Simplex Trees on disk as logs. Persistence is
// the point of FeedbackBypass: the parameters learned from feedback loops
// must survive across query sessions instead of being forgotten (§1,
// problem 2).
//
// A tree is fully determined by its vertices in creation order, so one
// format holds both a saved tree and a live module's journal: a header,
// a census of the tree's vertices, then the journal of inserts accepted
// since the census was written. Recovery rebuilds the tree from the
// census (simplextree.FromCensus) and replays the journal through
// InsertStamped. Compaction writes a fresh file whose census is the
// current tree and renames it over the old one.
//
// Format (little-endian):
//
//	header:
//	  magic   [4]byte  "FBWL"
//	  version uint32   3
//	  dim     uint32   query-domain dimensionality D
//	  oqpDim  uint32   stored-vector dimensionality N
//	  epsilon float64
//	  tol     float64
//	  clock   uint64   logical insert clock at the census
//	  points  uint64   stored-point counter at the census
//	  census  uint32   census length C (≥ D+1)
//	  crc32   uint32   IEEE checksum of the header bytes before it
//	record (fixed size; C census records, then the journal):
//	  q       [D]float64
//	  value   [N]float64
//	  stamp   uint64   logical timestamp
//	  crc32   uint32   IEEE checksum of the record bytes before it
//
// The census lists every vertex in creation order, the D+1 domain
// corners first. Census records are re-inserted without the ε test and
// the quota (they are vertices, not feedback outcomes); journal records
// replay like the inserts they record. A file is only ever published
// whole, by a rename, so a short header or census is ErrCorrupt, while a
// torn final journal record — a crash mid-append — is dropped. Any other
// version, including the version 2 that paired a journal with an FBSX
// snapshot, is refused with ErrCorrupt.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/simplextree"
	"repro/internal/vec"
)

var walMagic = [4]byte{'F', 'B', 'W', 'L'}

// WALVersion is the format version: the only one written and the only
// one read.
const WALVersion = 3

const walHeaderSize = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4

// maxSaneCount bounds counts read from untrusted files so a corrupt
// field cannot trigger an enormous allocation; maxDim bounds D and N,
// which size every record buffer.
const (
	maxSaneCount = 1 << 28
	maxDim       = 1 << 16
)

// ErrCorrupt is wrapped by all errors caused by malformed input files.
var ErrCorrupt = errors.New("persist: corrupt file")

// walRecordSize is q, value, stamp and checksum.
func walRecordSize(dim, oqpDim int) int {
	return 8*(dim+oqpDim) + 8 + 4
}

// appendRecord appends one checksummed record to buf.
func appendRecord(buf []byte, q, value []float64, stamp uint64) []byte {
	start := len(buf)
	for _, x := range q {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	for _, x := range value {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	buf = binary.LittleEndian.AppendUint64(buf, stamp)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// decodeRecord verifies one complete record and decodes it into q and
// value, returning its stamp.
func decodeRecord(rec []byte, q, value []float64) (uint64, error) {
	payload := rec[:len(rec)-4]
	if want, got := binary.LittleEndian.Uint32(rec[len(rec)-4:]), crc32.ChecksumIEEE(payload); want != got {
		return 0, fmt.Errorf("%w: record checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	for i := range q {
		q[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:]))
	}
	base := 8 * len(q)
	for i := range value {
		value[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[base+8*i:]))
	}
	if !vec.IsFinite(q) || !vec.IsFinite(value) {
		return 0, fmt.Errorf("%w: record holds non-finite values", ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(payload[len(payload)-8:]), nil
}

// encodeCensus renders a file holding c and an empty journal.
func encodeCensus(c *simplextree.Census) []byte {
	buf := make([]byte, 0, walHeaderSize+len(c.Vertices)*walRecordSize(c.Dim, c.OQPDim))
	buf = append(buf, walMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, WALVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Dim))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.OQPDim))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Epsilon))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Tol))
	buf = binary.LittleEndian.AppendUint64(buf, c.Clock)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Points))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.Vertices)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	for _, v := range c.Vertices {
		buf = appendRecord(buf, v.Point, v.Value, v.Stamp)
	}
	return buf
}

// readHeader consumes and validates the header, returning the census it
// announces (without vertices) and its length.
func readHeader(r io.Reader) (*simplextree.Census, int, error) {
	var h [walHeaderSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: reading header: %w", ErrCorrupt, err)
	}
	if [4]byte(h[0:4]) != walMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, h[0:4])
	}
	if version := binary.LittleEndian.Uint32(h[4:8]); version != WALVersion {
		return nil, 0, fmt.Errorf("%w: unsupported WAL version %d", ErrCorrupt, version)
	}
	if want, got := binary.LittleEndian.Uint32(h[52:56]), crc32.ChecksumIEEE(h[:52]); want != got {
		return nil, 0, fmt.Errorf("%w: header checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, want, got)
	}
	c := &simplextree.Census{
		Dim:     int(binary.LittleEndian.Uint32(h[8:12])),
		OQPDim:  int(binary.LittleEndian.Uint32(h[12:16])),
		Epsilon: math.Float64frombits(binary.LittleEndian.Uint64(h[16:24])),
		Tol:     math.Float64frombits(binary.LittleEndian.Uint64(h[24:32])),
		Clock:   binary.LittleEndian.Uint64(h[32:40]),
	}
	points := binary.LittleEndian.Uint64(h[40:48])
	n := int(binary.LittleEndian.Uint32(h[48:52]))
	if c.Dim <= 0 || c.Dim > maxDim || c.OQPDim <= 0 || c.OQPDim > maxDim || points > maxSaneCount || n > maxSaneCount {
		return nil, 0, fmt.Errorf("%w: implausible header (D=%d N=%d points=%d census=%d)", ErrCorrupt, c.Dim, c.OQPDim, points, n)
	}
	c.Points = int(points)
	return c, n, nil
}

// readLog reads a whole log of size bytes from r: it rebuilds the census
// tree and replays every journal record into it. It returns the tree,
// the offset just past the last complete record and the number of
// journal records. size only sizes buffers: the census and the tree's
// arrays get room for the complete records it implies, so the journal
// replay grows no array. A torn final journal record is dropped;
// anything else malformed — including a journal record the tree
// refuses — is ErrCorrupt.
func readLog(r io.Reader, size int64) (*simplextree.Tree, int64, int, error) {
	br := bufio.NewReader(r)
	c, n, err := readHeader(br)
	if err != nil {
		return nil, 0, 0, err
	}
	rec := make([]byte, walRecordSize(c.Dim, c.OQPDim))
	records := max(0, int((size-walHeaderSize)/int64(len(rec))))
	c.Vertices = make([]simplextree.CensusVertex, 0, min(n, records))
	q := make([]float64, c.Dim)
	value := make([]float64, c.OQPDim)
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, 0, 0, fmt.Errorf("%w: census record %d of %d: %w", ErrCorrupt, i, n, err)
		}
		stamp, err := decodeRecord(rec, q, value)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("census record %d: %w", i, err)
		}
		c.Vertices = append(c.Vertices, simplextree.CensusVertex{Point: vec.Clone(q), Value: vec.Clone(value), Stamp: stamp})
	}
	tree, err := simplextree.FromCensus(c, max(0, records-n))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	end := int64(walHeaderSize + n*len(rec))
	for journaled := 0; ; journaled++ {
		if _, err := io.ReadFull(br, rec); err == io.EOF || err == io.ErrUnexpectedEOF {
			return tree, end, journaled, nil // clean end, or a torn tail
		} else if err != nil {
			return nil, 0, 0, err
		}
		stamp, err := decodeRecord(rec, q, value)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("journal record %d: %w", journaled, err)
		}
		if _, err := tree.InsertStamped(q, value, stamp); err != nil {
			return nil, 0, 0, fmt.Errorf("%w: journal record %d: %w", ErrCorrupt, journaled, err)
		}
		end += int64(len(rec))
	}
}

// commit publishes a file holding c at path — the one way this package
// writes a file. The bytes go to path+".tmp", which is fsynced, renamed
// over path, and made durable by an fsync of the directory. A failure
// before the rename removes the temporary file, leaves path as it was
// and returns a nil File. Otherwise the returned file is the committed
// one, open for appending after the census, with its size — also when
// the directory fsync fails, which the error then reports.
func commit(fsys FS, path string, c *simplextree.Census) (File, int64, error) {
	fsys = OrOS(fsys)
	img := encodeCensus(c)
	tmp := path + ".tmp"
	f, err := CreateFile(fsys, tmp)
	if err != nil {
		return nil, 0, err
	}
	if _, err = f.Write(img); err == nil {
		if err = f.Sync(); err == nil {
			err = fsys.Rename(tmp, path)
		}
	}
	if err != nil {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return nil, 0, err
	}
	return f, int64(len(img)), fsys.SyncDir(filepath.Dir(path))
}

// SaveFile commits the tree to the named file (see SaveFileFS).
func SaveFile(path string, tree *simplextree.Tree) error {
	return SaveFileFS(nil, path, tree)
}

// SaveFileFS commits the tree to the named file through fsys (nil means
// OSFS): a failure at any step before the final rename leaves a file
// already at path as it was.
func SaveFileFS(fsys FS, path string, tree *simplextree.Tree) error {
	if tree == nil {
		return errors.New("persist: nil tree")
	}
	f, _, err := commit(fsys, path, tree.Census())
	if f == nil {
		return err
	}
	return errors.Join(err, f.Close())
}

// LoadFile reads a tree from the named log file — a saved tree or a
// module's live journal: the census, then every journal record.
func LoadFile(path string) (*simplextree.Tree, error) {
	return LoadFileFS(nil, path)
}

// LoadFileFS is LoadFile reading through fsys (nil means OSFS).
func LoadFileFS(fsys FS, path string) (*simplextree.Tree, error) {
	f, err := OpenRead(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	tree, _, _, err := readLog(f, info.Size())
	return tree, err
}

// removeStaleTemp removes the temporary file a crash mid-commit left
// beside path; the file it would have replaced is intact.
func removeStaleTemp(fsys FS, path string) error {
	tmp := path + ".tmp"
	if _, err := fsys.Stat(tmp); errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return fsys.Remove(tmp)
}
