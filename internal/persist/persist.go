// Package persist stores Simplex Trees on disk in a versioned,
// checksummed binary format. Persistence is the point of FeedbackBypass:
// the parameters learned from feedback loops must survive across query
// sessions instead of being forgotten (§1, problem 2).
//
// Format (little-endian):
//
//	magic   [4]byte  "FBSX"
//	version uint32   2
//	dim     uint32   query-domain dimensionality D
//	oqpDim  uint32   stored-vector dimensionality N
//	epsilon float64
//	tol     float64
//	points  uint32   stored-point counter
//	epoch   uint64   compaction epoch
//	clock   uint64   logical insert clock
//	nVerts  uint32   vertex table size
//	  vertex: D float64 point, N float64 value, stamp uint64  (× nVerts)
//	node (recursive, pre-order):
//	  verts    [D+1]int32
//	  nChild   uint32            0 for leaves
//	  if inner: split int32, mu [D+1]float64,
//	            then per child: replaced int32, node
//	crc32   uint32   IEEE checksum of everything before it
//
// The compaction epoch pairs the snapshot with the WAL that extends it;
// the clock and per-vertex stamps carry the logical ages that aging
// decisions are made from. Any other version — including the
// pre-lifecycle version 1 — is refused with ErrCorrupt.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/simplextree"
)

var magic = [4]byte{'F', 'B', 'S', 'X'}

// Version is the format version: the only one written and the only one
// read.
const Version = 2

// maxSaneCount bounds table sizes read from untrusted files so a corrupt
// length prefix cannot trigger an enormous allocation.
const maxSaneCount = 1 << 28

// ErrCorrupt is wrapped by all errors caused by malformed input files.
var ErrCorrupt = errors.New("persist: corrupt file")

// Save writes the tree to w with compaction epoch 0. Use SaveEpoch when
// the snapshot must pair with an epoch-stamped WAL.
func Save(w io.Writer, tree *simplextree.Tree) error {
	return SaveEpoch(w, tree, 0)
}

// SaveEpoch writes the tree to w, stamping the snapshot with the given
// compaction epoch (recovery matches it against the WAL header's epoch
// to detect a stale pre-compaction journal).
func SaveEpoch(w io.Writer, tree *simplextree.Tree, epoch uint64) error {
	if tree == nil {
		return errors.New("persist: nil tree")
	}
	snap := tree.Snapshot()
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)

	if _, err := mw.Write(magic[:]); err != nil {
		return err
	}
	if err := writeAll(mw,
		uint32(Version), uint32(snap.Dim), uint32(snap.OQPDim),
		snap.Epsilon, snap.Tol, uint32(snap.Points),
		epoch, snap.Clock, uint32(len(snap.Vertices)),
	); err != nil {
		return err
	}
	for _, v := range snap.Vertices {
		if err := writeFloats(mw, v.Point); err != nil {
			return err
		}
		if err := writeFloats(mw, v.Value); err != nil {
			return err
		}
		if err := writeAll(mw, v.Stamp); err != nil {
			return err
		}
	}
	if err := writeNode(mw, snap.Root); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// SaveFile writes the tree to the named file, creating or truncating
// it. The write flows through the OSFS seam so it stays visible to the
// same accounting as every other persistence op.
func SaveFile(path string, tree *simplextree.Tree) error {
	f, err := CreateFile(nil, path)
	if err != nil {
		return err
	}
	if err := Save(f, tree); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Load reads a tree from r, verifying the checksum and every structural
// invariant.
func Load(r io.Reader) (*simplextree.Tree, error) {
	tree, _, err := LoadWithEpoch(r)
	return tree, err
}

// LoadWithEpoch is Load returning also the compaction epoch stamped in
// the snapshot.
func LoadWithEpoch(r io.Reader) (*simplextree.Tree, uint64, error) {
	crc := crc32.NewIEEE()
	br := &checksumReader{r: bufio.NewReader(r), h: crc}

	var gotMagic [4]byte
	if _, err := io.ReadFull(br, gotMagic[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: reading magic: %w", ErrCorrupt, err)
	}
	if gotMagic != magic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, gotMagic[:])
	}
	var version, dim, oqpDim, points, nVerts uint32
	var epsilon, tol float64
	var epoch, clock uint64
	if err := readAll(br, &version, &dim, &oqpDim, &epsilon, &tol, &points); err != nil {
		return nil, 0, fmt.Errorf("%w: reading header: %w", ErrCorrupt, err)
	}
	if version != Version {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, version)
	}
	if err := readAll(br, &epoch, &clock, &nVerts); err != nil {
		return nil, 0, fmt.Errorf("%w: reading lifecycle header: %w", ErrCorrupt, err)
	}
	if dim == 0 || dim > maxSaneCount || oqpDim == 0 || oqpDim > maxSaneCount || nVerts > maxSaneCount {
		return nil, 0, fmt.Errorf("%w: implausible header (D=%d N=%d verts=%d)", ErrCorrupt, dim, oqpDim, nVerts)
	}
	snap := &simplextree.Snapshot{
		Dim:     int(dim),
		OQPDim:  int(oqpDim),
		Epsilon: epsilon,
		Tol:     tol,
		Points:  int(points),
		Clock:   clock,
	}
	for i := uint32(0); i < nVerts; i++ {
		point, err := readFloats(br, int(dim))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: vertex %d point: %w", ErrCorrupt, i, err)
		}
		value, err := readFloats(br, int(oqpDim))
		if err != nil {
			return nil, 0, fmt.Errorf("%w: vertex %d value: %w", ErrCorrupt, i, err)
		}
		var stamp uint64
		if err := readAll(br, &stamp); err != nil {
			return nil, 0, fmt.Errorf("%w: vertex %d stamp: %w", ErrCorrupt, i, err)
		}
		snap.Vertices = append(snap.Vertices, simplextree.SnapshotVertex{Point: point, Value: value, Stamp: stamp})
	}
	root, err := readNode(br, int(dim), 0)
	if err != nil {
		return nil, 0, err
	}
	snap.Root = root
	wantSum := crc.Sum32()
	var gotSum uint32
	// The trailing checksum is read outside the checksummed stream.
	if err := binary.Read(br.r, binary.LittleEndian, &gotSum); err != nil {
		return nil, 0, fmt.Errorf("%w: reading checksum: %w", ErrCorrupt, err)
	}
	if gotSum != wantSum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch (stored %08x, computed %08x)", ErrCorrupt, gotSum, wantSum)
	}
	tree, err := simplextree.FromSnapshot(snap)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return tree, epoch, nil
}

// LoadFile reads a tree from the named file.
func LoadFile(path string) (*simplextree.Tree, error) {
	return LoadFileFS(nil, path)
}

// LoadFileFS is LoadFile reading through fs (nil means OSFS).
func LoadFileFS(fsys FS, path string) (*simplextree.Tree, error) {
	tree, _, err := LoadFileEpochFS(fsys, path)
	return tree, err
}

// LoadFileEpochFS is LoadFileFS returning also the snapshot's compaction
// epoch.
func LoadFileEpochFS(fsys FS, path string) (*simplextree.Tree, uint64, error) {
	f, err := OpenRead(fsys, path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return LoadWithEpoch(f)
}

const maxTreeDepth = 1 << 20 // recursion guard against cyclic/corrupt files

func writeNode(w io.Writer, n *simplextree.SnapshotNode) error {
	if err := writeInts(w, n.Verts); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(n.Children))); err != nil {
		return err
	}
	if len(n.Children) == 0 {
		return nil
	}
	if err := binary.Write(w, binary.LittleEndian, n.Split); err != nil {
		return err
	}
	if err := writeFloats(w, n.Mu); err != nil {
		return err
	}
	for i, c := range n.Children {
		if err := binary.Write(w, binary.LittleEndian, n.Replaced[i]); err != nil {
			return err
		}
		if err := writeNode(w, c); err != nil {
			return err
		}
	}
	return nil
}

func readNode(r io.Reader, dim, depth int) (*simplextree.SnapshotNode, error) {
	if depth > maxTreeDepth {
		return nil, fmt.Errorf("%w: tree deeper than %d", ErrCorrupt, maxTreeDepth)
	}
	n := &simplextree.SnapshotNode{Split: -1}
	verts, err := readInts(r, dim+1)
	if err != nil {
		return nil, fmt.Errorf("%w: node vertices: %w", ErrCorrupt, err)
	}
	n.Verts = verts
	var nChildren uint32
	if err := binary.Read(r, binary.LittleEndian, &nChildren); err != nil {
		return nil, fmt.Errorf("%w: child count: %w", ErrCorrupt, err)
	}
	if nChildren == 0 {
		return n, nil
	}
	if nChildren > uint32(dim)+1 {
		return nil, fmt.Errorf("%w: node claims %d children in dimension %d", ErrCorrupt, nChildren, dim)
	}
	if err := binary.Read(r, binary.LittleEndian, &n.Split); err != nil {
		return nil, fmt.Errorf("%w: split index: %w", ErrCorrupt, err)
	}
	mu, err := readFloats(r, dim+1)
	if err != nil {
		return nil, fmt.Errorf("%w: split coordinates: %w", ErrCorrupt, err)
	}
	n.Mu = mu
	for i := uint32(0); i < nChildren; i++ {
		var replaced int32
		if err := binary.Read(r, binary.LittleEndian, &replaced); err != nil {
			return nil, fmt.Errorf("%w: replaced index: %w", ErrCorrupt, err)
		}
		child, err := readNode(r, dim, depth+1)
		if err != nil {
			return nil, err
		}
		n.Replaced = append(n.Replaced, replaced)
		n.Children = append(n.Children, child)
	}
	return n, nil
}

func writeAll(w io.Writer, vals ...interface{}) error {
	for _, v := range vals {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readAll(r io.Reader, vals ...interface{}) error {
	for _, v := range vals {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func writeFloats(w io.Writer, xs []float64) error {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	_, err := w.Write(buf)
	return err
}

func readFloats(r io.Reader, n int) ([]float64, error) {
	buf := make([]byte, 8*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

func writeInts(w io.Writer, xs []int32) error {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	_, err := w.Write(buf)
	return err
}

func readInts(r io.Reader, n int) ([]int32, error) {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// checksumReader feeds everything read through the hash, so the checksum
// covers exactly the bytes consumed.
type checksumReader struct {
	r io.Reader
	h hash.Hash32
}

func (c *checksumReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}
