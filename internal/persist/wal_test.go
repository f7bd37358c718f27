package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simplextree"
)

func walRecordsForTest(rng *rand.Rand, n, dim, oqpDim int) (qs, vs [][]float64) {
	for i := 0; i < n; i++ {
		v := make([]float64, oqpDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		qs = append(qs, simplexPoint(rng, dim))
		vs = append(vs, v)
	}
	return qs, vs
}

// journaled creates the log at path for tree and journals every
// accepted insert of qs/vs to it, the way a durable module does.
func journaled(t *testing.T, path string, tree *simplextree.Tree, qs, vs [][]float64) *WAL {
	t.Helper()
	w, err := CreateWAL(nil, path, tree)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetObserver(w.Append)
	defer tree.SetObserver(nil)
	for i := range qs {
		if _, err := tree.Insert(qs[i], vs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.fbwl")
	const dim, oqpDim = 3, 5
	tree := buildTree(t, dim, oqpDim, 6, 1)
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(21)), 17, dim, oqpDim)
	w := journaled(t, path, tree, qs, vs)
	if w.Records() != len(qs) {
		t.Errorf("records = %d, want %d", w.Records(), len(qs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the census and every journal record come back, in order,
	// stamps included.
	w2, back, err := OpenWAL(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Records() != len(qs) {
		t.Errorf("reopened records = %d, want %d", w2.Records(), len(qs))
	}
	sameTree(t, "reopened", back, tree)
	if loaded, err := LoadFile(path); err != nil {
		t.Fatal(err)
	} else {
		sameTree(t, "LoadFile of a live log", loaded, tree)
	}

	// Appending after reopen continues the log.
	back.SetObserver(w2.Append)
	if _, err := back.Insert(simplexPoint(rand.New(rand.NewSource(5)), dim), vs[0]); err != nil {
		t.Fatal(err)
	}
	if w2.Records() != len(qs)+1 {
		t.Errorf("records after append = %d, want %d", w2.Records(), len(qs)+1)
	}
	again, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, "after an append on the reopened log", again, back)
}

// TestWALTruncatedTailTolerated simulates a crash mid-append: the torn
// final record must be dropped by both a plain load and OpenWAL, and the log
// must stay appendable.
func TestWALTruncatedTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.fbwl")
	const dim, oqpDim = 4, 6
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(2)), 9, dim, oqpDim)
	tree := newTree(t, dim, oqpDim)
	w := journaled(t, path, tree, qs, vs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := newTree(t, dim, oqpDim)
	journaled(t, filepath.Join(t.TempDir(), "ref.fbwl"), before, qs[:len(qs)-1], vs[:len(vs)-1]).Close()

	// Tear the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-walRecordSize(dim, oqpDim)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := load(torn)
	if err != nil {
		t.Fatalf("load of torn log: %v", err)
	}
	sameTree(t, "torn tail dropped", loaded, before)

	w2, back, err := OpenWAL(nil, path)
	if err != nil {
		t.Fatalf("open of torn log: %v", err)
	}
	defer w2.Close()
	if w2.Records() != len(qs)-1 {
		t.Errorf("reopened records = %d, want %d", w2.Records(), len(qs)-1)
	}
	// The torn bytes must have been truncated away so the next append
	// lands on a record boundary.
	back.SetObserver(w2.Append)
	if _, err := back.Insert(qs[len(qs)-1], vs[len(vs)-1]); err != nil {
		t.Fatal(err)
	}
	again, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, "after truncate+append", again, tree)
}

// TestWALCorruptChecksumErrors flips a payload byte of a complete census
// or journal record: load and open must both fail with ErrCorrupt.
func TestWALCorruptChecksumErrors(t *testing.T) {
	dir := t.TempDir()
	const dim, oqpDim = 2, 3
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(3)), 5, dim, oqpDim)
	src := filepath.Join(dir, "src.fbwl")
	w := journaled(t, src, buildTree(t, dim, oqpDim, 4, 3), qs, vs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	rec := walRecordSize(dim, oqpDim)
	census := (len(data) - walHeaderSize - len(qs)*rec) / rec
	for name, off := range map[string]int{
		"census record":  walHeaderSize + 1*rec + 5,
		"journal record": walHeaderSize + (census+2)*rec + 5,
	} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".fbwl")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: load err = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := OpenWAL(nil, path); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: open err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestWALHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	w, err := CreateWAL(nil, path, newTree(t, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	resum := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[52:], crc32.ChecksumIEEE(b[:52]))
		return b
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"header checksum": func(b []byte) []byte { b[20] ^= 1; return b },
		"zero dim":        func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 0); return resum(b) },
		"implausible N":   func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:], 1<<30); return resum(b) },
		"fewer than corners": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[48:], 2)
			return resum(b)[:walHeaderSize+2*walRecordSize(3, 4)]
		},
		"census past the file": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[48:], 9); return resum(b) },
		"negative tol":         func(b []byte) []byte { binary.LittleEndian.PutUint64(b[24:], math.Float64bits(-1)); return resum(b) },
	} {
		bad := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".fbwl")
		if err := os.WriteFile(bad, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenWAL(nil, bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Append and Reset validate dimensions.
	if err := w.Append([]float64{0.1, 0.2}, []float64{1, 2, 3, 4}, 1); err == nil {
		t.Error("short point accepted")
	}
	if err := w.Append([]float64{0.1, 0.2, 0.3}, []float64{1}, 1); err == nil {
		t.Error("short value accepted")
	}
	if err := w.Reset(newTree(t, 3, 5)); err == nil {
		t.Error("reset with a tree of another shape accepted")
	}
}

// TestWALReset: a reset commits a fresh log holding the tree's census
// and an empty journal, leaves no temporary file, and the log keeps
// working across appends and reopens.
func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	const dim, oqpDim = 3, 3
	tree := newTree(t, dim, oqpDim)
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(4)), 6, dim, oqpDim)
	w := journaled(t, path, tree, qs, vs)
	defer w.Close()
	if err := w.Reset(tree); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Errorf("records after reset = %d, want 0", w.Records())
	}
	census := int64(walHeaderSize + tree.Stats().DistinctVertices*walRecordSize(dim, oqpDim))
	if info, err := os.Stat(path); err != nil || info.Size() != census || w.Size() != census {
		t.Errorf("after reset: file %v (%v), Size %d, want the %d-byte census alone", info.Size(), err, w.Size(), census)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("directory holds %d files after reset, want the log alone", len(entries))
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, "census after reset", back, tree)
	// The log keeps working after a reset, and a reopen finds the journal.
	tree.SetObserver(w.Append)
	if _, err := tree.Insert(simplexPoint(rand.New(rand.NewSource(6)), dim), vs[0]); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 1 {
		t.Errorf("records = %d, want 1", w.Records())
	}
	w2, again, err := OpenWAL(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Records() != 1 {
		t.Errorf("reopened records = %d, want 1", w2.Records())
	}
	sameTree(t, "reopened after reset", again, tree)
}

// writeV1WAL builds a legacy version-1 log image by hand: 16-byte header
// (no epoch), records without stamps.
func writeV1WAL(t testing.TB, path string, qs, vs [][]float64) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(walMagic[:])
	hdr := make([]byte, 12)
	binary.LittleEndian.PutUint32(hdr[0:4], 1)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(qs[0])))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(vs[0])))
	buf.Write(hdr)
	for i := range qs {
		rec := make([]byte, 8*(len(qs[i])+len(vs[i]))+4)
		off := 0
		for _, x := range append(append([]float64(nil), qs[i]...), vs[i]...) {
			binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(x))
			off += 8
		}
		binary.LittleEndian.PutUint32(rec[off:], crc32.ChecksumIEEE(rec[:off]))
		buf.Write(rec)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALV1Refused: well-formed logs of versions 1 and 2 are refused by
// open and by load with ErrCorrupt naming the version, and the file is
// left as it was — a refused log is never "repaired" into an empty one.
func TestWALV1Refused(t *testing.T) {
	dir := t.TempDir()
	const dim, oqpDim = 3, 4
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(8)), 5, dim, oqpDim)
	v1 := filepath.Join(dir, "v1.fbwl")
	writeV1WAL(t, v1, qs, vs)
	v2 := filepath.Join(dir, "v2.fbwl")
	if err := os.WriteFile(v2, walV2Image(qs, vs), 0o644); err != nil {
		t.Fatal(err)
	}
	for version, path := range map[int]string{1: v1, 2: v2} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := "unsupported WAL version " + string(rune('0'+version))
		if _, _, err := OpenWAL(nil, path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("open of v%d log: err = %v, want ErrCorrupt: %s", version, err, want)
		}
		if _, err := load(before); !errors.Is(err, ErrCorrupt) {
			t.Errorf("load of v%d log: err = %v, want ErrCorrupt", version, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("refused v%d log was modified on disk", version)
		}
	}
}

// TestWALTornHeaderRecovered covers a crash while a log's header was
// being written. A log is published only by a rename, so a torn header
// can sit only in the temporary file: opening removes it and recovers
// the log it was about to replace, or reports no log when a fresh
// module's first commit died.
func TestWALTornHeaderRecovered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	tree := buildTree(t, 3, 4, 5, 11)
	w, err := CreateWAL(nil, path, tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 7, walHeaderSize - 1, walHeaderSize + 3} {
		if err := os.WriteFile(path+".tmp", img[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		w, back, err := OpenWAL(nil, path)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		sameTree(t, "beside a torn temporary file", back, tree)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("size %d: the torn temporary file survived the open: %v", size, err)
		}
	}
	fresh := filepath.Join(dir, "fresh.fbwl")
	if err := os.WriteFile(fresh+".tmp", img[:9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(nil, fresh); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a torn first commit: err = %v, want os.ErrNotExist", err)
	}
	if _, err := os.Stat(fresh + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the torn first commit survived the open: %v", err)
	}
}
