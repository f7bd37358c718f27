package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// mapsFiles is whether OpenFBMX maps the file on this build; the
// build-tagged mmap_unix_test.go sets it where mmap_unix.go builds.
var mapsFiles bool

// randomMatrix builds an n×dim heap Matrix with NormFloat64 entries plus
// the awkward values an on-disk roundtrip must preserve bitwise.
func randomMatrix(t *testing.T, rng *rand.Rand, n, dim int) *Matrix {
	t.Helper()
	m, err := NewMatrix(n, dim)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if i == 0 && dim >= 4 {
			row[0], row[1], row[2], row[3] = 0, math.Copysign(0, -1), math.Inf(1), math.NaN()
		}
	}
	return m
}

// testLabels labels n rows with a few repeating categories and themes,
// one of them empty, the way a collection repeats a small vocabulary.
func testLabels(n int) Labels {
	l := Labels{Spec: "synth:scale=0.1,seed=9", QueryCats: []string{"cat-1", "cat-0"}[:min(n, 2)], Category: make([]string, n), Theme: make([]string, n)}
	for i := range l.Category {
		l.Category[i] = fmt.Sprintf("cat-%d", i%3)
		if i%4 != 0 {
			l.Theme[i] = fmt.Sprintf("theme-%d", i%5)
		}
	}
	return l
}

func writeTempFBMX(t *testing.T, m *Matrix) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "coll.fbmx")
	if err := WriteFBMX(path, m, testLabels(m.Len())); err != nil {
		t.Fatal(err)
	}
	return path
}

// collectionHash is the FNV-64a the writer stores, recomputed
// independently from rows and labels.
func collectionHash(b *Matrix, l Labels) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < b.Len(); i++ {
		for _, x := range b.Row(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
		h.Write([]byte(l.Category[i] + "\x00" + l.Theme[i] + "\x00"))
	}
	return h.Sum64()
}

// checkLabels holds decoded labels to the ones written, and the stored
// hash to one recomputed from the decoded rows and labels.
func checkLabels(t *testing.T, how string, rows *Matrix, got, want Labels) {
	t.Helper()
	if got.Spec != want.Spec || !reflect.DeepEqual(got.QueryCats, want.QueryCats) ||
		!reflect.DeepEqual(got.Category, want.Category) || !reflect.DeepEqual(got.Theme, want.Theme) {
		t.Fatalf("%s: labels differ from those written", how)
	}
	if sum := collectionHash(rows, got); got.Hash != sum {
		t.Fatalf("%s: stored hash %#x, recomputed %#x", how, got.Hash, sum)
	}
}

// rewriteHeader decodes raw's (valid) header, lets edit change it, and
// re-seals the header page in a copy of raw.
func rewriteHeader(t *testing.T, raw []byte, edit func(h *fbmxHeader, labels []byte)) []byte {
	t.Helper()
	c := corrupt(raw, func([]byte) {})
	h, err := parseFBMXHeader(c[:fbmxHeaderPage], int64(len(c)))
	if err != nil {
		t.Fatal(err)
	}
	edit(&h, c[h.labelsOff:])
	h.put(c[:fbmxHeaderPage])
	return c
}

// rowsBitwiseEqual compares two matrices row by row on float64 bit
// patterns (so NaNs and signed zeros count as preserved).
func rowsBitwiseEqual(a, b *Matrix) bool {
	if a.Len() != b.Len() || a.Dim() != b.Dim() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				return false
			}
		}
	}
	return true
}

// TestFBMXRoundTrip: write → OpenFBMX and write → DecodeFBMX must both
// reproduce the matrix bitwise, including NaN payloads and -0, and the
// labels and provenance written beside it. A file-opened matrix is
// mapped exactly on the mmap platforms, a FromRows or DecodeFBMX one
// never; a heap Close leaves the rows readable, a mapped Close is
// idempotent, and the labels outlive it.
func TestFBMXRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range []struct{ n, dim int }{{1, 1}, {3, 5}, {70, 32}, {600, 7}} {
		m := randomMatrix(t, rng, shape.n, shape.dim)
		path := writeTempFBMX(t, m)

		mm, mmLabels, err := OpenFBMX(path)
		if err != nil {
			t.Fatalf("%dx%d: OpenFBMX: %v", shape.n, shape.dim, err)
		}
		if mm.Len() != shape.n || mm.Dim() != shape.dim {
			t.Fatalf("opened shape %dx%d, want %dx%d", mm.Len(), mm.Dim(), shape.n, shape.dim)
		}
		if mm.Mapped() != mapsFiles {
			t.Fatalf("OpenFBMX: Mapped() = %v on a build that maps files: %v", mm.Mapped(), mapsFiles)
		}
		if !rowsBitwiseEqual(m, mm) {
			t.Fatalf("%dx%d: opened rows differ from source", shape.n, shape.dim)
		}
		want := testLabels(shape.n)
		checkLabels(t, "OpenFBMX", mm, mmLabels, want)

		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dec, labels, err := DecodeFBMX(raw)
		if err != nil {
			t.Fatalf("DecodeFBMX: %v", err)
		}
		if !rowsBitwiseEqual(m, dec) {
			t.Fatalf("%dx%d: decoded rows differ from source", shape.n, shape.dim)
		}
		checkLabels(t, "DecodeFBMX", dec, labels, want)
		rows, err := FromRows([][]float64{m.Row(0)})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Mapped() || rows.Mapped() {
			t.Fatalf("heap matrices report Mapped(): DecodeFBMX %v, FromRows %v", dec.Mapped(), rows.Mapped())
		}
		for _, heap := range []*Matrix{m, dec} {
			if err := heap.Close(); err != nil {
				t.Fatalf("heap Close: %v", err)
			}
		}
		if !rowsBitwiseEqual(m, dec) {
			t.Fatalf("%dx%d: heap rows differ after Close", shape.n, shape.dim)
		}
		if err := mm.Close(); err != nil {
			t.Fatal(err)
		}
		if err := mm.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		checkLabels(t, "after Close", dec, mmLabels, want)
	}
}

// TestFBMXSlabMatchesRows pins the slab view the tiled kernels consume
// against per-row access, in the heap and file-opened.
func TestFBMXSlabMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomMatrix(t, rng, 40, 8)
	mm, _, err := OpenFBMX(writeTempFBMX(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	for _, b := range []*Matrix{m, mm} {
		slab := b.Slab(10, 25)
		if len(slab) != 15*8 {
			t.Fatalf("slab length %d", len(slab))
		}
		for i := 0; i < 15; i++ {
			row := b.Row(10 + i)
			for j := range row {
				if math.Float64bits(slab[i*8+j]) != math.Float64bits(row[j]) {
					t.Fatalf("slab[%d,%d] != row", i, j)
				}
			}
		}
	}
}

// corrupt returns a mutated copy of raw.
func corrupt(raw []byte, mutate func([]byte)) []byte {
	c := make([]byte, len(raw))
	copy(c, raw)
	mutate(c)
	return c
}

// TestFBMXCorruptionDetected: every malformed input must be rejected
// with an error wrapping ErrCorrupt — never a panic, never silent
// acceptance.
func TestFBMXCorruptionDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(t, rng, 12, 6)
	path := writeTempFBMX(t, m)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short-header", raw[:16]},
		{"header-only", raw[:fbmxHeaderPage]},
		{"bad-magic", corrupt(raw, func(b []byte) { b[0] = 'X' })},
		{"bad-version", corrupt(raw, func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], 99) })},
		{"header-crc", corrupt(raw, func(b []byte) { b[9] ^= 1 })},
		{"spec-overrun", corrupt(raw, func(b []byte) { binary.LittleEndian.PutUint32(b[56:60], fbmxMaxSpec+1) })},
		{"zero-rows", rewriteHeader(t, raw, func(h *fbmxHeader, _ []byte) { h.n = 0 })},
		{"huge-shape", rewriteHeader(t, raw, func(h *fbmxHeader, _ []byte) { h.n = 1 << 40 })},
		{"labels-offset", rewriteHeader(t, raw, func(h *fbmxHeader, _ []byte) { h.labelsOff -= 8 })},
		{"labels-length-overflow", rewriteHeader(t, raw, func(h *fbmxHeader, _ []byte) { h.labelsLen = 1<<64 - 8 })},
		{"labels-crc-flip", corrupt(raw, func(b []byte) { b[len(b)-1] ^= 1 })},
		{"labels-truncated", rewriteHeader(t, raw, func(h *fbmxHeader, labels []byte) {
			h.labelsLen -= 8
			h.labelsCRC = crc32.ChecksumIEEE(labels[:h.labelsLen])
		})[:len(raw)-8]},
		{"label-id-outside-table", rewriteHeader(t, raw, func(h *fbmxHeader, labels []byte) {
			binary.LittleEndian.PutUint32(labels[len(labels)-4:], 1<<20)
			h.labelsCRC = crc32.ChecksumIEEE(labels)
		})},
		{"truncated-payload", raw[:len(raw)-8]},
		{"trailing-bytes", append(append([]byte{}, raw...), 0)},
		{"payload-flip", corrupt(raw, func(b []byte) { b[fbmxHeaderPage+3] ^= 1 })},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFBMX(tc.data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeFBMX error %v, want ErrCorrupt", tc.name, err)
		}
		// The same bytes on disk must be refused by the open itself,
		// payload damage included.
		p := filepath.Join(t.TempDir(), "bad.fbmx")
		if err := os.WriteFile(p, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		mm, _, err := OpenFBMX(p)
		if err == nil {
			mm.Close()
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenFBMX error %v, want ErrCorrupt", tc.name, err)
		}
	}
	if _, _, err := OpenFBMX(filepath.Join(t.TempDir(), "missing.fbmx")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v, want os.ErrNotExist", err)
	}
}

// TestFBMXShapeOverflowRejected is the regression test for the header
// size-check overflow: a CRC-valid header whose n*dim*8 wraps 64-bit
// arithmetic back to a tiny payload size must be rejected as corrupt,
// not accepted (which would panic DecodeFBMX's allocation and hand
// OpenFBMX a wildly out-of-bounds slice view).
func TestFBMXShapeOverflowRejected(t *testing.T) {
	// n*dim ≈ 2.3e18, so 8*n*dim mod 2^64 = 64: with naive byte-count
	// arithmetic this 4160-byte file (64-byte payload) looks exactly the
	// right size for a ~2^61-element collection.
	const n, dim = 1073807362, 2147352580
	data := make([]byte, fbmxHeaderPage+64)
	h := fbmxHeader{n: n, dim: dim, dataCRC: crc32.ChecksumIEEE(data[fbmxHeaderPage:]), labelsOff: uint64(len(data))}
	h.put(data)

	var un, ud uint64 = n, dim
	if wrapped := un * ud * 8; wrapped != 64 {
		t.Fatalf("test premise broken: 8*n*dim wraps to %d, want 64", wrapped)
	}
	if _, _, err := DecodeFBMX(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeFBMX accepted an overflowed shape: %v", err)
	}
	path := filepath.Join(t.TempDir(), "overflow.fbmx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mm, _, err := OpenFBMX(path)
	if err == nil {
		mm.Close()
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenFBMX accepted an overflowed shape: %v", err)
	}
}

// TestFBMXVersion1Refused: a version-1 image (the 32-byte header with no
// labels section) is refused as corrupt by both open paths, naming its
// version.
func TestFBMXVersion1Refused(t *testing.T) {
	data := make([]byte, fbmxHeaderPage+8*6)
	copy(data[0:4], fbmxMagic[:])
	binary.LittleEndian.PutUint32(data[4:8], 1)
	binary.LittleEndian.PutUint64(data[8:16], 3)
	binary.LittleEndian.PutUint64(data[16:24], 2)
	binary.LittleEndian.PutUint32(data[24:28], crc32.ChecksumIEEE(data[fbmxHeaderPage:]))
	binary.LittleEndian.PutUint32(data[28:32], crc32.ChecksumIEEE(data[:28]))
	if _, _, err := DecodeFBMX(data); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported FBMX version 1") {
		t.Fatalf("DecodeFBMX of a v1 image: %v, want ErrCorrupt naming version 1", err)
	}
	path := filepath.Join(t.TempDir(), "v1.fbmx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFBMX(path); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported FBMX version 1") {
		t.Fatalf("OpenFBMX of a v1 image: %v, want ErrCorrupt naming version 1", err)
	}
}

// TestFBMXAtomicWrite: a successful write leaves no temporary file, and
// writing over an existing collection replaces it whole.
func TestFBMXAtomicWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dir := t.TempDir()
	path := filepath.Join(dir, "coll.fbmx")
	first := randomMatrix(t, rng, 8, 4)
	if err := WriteFBMX(path, first, testLabels(first.Len())); err != nil {
		t.Fatal(err)
	}
	second := randomMatrix(t, rng, 9, 4)
	if err := WriteFBMX(path, second, testLabels(second.Len())); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temporary file left behind: %v", err)
	}
	mm, _, err := OpenFBMX(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !rowsBitwiseEqual(second, mm) {
		t.Error("rewrite did not replace the collection")
	}
	if err := WriteFBMX(filepath.Join(dir, "empty.fbmx"), nil, Labels{}); err == nil {
		t.Error("writing a nil matrix should fail")
	}
	if err := WriteFBMX(filepath.Join(dir, "unlabeled.fbmx"), second, testLabels(second.Len()-1)); err == nil {
		t.Error("writing labels for a different row count should fail")
	}
}

// TestCheckedBoundsSentinels is the satellite regression: row bounds
// violations on the serving path surface as errors.Is-able
// ErrOutOfRange, in the heap and file-opened, instead of slice-bounds
// panics.
func TestCheckedBoundsSentinels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(t, rng, 10, 3)
	mm, _, err := OpenFBMX(writeTempFBMX(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()

	for _, b := range []*Matrix{m, mm} {
		for _, i := range []int{-1, 10, 1 << 30} {
			if _, err := b.RowChecked(i); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("RowChecked(%d): %v, want ErrOutOfRange", i, err)
			}
		}
		if row, err := b.RowChecked(9); err != nil || len(row) != 3 {
			t.Errorf("RowChecked(9): %v, %v", row, err)
		}
	}
}

// TestMmapRowsAreReadOnlyViews documents the aliasing contract: rows of
// a mapped collection reflect the file, row for row identical to the
// heap matrix written.
func TestMmapRowsAreReadOnlyViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(t, rng, 5, 4)
	mm, _, err := OpenFBMX(writeTempFBMX(t, m))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if mm.Len() != 5 || len(mm.Row(2)) != 4 {
		t.Fatalf("mapped shape %dx%d", mm.Len(), len(mm.Row(2)))
	}
	for i := 0; i < mm.Len(); i++ {
		for j, v := range mm.Row(i) {
			if math.Float64bits(v) != math.Float64bits(m.Row(i)[j]) {
				t.Fatalf("row %d dim %d differs", i, j)
			}
		}
	}
}
