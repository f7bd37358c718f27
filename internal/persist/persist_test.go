package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simplextree"
	"repro/internal/vec"
)

// load reads a tree from a log image held in memory, the way LoadFile
// reads one from a file.
func load(img []byte) (*simplextree.Tree, error) {
	tree, _, _, err := readLog(bytes.NewReader(img), int64(len(img)))
	return tree, err
}

// simplexPoint draws a point strictly inside the standard D-simplex.
func simplexPoint(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d+1)
	var sum float64
	for j := range w {
		w[j] = 0.05 + rng.Float64()
		sum += w[j]
	}
	q := make([]float64, d)
	for j := 0; j < d; j++ {
		q[j] = w[j+1] / sum
	}
	return q
}

func newTree(tb testing.TB, d, n int) *simplextree.Tree {
	tb.Helper()
	tr, err := simplextree.New(d, vec.Zeros(n), simplextree.Options{Epsilon: 0.001})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

// growTree feeds tr inserts random in-domain inserts.
func growTree(tb testing.TB, tr *simplextree.Tree, inserts int, rng *rand.Rand) {
	tb.Helper()
	for i := 0; i < inserts; i++ {
		v := make([]float64, tr.OQPDim())
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tr.Insert(simplexPoint(rng, tr.Dim()), v); err != nil {
			tb.Fatal(err)
		}
	}
}

func buildTree(tb testing.TB, d, n, inserts int, seed int64) *simplextree.Tree {
	tb.Helper()
	tr := newTree(tb, d, n)
	growTree(tb, tr, inserts, rand.New(rand.NewSource(seed)))
	return tr
}

func roundTrip(t *testing.T, tr *simplextree.Tree) *simplextree.Tree {
	t.Helper()
	back, err := load(encodeCensus(tr.Census()))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func sameTree(t *testing.T, what string, got, want *simplextree.Tree) {
	t.Helper()
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("%s: tree is not Snapshot-equal (stats %+v, want %+v)", what, got.Stats(), want.Stats())
	}
}

func TestRoundTripEmptyTree(t *testing.T) {
	tr := buildTree(t, 3, 4, 0, 1)
	back := roundTrip(t, tr)
	if back.Dim() != 3 || back.OQPDim() != 4 || back.Stats().Points != 0 || back.Stats().Leaves != 1 {
		t.Errorf("shape: D=%d N=%d points=%d leaves=%d", back.Dim(), back.OQPDim(), back.Stats().Points, back.Stats().Leaves)
	}
	got, err := back.Predict([]float64{0.2, 0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, vec.Zeros(4), 1e-12) {
		t.Errorf("empty prediction = %v", got)
	}
}

func TestRoundTripPreservesPredictions(t *testing.T) {
	for _, d := range []int{2, 3, 7} {
		tr := buildTree(t, d, 2*d, 50, int64(d))
		back := roundTrip(t, tr)
		sameTree(t, "round trip", back, tr)
		if back.Epsilon() != tr.Epsilon() {
			t.Fatalf("d=%d: ε %v, want %v", d, back.Epsilon(), tr.Epsilon())
		}
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
			q := simplexPoint(rng, d)
			want, err1 := tr.Predict(q)
			got, err2 := back.Predict(q)
			if err1 != nil || err2 != nil {
				t.Fatalf("d=%d trial %d: %v, %v", d, trial, err1, err2)
			}
			if !vec.Equal(got, want) {
				t.Fatalf("d=%d trial %d: prediction %v vs %v", d, trial, got, want)
			}
		}
	}
}

func TestRoundTripAllowsFurtherInserts(t *testing.T) {
	tr := buildTree(t, 2, 2, 10, 7)
	back := roundTrip(t, tr)
	changed, err := back.Insert([]float64{0.123, 0.456}, []float64{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("insert into loaded tree should work")
	}
	got, err := back.Predict([]float64{0.123, 0.456})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, []float64{9, 9}, 1e-9) {
		t.Errorf("prediction after post-load insert = %v", got)
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.fbwl")
	tr := buildTree(t, 3, 3, 20, 3)
	if err := SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameTree(t, "SaveFile/LoadFile", back, tr)
	if _, err := LoadFile(filepath.Join(dir, "missing.fbwl")); err == nil {
		t.Error("missing file should error")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := load([]byte("NOPEnope")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
}

// TestLoadRejectsTruncation: a saved file is header and census only, and
// a file is published whole, so any cut is corruption (only a torn
// journal tail is tolerated, TestWALTruncatedTailTolerated).
func TestLoadRejectsTruncation(t *testing.T) {
	tr := buildTree(t, 2, 2, 10, 5)
	full := encodeCensus(tr.Census())
	for _, cut := range []int{0, 1, 4, 10, walHeaderSize, len(full) / 2, len(full) - 1} {
		if _, err := load(full[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	tr := buildTree(t, 2, 2, 15, 6)
	full := encodeCensus(tr.Census())
	rng := rand.New(rand.NewSource(8))
	rejected := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		corrupted := make([]byte, len(full))
		copy(corrupted, full)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := load(corrupted); err != nil {
			rejected++
		}
	}
	// Header and every census record carry a checksum; a flip survives
	// only if CRC-32 collides, which is vanishingly unlikely.
	if rejected != trials {
		t.Errorf("only %d/%d corruptions rejected", rejected, trials)
	}
}

// walV2Image builds a log of the retired version 2 by hand: a 24-byte
// header (magic, version, D, N, compaction epoch) and stamped records,
// with no census — the journal that extended an FBSX snapshot.
func walV2Image(qs, vs [][]float64) []byte {
	buf := append([]byte(nil), walMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, 2)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(qs[0])))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(vs[0])))
	buf = binary.LittleEndian.AppendUint64(buf, 3)
	for i := range qs {
		buf = appendRecord(buf, qs[i], vs[i], uint64(i+1))
	}
	return buf
}

// TestLoadRejectsWrongVersion: only version 3 loads. A well-formed
// version-2 log is refused exactly like a version from the future.
func TestLoadRejectsWrongVersion(t *testing.T) {
	tr := buildTree(t, 2, 2, 5, 9)
	future := encodeCensus(tr.Census())
	future[4] = 99 // version byte (little-endian uint32 after 4-byte magic)
	binary.LittleEndian.PutUint32(future[52:], crc32.ChecksumIEEE(future[:52]))
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(9)), 4, 2, 2)
	for name, img := range map[string][]byte{"v99": future, "v2": walV2Image(qs, vs)} {
		_, err := load(img)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported WAL version") {
			t.Errorf("%s: err = %v, want ErrCorrupt: unsupported WAL version", name, err)
		}
	}
}

// TestLoadRejectsNonFinite: a record holding NaN or ±Inf is corrupt even
// under a valid checksum — no such value enters a tree.
func TestLoadRejectsNonFinite(t *testing.T) {
	tr := buildTree(t, 2, 2, 3, 12)
	saved := encodeCensus(tr.Census())
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		img := append([]byte(nil), saved...)
		img = appendRecord(img, []float64{0.2, 0.2}, []float64{bad, 0}, 9)
		if _, err := load(img); !errors.Is(err, ErrCorrupt) {
			t.Errorf("journal value %v: err = %v, want ErrCorrupt", bad, err)
		}
	}
}

// TestLoadRejectsNonStandardCorners: a census's corners must be the
// standard simplex's bit for bit, so a log whose checksums hold but
// whose corner is moved, or whose origin is (−0, 0), is corrupt.
func TestLoadRejectsNonStandardCorners(t *testing.T) {
	tr := buildTree(t, 2, 2, 5, 13)
	for name, mutate := range map[string]func(c *simplextree.Census){
		"corner off the standard simplex": func(c *simplextree.Census) { c.Coords[2] = 2 },
		"negative zero corner coordinate": func(c *simplextree.Census) { c.Coords[0] = math.Copysign(0, -1) },
	} {
		c := tr.Census()
		mutate(c)
		_, err := load(encodeCensus(c))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "corner") {
			t.Errorf("%s: err = %v, want ErrCorrupt naming the corner", name, err)
		}
	}
}
