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
)

func walRecordsForTest(rng *rand.Rand, n, dim, oqpDim int) (qs, vs [][]float64) {
	for i := 0; i < n; i++ {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		v := make([]float64, oqpDim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		qs = append(qs, q)
		vs = append(vs, v)
	}
	return qs, vs
}

func appendAll(t *testing.T, w *WAL, qs, vs [][]float64) {
	t.Helper()
	for i := range qs {
		// Stamp records 1..n so round-trips can verify stamp persistence.
		if err := w.Append(qs[i], vs[i], uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	const dim, oqpDim = 3, 5
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(1)), 17, dim, oqpDim)

	w, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, qs, vs)
	if w.Records() != len(qs) {
		t.Errorf("records = %d, want %d", w.Records(), len(qs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: every record must be found, and replay must return them in
	// order.
	w2, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Records() != len(qs) {
		t.Errorf("reopened records = %d, want %d", w2.Records(), len(qs))
	}
	i := 0
	n, err := w2.Replay(func(q, v []float64, stamp uint64) error {
		if !equalFloats(q, qs[i]) || !equalFloats(v, vs[i]) {
			t.Errorf("record %d mismatch", i)
		}
		if stamp != uint64(i+1) {
			t.Errorf("record %d stamp = %d, want %d", i, stamp, i+1)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(qs) {
		t.Errorf("replayed %d, want %d", n, len(qs))
	}

	// Appending after reopen continues the log.
	if err := w2.Append(qs[0], vs[0], 99); err != nil {
		t.Fatal(err)
	}
	if w2.Records() != len(qs)+1 {
		t.Errorf("records after append = %d, want %d", w2.Records(), len(qs)+1)
	}
}

// TestWALTruncatedTailTolerated simulates a crash mid-append: the torn
// final record must be dropped by both Replay and OpenWAL, and the log
// must stay appendable.
func TestWALTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	const dim, oqpDim = 4, 6
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(2)), 9, dim, oqpDim)
	w, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, qs, vs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recSize := walRecordSize(dim, oqpDim)
	torn := data[:len(data)-recSize/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	n, err := ReplayWAL(bytes.NewReader(torn), dim, oqpDim, func(q, v []float64, stamp uint64) error { return nil })
	if err != nil {
		t.Fatalf("replay of torn log: %v", err)
	}
	if n != len(qs)-1 {
		t.Errorf("replayed %d, want %d (torn tail dropped)", n, len(qs)-1)
	}

	w2, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatalf("open of torn log: %v", err)
	}
	defer w2.Close()
	if w2.Records() != len(qs)-1 {
		t.Errorf("reopened records = %d, want %d", w2.Records(), len(qs)-1)
	}
	// The torn bytes must have been truncated away so the next append
	// lands on a record boundary.
	if err := w2.Append(qs[0], vs[0], 50); err != nil {
		t.Fatal(err)
	}
	n = 0
	if _, err := w2.Replay(func(q, v []float64, stamp uint64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != len(qs) {
		t.Errorf("after truncate+append replayed %d, want %d", n, len(qs))
	}
}

// TestWALCorruptChecksumErrors flips a payload byte of a complete record:
// replay and open must both fail with ErrCorrupt.
func TestWALCorruptChecksumErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	const dim, oqpDim = 2, 3
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(3)), 5, dim, oqpDim)
	w, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, qs, vs)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the third record's payload.
	recSize := walRecordSize(dim, oqpDim)
	data[walHeaderSize+2*recSize+5] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReplayWAL(bytes.NewReader(data), dim, oqpDim, func(q, v []float64, stamp uint64) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("replay of corrupt log: err = %v, want ErrCorrupt", err)
	}
	if _, err := OpenWAL(path, dim, oqpDim); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open of corrupt log: err = %v, want ErrCorrupt", err)
	}
}

func TestWALHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	w, err := OpenWAL(path, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Dimension mismatch must be rejected.
	if _, err := OpenWAL(path, 4, 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("dim mismatch: err = %v, want ErrCorrupt", err)
	}
	// Bad magic must be rejected.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path, 3, 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	// Append dimension validation.
	w2, err := OpenWAL(filepath.Join(dir, "y.fbwl"), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append([]float64{1, 2}, []float64{1, 2, 3, 4}, 1); err == nil {
		t.Error("short point accepted")
	}
	if err := w2.Append([]float64{1, 2, 3}, []float64{1}, 1); err == nil {
		t.Error("short value accepted")
	}
}

func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	const dim, oqpDim = 3, 3
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(4)), 6, dim, oqpDim)
	w, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, qs, vs)
	if err := w.Reset(7); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 0 {
		t.Errorf("records after reset = %d, want 0", w.Records())
	}
	if w.Epoch() != 7 {
		t.Errorf("epoch after reset = %d, want 7", w.Epoch())
	}
	n := 0
	if _, err := w.Replay(func(q, v []float64, stamp uint64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("replayed %d after reset, want 0", n)
	}
	// The log keeps working after a reset.
	if err := w.Append(qs[0], vs[0], 9); err != nil {
		t.Fatal(err)
	}
	if w.Records() != 1 {
		t.Errorf("records = %d, want 1", w.Records())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The epoch survives a reopen.
	w2, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Epoch() != 7 {
		t.Errorf("reopened epoch = %d, want 7", w2.Epoch())
	}
	if w2.Records() != 1 {
		t.Errorf("reopened records = %d, want 1", w2.Records())
	}
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

// TestWALV1Refused: a well-formed version-1 log is refused by open and
// by replay with ErrCorrupt naming the version, and the file is left as
// it was — a refused log is never "repaired" into an empty one.
func TestWALV1Refused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.fbwl")
	const dim, oqpDim = 3, 4
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(8)), 5, dim, oqpDim)
	writeV1WAL(t, path, qs, vs)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = OpenWAL(path, dim, oqpDim)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported WAL version 1") {
		t.Errorf("open of v1 log: err = %v, want ErrCorrupt: unsupported WAL version 1", err)
	}
	_, err = ReplayWAL(bytes.NewReader(before), dim, oqpDim, func(q, v []float64, stamp uint64) error {
		t.Error("v1 record replayed")
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("replay of v1 log: err = %v, want ErrCorrupt", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("refused v1 log was modified on disk")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWALTornHeaderRecovered covers a crash during header creation (or
// mid-Reset): a file shorter than the header holds no records, so
// reopening must rewrite the header instead of reporting corruption.
func TestWALTornHeaderRecovered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.fbwl")
	// A valid header, for tearing inside the epoch field.
	full, err := OpenWAL(path, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	validHdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, walHeaderPrefix - 1, walHeaderPrefix, walHeaderSize - 1} {
		if size < walHeaderPrefix {
			// Below the fixed prefix any content recovers; use zeros.
			if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
				t.Fatal(err)
			}
		} else {
			// At or past the fixed prefix the magic/version must be intact
			// (zeros there are corruption, not a torn header): tear a valid
			// header before its epoch field completes.
			if err := os.WriteFile(path, validHdr[:size], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := OpenWAL(path, 3, 4)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if w.Records() != 0 {
			t.Errorf("size %d: records = %d, want 0", size, w.Records())
		}
		if err := w.Append(make([]float64, 3), make([]float64, 4), 1); err != nil {
			t.Fatal(err)
		}
		n := 0
		if _, err := w.Replay(func(q, v []float64, stamp uint64) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("size %d: replayed %d, want 1", size, n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
