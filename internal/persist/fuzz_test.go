package persist

// Native fuzzers for the binary parsers that consume untrusted on-disk
// state. The contract under fuzzing is the recovery contract: any byte
// stream either parses, or fails with an error wrapping ErrCorrupt —
// never a panic, never an unclassifiable error, never an allocation
// driven by a corrupt length field. Seed corpora live under
// testdata/fuzz/ (one valid image plus truncation/bit-flip variants);
// CI runs each fuzzer briefly (-fuzztime) on top of the committed
// seeds, which always run as regular tests.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

// walImage builds a valid WAL byte image (header + records) through the
// real writer, for seeding.
func walImage(tb testing.TB, dim, oqpDim, records int) []byte {
	tb.Helper()
	path := tb.(interface{ TempDir() string }).TempDir() + "/seed.fbwl"
	w, err := OpenWAL(path, dim, oqpDim)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	q := make([]float64, dim)
	v := make([]float64, oqpDim)
	for r := 0; r < records; r++ {
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		if err := w.Append(q, v, uint64(r+1)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// walV1Image builds a legacy version-1 image (16-byte header, stampless
// records): no longer readable, kept as a seed so the fuzzer keeps
// proving the refusal is an ErrCorrupt and not a misparse.
func walV1Image(tb testing.TB, dim, oqpDim, records int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(43))
	var qs, vs [][]float64
	for r := 0; r < records; r++ {
		q := make([]float64, dim)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		v := make([]float64, oqpDim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		qs = append(qs, q)
		vs = append(vs, v)
	}
	path := tb.(interface{ TempDir() string }).TempDir() + "/seed-v1.fbwl"
	writeV1WAL(tb, path, qs, vs)
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALReplay drives ReplayWAL over arbitrary bytes. The first two
// input bytes pick the replay dimensions (so the fuzzer can also
// exercise header/shape mismatches); the rest is the log image.
func FuzzWALReplay(f *testing.F) {
	valid := walImage(f, 3, 6, 4)
	validV1 := walV1Image(f, 3, 6, 4)
	f.Add(append([]byte{2, 5}, valid...))                     // dims match (1+2=3, 1+5=6)
	f.Add(append([]byte{0, 0}, valid...))                     // dim mismatch → ErrCorrupt
	f.Add(append([]byte{2, 5}, valid[:len(valid)-7]...))      // torn tail record → tolerated
	f.Add(append([]byte{2, 5}, valid[:walHeaderSize-3]...))   // torn epoch field → ErrCorrupt
	f.Add(append([]byte{2, 5}, validV1...))                   // legacy v1 → ErrCorrupt (unsupported version)
	f.Add(append([]byte{2, 5}, validV1[:len(validV1)-5]...))  // v1 torn tail → ErrCorrupt likewise
	f.Add([]byte{2, 5})                                       // empty log → short header
	f.Add(append([]byte{2, 5}, []byte("FBWLgarbage....")...)) // bad header fields
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim := 1 + int(data[0])%8
		oqpDim := 1 + int(data[1])%8
		img := data[2:]

		replayed := 0
		n, err := ReplayWAL(bytes.NewReader(img), dim, oqpDim, func(q, value []float64, stamp uint64) error {
			if len(q) != dim || len(value) != oqpDim {
				t.Fatalf("replay handed %d/%d-dim record, want %d/%d", len(q), len(value), dim, oqpDim)
			}
			replayed++
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("ReplayWAL returned a non-ErrCorrupt error: %v", err)
		}
		if n != replayed {
			t.Fatalf("ReplayWAL reported %d records, callback saw %d", n, replayed)
		}
		// A replayed record must have fit inside the input.
		if err == nil && n > 0 {
			max := (len(img) - walHeaderSize) / walRecordSize(dim, oqpDim)
			if n > max {
				t.Fatalf("replayed %d records from %d bytes (max %d)", n, len(img), max)
			}
		}
		// Determinism: a second replay of the same bytes sees the same
		// outcome.
		n2, err2 := ReplayWAL(bytes.NewReader(img), dim, oqpDim, func(q, value []float64, stamp uint64) error { return nil })
		if n2 != n || (err == nil) != (err2 == nil) {
			t.Fatalf("replay not deterministic: (%d, %v) then (%d, %v)", n, err, n2, err2)
		}
	})
}

// fbsxImage builds a valid version-2 snapshot image (with live clock,
// stamps and a nonzero epoch) through the real writer, for seeding.
func fbsxImage(tb testing.TB, d, n, inserts int, epoch uint64) []byte {
	tb.Helper()
	tr, err := simplextree.New(geom.StandardSimplex(d), vec.Zeros(n), simplextree.Options{Epsilon: 0.001})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < inserts; i++ {
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
		v := make([]float64, n)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tr.Insert(q, v); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveEpoch(&buf, tr, epoch); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fbsxV1Image rewrites a version-2 snapshot image into the legacy
// version-1 layout (no epoch/clock header fields, stampless vertices):
// a well-formed image of a version the loader must refuse.
func fbsxV1Image(tb testing.TB, v2 []byte) []byte {
	tb.Helper()
	dim := int(binary.LittleEndian.Uint32(v2[8:12]))
	oqp := int(binary.LittleEndian.Uint32(v2[12:16]))
	nVerts := int(binary.LittleEndian.Uint32(v2[52:56]))
	vsz := 8*dim + 8*oqp + 8 // v2 vertex: point, value, stamp
	vtab := 56
	nodes := vtab + nVerts*vsz
	out := make([]byte, 0, len(v2))
	out = append(out, v2[0:4]...) // magic
	out = binary.LittleEndian.AppendUint32(out, 1)
	out = append(out, v2[8:36]...)  // dim..points (epoch+clock dropped)
	out = append(out, v2[52:56]...) // nVerts
	for i := 0; i < nVerts; i++ {
		off := vtab + i*vsz
		out = append(out, v2[off:off+vsz-8]...) // drop the stamp
	}
	out = append(out, v2[nodes:len(v2)-4]...) // node section
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// FuzzFBSX drives the snapshot loader over arbitrary bytes. The
// recovery contract: parse or ErrCorrupt, never a panic, never an
// unclassifiable error. An accepted image must additionally round-trip:
// re-saving the loaded tree and re-loading it reproduces the snapshot
// (vertices, stamps, clock, epoch) exactly — the lifecycle fields the
// aging horizon acts on survive the trip bitwise.
func FuzzFBSX(f *testing.F) {
	valid := fbsxImage(f, 3, 6, 4, 7)
	validV1 := fbsxV1Image(f, valid)
	f.Add(valid)
	f.Add(validV1)                       // legacy v1 → ErrCorrupt (unsupported version)
	f.Add(valid[:36])                    // torn lifecycle header
	f.Add(valid[:52])                    // torn clock field
	f.Add(valid[:len(valid)-3])          // torn checksum
	f.Add(validV1[:len(validV1)-5])      // torn v1 tail
	f.Add([]byte("FBSXgarbage........")) // bad header fields
	flipped := append([]byte(nil), valid...)
	flipped[56+8*3+8*6] ^= 0xff // bit-flip in vertex 0's stamp → checksum mismatch
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, epoch, err := LoadWithEpoch(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadWithEpoch returned a non-ErrCorrupt error: %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := SaveEpoch(&buf, tr, epoch); err != nil {
			t.Fatalf("re-saving an accepted snapshot failed: %v", err)
		}
		tr2, epoch2, err := LoadWithEpoch(&buf)
		if err != nil {
			t.Fatalf("re-loading a re-saved snapshot failed: %v", err)
		}
		if epoch2 != epoch {
			t.Fatalf("epoch changed across round-trip: %d then %d", epoch, epoch2)
		}
		if !reflect.DeepEqual(tr.Snapshot(), tr2.Snapshot()) {
			t.Fatal("snapshot not stable across save/load round-trip")
		}
	})
}

// FuzzManifest drives DecodeManifest over arbitrary bytes.
func FuzzManifest(f *testing.F) {
	var valid bytes.Buffer
	{
		dir := f.TempDir()
		if err := SaveManifest(dir+"/MANIFEST", Manifest{Shards: 4, Dim: 31, OQPDim: 62}); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(dir + "/MANIFEST")
		if err != nil {
			f.Fatal(err)
		}
		valid.Write(data)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:12])                       // truncated
	f.Add(append(valid.Bytes(), 0))                 // trailing byte
	f.Add([]byte("FBMNxxxxxxxxxxxxxxxxxxxx"))       // right size, bad fields
	f.Add(bytes.Repeat([]byte{0xff}, manifestSize)) // right size, junk
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeManifest returned a non-ErrCorrupt error: %v", err)
			}
			return
		}
		if m.Shards <= 0 || m.Dim <= 0 || m.OQPDim <= 0 ||
			m.Shards > maxSaneCount || m.Dim > maxSaneCount || m.OQPDim > maxSaneCount {
			t.Fatalf("DecodeManifest accepted implausible manifest %+v", m)
		}
	})
}
