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
	"errors"
	"math/rand"
	"os"
	"reflect"
	"testing"
)

// logImage builds a valid log through the real writer, for seeding: the
// census of a trained tree, then a journal of further inserts. With
// horizon > 0 the census is of an aged rebuild, whose corner stamps and
// clock run ahead of its survivors' stamps.
func logImage(tb testing.TB, d, n, inserts, journal int, horizon uint64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(44))
	tree := newTree(tb, d, n)
	growTree(tb, tree, inserts, rng)
	if horizon > 0 {
		aged, _, err := tree.RebuildAged(horizon)
		if err != nil {
			tb.Fatal(err)
		}
		tree = aged
	}
	path := tb.(interface{ TempDir() string }).TempDir() + "/seed.fbwl"
	w, err := CreateWAL(nil, path, tree)
	if err != nil {
		tb.Fatal(err)
	}
	tree.SetObserver(w.Append)
	growTree(tb, tree, journal, rng)
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
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(43)), records, dim, oqpDim)
	path := tb.(interface{ TempDir() string }).TempDir() + "/seed-v1.fbwl"
	writeV1WAL(tb, path, qs, vs)
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALReplay drives the log reader over arbitrary bytes. The recovery
// contract: parse or ErrCorrupt, never a panic, never an unclassifiable
// error. An accepted log must also round-trip: saving the tree it
// recovered and loading that again reproduces the tree exactly —
// structure, values, stamps, clock and point counter, the lifecycle
// state the aging horizon acts on.
func FuzzWALReplay(f *testing.F) {
	valid := logImage(f, 3, 6, 4, 3, 0)
	aged := logImage(f, 3, 6, 8, 2, 3)
	rec := walRecordSize(3, 6)
	flipped := append([]byte(nil), valid...)
	flipped[walHeaderSize+rec-5] ^= 0xff // census record 0's stamp → checksum mismatch
	badHeader := append([]byte(nil), valid...)
	badHeader[32] ^= 0xff // the clock → header checksum mismatch
	qs, vs := walRecordsForTest(rand.New(rand.NewSource(45)), 4, 3, 6)
	f.Add(valid)
	f.Add(aged)                          // corner stamps and clock past the survivors'
	f.Add(valid[:len(valid)-7])          // torn journal tail → tolerated
	f.Add(valid[:walHeaderSize+2*rec+9]) // torn census → ErrCorrupt
	f.Add(valid[:walHeaderSize])         // header alone
	f.Add(flipped)
	f.Add(badHeader)
	f.Add(walV2Image(qs, vs))                // version 2 → ErrCorrupt (unsupported version)
	f.Add(walV1Image(f, 3, 6, 4))            // legacy v1 → ErrCorrupt likewise
	f.Add([]byte{})                          // empty log → short header
	f.Add([]byte("FBWLgarbage............")) // bad header fields
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := load(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load returned a non-ErrCorrupt error: %v", err)
			}
			return
		}
		snap := tree.Snapshot()
		again, err := load(data)
		if err != nil || !reflect.DeepEqual(again.Snapshot(), snap) {
			t.Fatalf("load not deterministic: %v", err)
		}
		back, err := load(encodeCensus(tree.Census()))
		if err != nil {
			t.Fatalf("re-loading a re-encoded log failed: %v", err)
		}
		if !reflect.DeepEqual(back.Snapshot(), snap) {
			t.Fatal("tree not stable across a save/load round trip")
		}
	})
}
