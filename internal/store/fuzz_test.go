package store

// Native fuzzer for the FBMX collection parser, completing the fuzz
// plane over the three binary formats (WAL and manifest fuzzers live in
// internal/persist). Contract: any byte stream either decodes into a
// well-shaped matrix with one label per row or fails with an error
// wrapping ErrCorrupt — never a panic, and never an allocation larger
// than the input itself (a corrupt shape or count field must not become
// a multi-gigabyte make).

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// fbmxImage builds a valid FBMX byte image through the real writer.
func fbmxImage(tb testing.TB, n, dim int) []byte {
	tb.Helper()
	m, err := NewMatrix(n, dim)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	path := filepath.Join(tb.(interface{ TempDir() string }).TempDir(), "seed.fbmx")
	if err := WriteFBMX(path, m, testLabels(n)); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func FuzzFBMX(f *testing.F) {
	valid := fbmxImage(f, 6, 4)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])            // truncated payload
	f.Add(valid[:fbmxHeaderPage])          // header page only
	f.Add(append([]byte{}, valid[:40]...)) // torn header page
	f.Add(bytes.Repeat([]byte{0}, 64))     // zeros
	flipped := append([]byte{}, valid...)
	flipped[9] ^= 0x40 // header shape bit
	f.Add(flipped)
	labelsFlip := append([]byte{}, valid...)
	labelsFlip[len(labelsFlip)-3] ^= 0x01 // a row's theme id, under the labels CRC
	f.Add(labelsFlip)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, labels, err := DecodeFBMX(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeFBMX returned a non-ErrCorrupt error: %v", err)
			}
			return
		}
		if m.Len() <= 0 || m.Dim() <= 0 {
			t.Fatalf("DecodeFBMX accepted empty shape %dx%d", m.Len(), m.Dim())
		}
		// The accepted shape and labels are bounded by the input's own
		// size: the labels section holds at least its two counts and two
		// ids per row.
		if least := fbmxHeaderPage + 8*m.Len()*m.Dim() + 8 + 8*m.Len(); least > len(data) {
			t.Fatalf("decoded %dx%d from %d bytes, want at least %d", m.Len(), m.Dim(), len(data), least)
		}
		if len(labels.Category) != m.Len() || len(labels.Theme) != m.Len() || len(labels.QueryCats) > m.Len() {
			t.Fatalf("decoded %d categories, %d themes and %d query categories for %d rows",
				len(labels.Category), len(labels.Theme), len(labels.QueryCats), m.Len())
		}
		// Accessors over an accepted image must be in-bounds and
		// consistent.
		if got := len(m.Slab(0, m.Len())); got != m.Len()*m.Dim() {
			t.Fatalf("full slab has %d elements, want %d", got, m.Len()*m.Dim())
		}
		if _, err := m.RowChecked(m.Len()); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("RowChecked past the end: %v", err)
		}
	})
}
