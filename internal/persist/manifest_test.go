package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST")
	want := Manifest{Shards: 8, Dim: 31, OQPDim: 62}
	if err := SaveManifestFS(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifestFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("loaded %+v, want %+v", got, want)
	}
	// Overwriting is atomic and idempotent.
	if err := SaveManifestFS(nil, path, want); err != nil {
		t.Fatal(err)
	}
	if got, err = LoadManifestFS(nil, path); err != nil || got != want {
		t.Errorf("after rewrite: %+v, %v", got, err)
	}
}

func TestManifestMissing(t *testing.T) {
	_, err := LoadManifestFS(nil, filepath.Join(t.TempDir(), "MANIFEST"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing manifest: got %v, want os.ErrNotExist", err)
	}
}

func TestManifestCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST")
	if err := SaveManifestFS(nil, path, Manifest{Shards: 4, Dim: 3, OQPDim: 6}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"truncated":    data[:len(data)-3],
		"bad magic":    append([]byte("XXXX"), data[4:]...),
		"flipped bits": flip(data, 9),
		"trailing":     append(append([]byte{}, data...), 0),
	}
	for name, mut := range cases {
		p := filepath.Join(dir, "bad-"+name)
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifestFS(nil, p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestManifestValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST")
	for _, m := range []Manifest{
		{Shards: 0, Dim: 3, OQPDim: 6},
		{Shards: 4, Dim: 0, OQPDim: 6},
		{Shards: 4, Dim: 3, OQPDim: -1},
	} {
		if err := SaveManifestFS(nil, path, m); err == nil {
			t.Errorf("SaveManifestFS accepted invalid %+v", m)
		}
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte{}, data...)
	out[i] ^= 0x40
	return out
}
