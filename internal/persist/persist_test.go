package persist

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

func buildTree(t *testing.T, d, n, inserts int, seed int64) *simplextree.Tree {
	t.Helper()
	def := vec.Zeros(n)
	tr, err := simplextree.New(geom.StandardSimplex(d), def, simplextree.Options{Epsilon: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
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
			t.Fatal(err)
		}
	}
	return tr
}

func roundTrip(t *testing.T, tr *simplextree.Tree) *simplextree.Tree {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestRoundTripEmptyTree(t *testing.T) {
	tr := buildTree(t, 3, 4, 0, 1)
	back := roundTrip(t, tr)
	if back.Dim() != 3 || back.OQPDim() != 4 || back.NumPoints() != 0 || back.NumLeaves() != 1 {
		t.Errorf("shape: D=%d N=%d points=%d leaves=%d", back.Dim(), back.OQPDim(), back.NumPoints(), back.NumLeaves())
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
		if back.NumPoints() != tr.NumPoints() || back.NumLeaves() != tr.NumLeaves() || back.Epsilon() != tr.Epsilon() {
			t.Fatalf("d=%d: shape mismatch", d)
		}
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
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
			want, err1 := tr.Predict(q)
			got, err2 := back.Predict(q)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("d=%d trial %d: error mismatch %v vs %v", d, trial, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !vec.EqualTol(got, want, 1e-12) {
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
	path := filepath.Join(dir, "tree.fbsx")
	tr := buildTree(t, 3, 3, 20, 3)
	if err := SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPoints() != tr.NumPoints() {
		t.Errorf("points %d vs %d", back.NumPoints(), tr.NumPoints())
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.fbsx")); err == nil {
		t.Error("missing file should error")
	}
}

func TestSaveNil(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, nil); err == nil {
		t.Error("nil tree should error")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOPEnope"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	tr := buildTree(t, 2, 2, 10, 5)
	var buf bytes.Buffer
	if err := Save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 4, 10, len(full) / 2, len(full) - 1} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d should error", cut)
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	tr := buildTree(t, 2, 2, 15, 6)
	var buf bytes.Buffer
	if err := Save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rng := rand.New(rand.NewSource(8))
	rejected := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		corrupted := make([]byte, len(full))
		copy(corrupted, full)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Load(bytes.NewReader(corrupted)); err != nil {
			rejected++
		}
	}
	// Every structural flip must be caught by the checksum or validation;
	// the only survivable flips would be inside the checksum itself
	// colliding, which CRC32 makes vanishingly unlikely at this size.
	if rejected != trials {
		t.Errorf("only %d/%d corruptions rejected", rejected, trials)
	}
}

// TestLoadRejectsWrongVersion: only the current version loads. A
// well-formed legacy version-1 image is refused exactly like a version
// from the future.
func TestLoadRejectsWrongVersion(t *testing.T) {
	tr := buildTree(t, 2, 2, 5, 9)
	var buf bytes.Buffer
	if err := Save(&buf, tr); err != nil {
		t.Fatal(err)
	}
	future := append([]byte(nil), buf.Bytes()...)
	future[4] = 99 // version byte (little-endian uint32 after 4-byte magic)
	for name, img := range map[string][]byte{"v99": future, "v1": fbsxV1Image(t, buf.Bytes())} {
		_, err := Load(bytes.NewReader(img))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
			t.Errorf("%s: err = %v, want ErrCorrupt: unsupported version", name, err)
		}
	}
}

func TestSnapshotValidationCatchesTampering(t *testing.T) {
	tr := buildTree(t, 2, 2, 10, 10)
	snap := tr.Snapshot()
	// Break the child/parent vertex-sharing invariant.
	if len(snap.Root.Children) > 0 {
		snap.Root.Children[0].Verts[0] = snap.Root.Children[0].Verts[1]
		if _, err := simplextree.FromSnapshot(snap); err == nil {
			t.Error("tampered snapshot should fail validation")
		}
	}
}

func TestFromSnapshotNil(t *testing.T) {
	if _, err := simplextree.FromSnapshot(nil); err == nil {
		t.Error("nil snapshot should error")
	}
}
