package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/simplextree"
)

// TestFbtreeSmoke runs the built fbtree on a log that persist writes: a
// census and a journal tail. The header lines must describe the tree that
// wrote the log, and the -predict lines must print what Tree.PredictInto
// gives at that point. The same log with its origin corner rewritten to
// (−0, 0, 0), its checksum fixed, is not the standard simplex's and must
// make fbtree exit non-zero.
func TestFbtreeSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fbtree")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const d, n = 3, 4
	tree, err := simplextree.New(d, make([]float64, n), simplextree.Options{Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "tree.fbwl")
	rng := rand.New(rand.NewSource(5))
	insert := func(count int) {
		for i := 0; i < count; i++ {
			w := []float64{0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64(), 0.1 + rng.Float64()}
			s := w[0] + w[1] + w[2] + w[3]
			v := make([]float64, n)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if _, err := tree.Insert([]float64{w[1] / s, w[2] / s, w[3] / s}, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(30)
	wal, err := persist.CreateWAL(nil, path, tree)
	if err != nil {
		t.Fatal(err)
	}
	tree.SetObserver(wal.Append)
	insert(10)
	if wal.Records() == 0 {
		t.Fatal("no insert reached the journal")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	q := []float64{0.1, 0.25, 0.3}
	out, err := exec.Command(bin, "-file", path, "-predict", "0.1, 0.25,0.3").CombinedOutput()
	if err != nil {
		t.Fatalf("fbtree: %v\n%s", err, out)
	}
	st := tree.Stats()
	oqp := make([]float64, n)
	pst, err := tree.PredictInto(oqp, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"file:               " + path,
		fmt.Sprintf("query dimension D:  %d", d),
		fmt.Sprintf("OQP dimension N:    %d", n),
		fmt.Sprintf("insert threshold ε: %g", tree.Epsilon()),
		fmt.Sprintf("stored points:      %d", st.Points),
		fmt.Sprintf("distinct vertices:  %d", st.DistinctVertices),
		fmt.Sprintf("nodes / leaves:     %d / %d", st.Nodes, st.Leaves),
		fmt.Sprintf("depth (max/avg):    %d / %.2f", st.Depth, st.AvgLeafDepth),
		fmt.Sprintf("prediction at %v:", q),
		fmt.Sprintf("  simplices traversed: %d", pst.Traversed),
		fmt.Sprintf("  OQP vector: %v", oqp),
	} {
		if !strings.Contains(string(out), line+"\n") {
			t.Errorf("output lacks the line %q:\n%s", line, out)
		}
	}

	// The census's first record is the origin: its first coordinate
	// starts right after the 56-byte header, and the record's checksum
	// covers q, value and stamp.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const header, payload = 56, 8*(d+n) + 8
	binary.LittleEndian.PutUint64(img[header:], math.Float64bits(math.Copysign(0, -1)))
	binary.LittleEndian.PutUint32(img[header+payload:], crc32.ChecksumIEEE(img[header:header+payload]))
	bad := filepath.Join(dir, "bad.fbwl")
	if err := os.WriteFile(bad, img, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "-file", bad).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "corner") {
		t.Errorf("a log whose origin is (−0, 0, 0): err %v, output %q; want a non-zero exit naming the corner", err, out)
	}
}
