package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
	"repro/internal/vec"
)

func saveSnapshotForTest(path string, db *DurableBypass) error {
	return persist.SaveFile(path, db.Tree())
}

func randomSimplexPoint(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d+1)
	var sum float64
	for i := range w {
		w[i] = 0.05 + rng.Float64()
		sum += w[i]
	}
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = w[i+1] / sum
	}
	return q
}

func randomOQP(rng *rand.Rand, d, p int) OQP {
	oqp := OQP{Delta: make([]float64, d), Weights: make([]float64, p)}
	for i := range oqp.Delta {
		oqp.Delta[i] = rng.NormFloat64() * 0.1
	}
	for i := range oqp.Weights {
		oqp.Weights[i] = rng.NormFloat64()
	}
	return oqp
}

// TestDurableKillRecovery is the acceptance test of the durability
// contract: a DurableBypass abandoned mid-run without Close (the
// process-kill simulation) must recover every acknowledged insert via
// snapshot + WAL replay, with bitwise-identical predictions.
func TestDurableKillRecovery(t *testing.T) {
	dir := t.TempDir()
	const d, p = 4, 4
	rng := rand.New(rand.NewSource(11))

	db, err := OpenDurable(dir, d, p, Config{Epsilon: 0.01}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]float64
	for i := 0; i < 40; i++ {
		q := randomSimplexPoint(rng, d)
		if _, err := db.Insert(q, randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	// Reference predictions at the moment of the "crash".
	want := make([]OQP, len(qs))
	for i, q := range qs {
		if want[i], err = db.Predict(q); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := db.Stats()
	// Crash: no Close, no Compact. The file handles are abandoned.

	recovered, err := OpenDurable(dir, d, p, Config{Epsilon: 0.01}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	gotStats := recovered.Stats()
	if gotStats != wantStats {
		t.Errorf("recovered stats %+v, want %+v", gotStats, wantStats)
	}
	for i, q := range qs {
		got, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(got.Delta, want[i].Delta) || !vec.Equal(got.Weights, want[i].Weights) {
			t.Fatalf("prediction %d diverged after recovery: %+v vs %+v", i, got, want[i])
		}
	}
}

// TestDurableCompaction verifies snapshot + log truncation: automatic
// compaction keeps the journal short, and recovery after compaction (with
// more inserts journaled on top) still reproduces the full state.
func TestDurableCompaction(t *testing.T) {
	dir := t.TempDir()
	const d, p = 3, 3
	rng := rand.New(rand.NewSource(13))

	db, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{CompactEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]float64
	for i := 0; i < 25; i++ {
		q := randomSimplexPoint(rng, d)
		if _, err := db.Insert(q, randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	// 25 accepted inserts with CompactEvery=10: at least two compactions
	// happened, so the journal holds fewer than 10 records.
	if j := db.Journaled(); j >= 10 {
		t.Errorf("journaled = %d after auto-compaction, want < 10", j)
	}
	if _, err := os.Stat(filepath.Join(dir, SnapshotFile)); err != nil {
		t.Errorf("no snapshot after compaction: %v", err)
	}
	want := make([]OQP, len(qs))
	for i, q := range qs {
		if want[i], err = db.Predict(q); err != nil {
			t.Fatal(err)
		}
	}
	// Crash and recover.
	recovered, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for i, q := range qs {
		got, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(got.Delta, want[i].Delta) || !vec.Equal(got.Weights, want[i].Weights) {
			t.Fatalf("prediction %d diverged after compacted recovery", i)
		}
	}
}

// TestDurableReplayIdempotent covers the crash window between the
// snapshot rename and the journal truncation: the journal then still
// holds records already baked into the snapshot, and replay must skip
// them instead of corrupting the tree. ε = 0 is the hard case —
// interpolation rounding defeats the ε skip there, and only the tree's
// exact-duplicate vertex-update check keeps replay idempotent.
func TestDurableReplayIdempotent(t *testing.T) {
	for _, epsilon := range []float64{0, 0.01} {
		t.Run(fmt.Sprintf("epsilon=%g", epsilon), func(t *testing.T) {
			dir := t.TempDir()
			const d, p = 3, 3
			rng := rand.New(rand.NewSource(17))
			cfg := Config{Epsilon: epsilon}

			db, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var qs [][]float64
			for i := 0; i < 12; i++ {
				q := randomSimplexPoint(rng, d)
				if _, err := db.Insert(q, randomOQP(rng, d, p)); err != nil {
					t.Fatal(err)
				}
				qs = append(qs, q)
			}
			wantStats := db.Stats()
			want := make([]OQP, len(qs))
			for i, q := range qs {
				if want[i], err = db.Predict(q); err != nil {
					t.Fatal(err)
				}
			}
			// Simulate the torn compaction: write the snapshot but leave
			// the journal untouched (as if the crash hit before WAL.Reset).
			if err := saveSnapshotForTest(filepath.Join(dir, SnapshotFile), db); err != nil {
				t.Fatal(err)
			}

			recovered, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if got := recovered.Stats(); got != wantStats {
				t.Errorf("double-replay changed the tree: %+v, want %+v", got, wantStats)
			}
			for i, q := range qs {
				got, err := recovered.Predict(q)
				if err != nil {
					t.Fatal(err)
				}
				if !vec.Equal(got.Delta, want[i].Delta) || !vec.Equal(got.Weights, want[i].Weights) {
					t.Fatalf("prediction %d diverged after double replay", i)
				}
			}
		})
	}
}
