package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vec"
)

// onlyLog fails unless dir holds exactly one file, the module's log.
func onlyLog(t *testing.T, what, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != JournalFile {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("%s: the module directory holds %v, want [%s] alone", what, names, JournalFile)
	}
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
// contract: a module with a log abandoned mid-run without Close (the
// process-kill simulation) must recover every acknowledged insert via
// census + journal replay, with bitwise-identical predictions.
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
	// Bytes is array capacity: a recovered tree is sized to fit, a grown
	// one ahead of use.
	gotStats.Bytes, wantStats.Bytes = 0, 0
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

// TestDurableCompaction verifies that automatic compaction keeps the
// journal short, and recovery after compaction (with
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
	onlyLog(t, "after compactions", dir)
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

// TestDurableReplayIdempotent: journal records a census already covers
// replay as no-ops. No commit can leave such a log — a compaction
// replaces census and journal in one rename — so the test builds one by
// hand: the census of the final tree followed by the whole journal that
// grew it. ε = 0 is the hard case: interpolation rounding defeats the ε
// skip there, and only the tree's exact-duplicate vertex-update check
// keeps replay idempotent.
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
			fresh := db.WALSize()
			for i := 0; i < 12; i++ {
				if _, err := db.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
					t.Fatal(err)
				}
			}
			want := db.Tree().Snapshot()
			path := filepath.Join(dir, JournalFile)
			grown, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			census, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(census, grown[fresh:]...), 0o644); err != nil {
				t.Fatal(err)
			}

			recovered, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if got := recovered.Tree().Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("double replay changed the tree: %+v, want %+v", recovered.Stats(), db.Stats())
			}
		})
	}
}

// TestRecoveryIsSnapshotEqual: the tree a module recovers is
// Snapshot-equal to the one it held — structure, values, stamps, clock
// and point counter — after a kill with a journal pending, after
// Compact, and after a Compact that reclaimed aged vertices; and at D = 31, the
// durable workload's dimension, after a kill with a census of over 300
// points and a journal pending.
func TestRecoveryIsSnapshotEqual(t *testing.T) {
	r := newRecoveryRig(t, 3, 2, Config{Epsilon: 0.01, AgeHorizon: 6}, 19)
	r.insert(15)
	r.reopen("a kill with 15 journaled inserts")
	if err := r.db.Compact(); err != nil {
		t.Fatal(err)
	}
	r.reopen("Compact")
	r.insert(10)
	reclaimed := r.db.Reclaimed()
	if err := r.db.Compact(); err != nil || r.db.Reclaimed() == reclaimed {
		t.Fatalf("Compact: %v, reclaimed %d vertices before it and %d after", err, reclaimed, r.db.Reclaimed())
	}
	r.reopen("a reclaiming Compact")
	r.insert(4)
	r.reopen("a kill after a reclaiming Compact")
	r.close("at the end")

	r = newRecoveryRig(t, 31, 31, Config{Epsilon: 0.01}, 23)
	r.insert(320)
	if err := r.db.Compact(); err != nil {
		t.Fatal(err)
	}
	r.insert(40)
	if pts, journaled := r.db.Stats().Points, r.db.Journaled(); pts < 300 || journaled == 0 {
		t.Fatalf("D=31: %d points with %d journaled, want ≥ 300 and a pending journal", pts, journaled)
	}
	r.reopen("D=31: a kill with a census and a pending journal")
	r.close("D=31: at the end")
}

// recoveryRig is one durable module under TestRecoveryIsSnapshotEqual:
// random inserts, every fifth re-storing an earlier point (a vertex
// update), and reopens compared by Snapshot.
type recoveryRig struct {
	t    *testing.T
	dir  string
	d, p int
	cfg  Config
	db   *Bypass
	rng  *rand.Rand
	pts  [][]float64
}

func newRecoveryRig(t *testing.T, d, p int, cfg Config, seed int64) *recoveryRig {
	t.Helper()
	r := &recoveryRig{t: t, dir: t.TempDir(), d: d, p: p, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	db, err := OpenDurable(r.dir, d, p, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r.db = db
	return r
}

func (r *recoveryRig) insert(n int) {
	r.t.Helper()
	for i := 0; i < n; i++ {
		q := randomSimplexPoint(r.rng, r.d)
		if i%5 == 4 {
			q = r.pts[r.rng.Intn(len(r.pts))] // a vertex update
		}
		if _, err := r.db.Insert(q, randomOQP(r.rng, r.d, r.p)); err != nil {
			r.t.Fatal(err)
		}
		r.pts = append(r.pts, q)
	}
}

// reopen recovers a second module from the directory, as after a kill,
// and holds its tree to the live one.
func (r *recoveryRig) reopen(what string) {
	r.t.Helper()
	want := r.db.Tree().Snapshot()
	back, err := OpenDurable(r.dir, r.d, r.p, r.cfg, DurableOptions{})
	if err != nil {
		r.t.Fatalf("%s: %v", what, err)
	}
	defer back.Close()
	if !reflect.DeepEqual(back.Tree().Snapshot(), want) {
		r.t.Fatalf("%s: recovered %+v, not Snapshot-equal to %+v", what, back.Stats(), r.db.Stats())
	}
}

func (r *recoveryRig) close(what string) {
	r.t.Helper()
	if err := r.db.Close(); err != nil {
		r.t.Fatal(err)
	}
	onlyLog(r.t, what, r.dir)
}

// TestRetiredSnapshotRefused: a directory holding a snapshot of the
// retired two-file format is refused with an error naming the file, and
// left as it was.
func TestRetiredSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, SnapshotFile)
	if err := os.WriteFile(old, []byte("FBSX\x02\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDurable(dir, 3, 3, Config{}, DurableOptions{})
	if err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("err = %v, want a refusal naming %s", err, old)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("the refused directory holds %d files, want the snapshot alone", len(entries))
	}
}
