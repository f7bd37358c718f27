package shardedbypass

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/simplextree"
	"repro/internal/vec"
)

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

func randomOQP(rng *rand.Rand, d, p int) core.OQP {
	oqp := core.OQP{Delta: make([]float64, d), Weights: make([]float64, p)}
	for i := range oqp.Delta {
		oqp.Delta[i] = rng.NormFloat64() * 0.1
	}
	for i := range oqp.Weights {
		oqp.Weights[i] = rng.NormFloat64()
	}
	return oqp
}

func samePrediction(t *testing.T, label string, a, b core.OQP) {
	t.Helper()
	if !vec.Equal(a.Delta, b.Delta) || !vec.Equal(a.Weights, b.Weights) {
		t.Fatalf("%s: predictions diverge: %+v vs %+v", label, a, b)
	}
}

// TestSingleShardParity pins the compatibility mode: with S = 1 the
// sharded module must be bitwise-identical to a plain core.DurableBypass
// — same ε accept/reject decisions, same predictions, same on-disk WAL
// bytes, and the same state after a crash-reopen.
func TestSingleShardParity(t *testing.T) {
	const d, p = 4, 4
	cfg := core.Config{Epsilon: 0.01}
	rng := rand.New(rand.NewSource(7))

	plainDir, shardedDir := t.TempDir(), t.TempDir()
	plain, err := core.OpenDurable(plainDir, d, p, cfg, core.DurableOptions{CompactEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Open(shardedDir, d, p, cfg, Options{Shards: 1, Durable: core.DurableOptions{CompactEvery: 16}})
	if err != nil {
		t.Fatal(err)
	}

	var qs [][]float64
	for i := 0; i < 50; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		qs = append(qs, q)
		cp, err := plain.Insert(q, oqp)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := sharded.Insert(q, oqp)
		if err != nil {
			t.Fatal(err)
		}
		if cp != cs {
			t.Fatalf("insert %d: ε decision diverged (plain %v, sharded %v)", i, cp, cs)
		}
	}
	if ps, ss := plain.Stats(), sharded.Stats(); ps != ss {
		t.Fatalf("stats diverged: plain %+v, sharded %+v", ps, ss)
	}
	for _, q := range qs {
		po, err := plain.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		so, err := sharded.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		samePrediction(t, "live", po, so)
	}

	// The shard's journal must be byte-for-byte the single tree's journal.
	plainWAL, err := os.ReadFile(filepath.Join(plainDir, "tree.fbwl"))
	if err != nil {
		t.Fatal(err)
	}
	shardWAL, err := os.ReadFile(filepath.Join(shardDir(shardedDir, 0, false), "tree.fbwl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(plainWAL) != string(shardWAL) {
		t.Fatalf("WAL bytes diverge: plain %d bytes, shard-000 %d bytes", len(plainWAL), len(shardWAL))
	}

	// Crash both (no Close) and recover: still identical.
	plain2, err := core.OpenDurable(plainDir, d, p, cfg, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer plain2.Close()
	sharded2, err := Open(shardedDir, d, p, cfg, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded2.Close()
	if ps, ss := plain2.Stats(), sharded2.Stats(); ps != ss {
		t.Fatalf("recovered stats diverged: plain %+v, sharded %+v", ps, ss)
	}
	for _, q := range qs {
		po, err := plain2.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		so, err := sharded2.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		samePrediction(t, "recovered", po, so)
	}
}

// TestInsertRouting checks that inserts land in the shard the pinned
// partition function names, and only there.
func TestInsertRouting(t *testing.T) {
	const d, p, shards = 4, 4, 4
	rng := rand.New(rand.NewSource(21))
	sh, err := New(d, p, core.Config{Epsilon: 0}, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	wantPerShard := make([]int64, shards)
	for i := 0; i < 80; i++ {
		q := randomSimplexPoint(rng, d)
		changed, err := sh.Insert(q, randomOQP(rng, d, p))
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			wantPerShard[sh.ShardOf(q)]++
		}
	}
	infos := sh.ShardInfos()
	touched := 0
	for i, info := range infos {
		if info.Inserts != wantPerShard[i] {
			t.Errorf("shard %d: %d inserts, want %d", i, info.Inserts, wantPerShard[i])
		}
		if info.Inserts > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Fatalf("80 random inserts touched %d shards; want ≥ 2 (degenerate partition)", touched)
	}
	// The aggregate point count is the sum over shards.
	sum := 0
	for _, info := range infos {
		sum += info.Points
	}
	if got := sh.Stats().Points; got != sum {
		t.Errorf("aggregate Points %d != per-shard sum %d", got, sum)
	}
}

// TestInsertBatchMatchesSerial pins InsertBatch to repeated Insert calls
// on a twin: same accepted count, same per-shard state.
func TestInsertBatchMatchesSerial(t *testing.T) {
	const d, p, shards = 3, 3, 4
	rng := rand.New(rand.NewSource(31))
	batch, err := New(d, p, core.Config{Epsilon: 0.01}, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(d, p, core.Config{Epsilon: 0.01}, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([][]float64, 40)
	oqps := make([]core.OQP, 40)
	for i := range qs {
		qs[i] = randomSimplexPoint(rng, d)
		oqps[i] = randomOQP(rng, d, p)
	}
	stored, err := batch.InsertBatch(qs, oqps)
	if err != nil {
		t.Fatal(err)
	}
	serialStored := 0
	for i := range qs {
		changed, err := serial.Insert(qs[i], oqps[i])
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			serialStored++
		}
	}
	if stored != serialStored {
		t.Errorf("batch stored %d, serial stored %d", stored, serialStored)
	}
	for _, q := range qs {
		bo, err := batch.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		so, err := serial.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		samePrediction(t, "batch-vs-serial", bo, so)
	}
}

// TestManifestPinsLayout: reopening with a different shard count or
// geometry is refused; Shards = 0 adopts the manifest.
func TestManifestPinsLayout(t *testing.T) {
	const d, p = 3, 3
	dir := t.TempDir()
	cfg := core.Config{Epsilon: 0}
	sh, err := Open(dir, d, p, cfg, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, d, p, cfg, Options{Shards: 2}); err == nil {
		t.Fatal("reopening a 4-shard module with Shards=2 must fail")
	}
	if _, err := Open(dir, d+1, p, cfg, Options{Shards: 4}); err == nil {
		t.Fatal("reopening with a different D must fail")
	}
	adopted, err := Open(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatalf("Shards=0 should adopt the manifest: %v", err)
	}
	defer adopted.Close()
	if adopted.NumShards() != 4 {
		t.Fatalf("adopted %d shards, want 4", adopted.NumShards())
	}
	m, err := persist.LoadManifest(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if (m != persist.Manifest{Shards: 4, Dim: d, OQPDim: d + p}) {
		t.Fatalf("manifest %+v", m)
	}
}

// TestMissingShardDirRecovers: a crash between the manifest write and the
// creation of shard directories (or a manually deleted shard) recovers
// as an empty shard, not an error.
func TestMissingShardDirRecovers(t *testing.T) {
	const d, p = 3, 3
	dir := t.TempDir()
	cfg := core.Config{Epsilon: 0}
	sh, err := Open(dir, d, p, cfg, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 30; i++ {
		if _, err := sh.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(shardDir(dir, 1, false)); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatalf("reopen with missing shard dir: %v", err)
	}
	defer re.Close()
	infos := re.ShardInfos()
	if infos[1].Points != 0 {
		t.Errorf("wiped shard recovered %d points, want 0", infos[1].Points)
	}
}

// TestValidation covers the constructor guards.
func TestValidation(t *testing.T) {
	if _, err := New(0, 3, core.Config{}, Options{Shards: 2}); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := New(3, 3, core.Config{}, Options{Shards: -1}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(3, 3, core.Config{}, Options{Shards: MaxShards + 1}); err == nil {
		t.Error("absurd shard count accepted")
	}
	sh, err := New(3, 3, core.Config{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 1 {
		t.Errorf("default shard count %d, want 1", sh.NumShards())
	}
}

// TestReplayingSentinel: operations on a shard that has not finished
// recovery fail with ErrReplaying (errors.Is-able), and WaitReady clears
// the condition.
func TestReplayingSentinel(t *testing.T) {
	const d, p = 3, 3
	sh := &Sharded{d: d, p: p, shards: []*shard{{id: 0, ready: make(chan struct{})}}}
	q := []float64{0.2, 0.3, 0.4}
	if _, err := sh.Predict(q); !errors.Is(err, ErrReplaying) {
		t.Errorf("Predict during replay: %v, want ErrReplaying", err)
	}
	if _, err := sh.Insert(q, core.OQP{Delta: make([]float64, d), Weights: make([]float64, p)}); !errors.Is(err, ErrReplaying) {
		t.Errorf("Insert during replay: %v, want ErrReplaying", err)
	}
	if sh.Ready() {
		t.Error("Ready() true while a shard is replaying")
	}
	infos := sh.ShardInfos()
	if !infos[0].Replaying {
		t.Error("ShardInfos does not mark the replaying shard")
	}
	b, err := core.New(d, p, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sh.shards[0].byp = b
	close(sh.shards[0].ready)
	if err := sh.WaitReady(); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Predict(q); err != nil {
		t.Errorf("Predict after ready: %v", err)
	}
}

// dirImage reads every regular file under dir, keyed by relative path.
func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	img := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		img[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRootLayoutIsOneShard pins the path-mapping rule: a module written
// by core.OpenDurable at a directory root opens through this package as
// its one shard (Shards 0 or 1) with the same vertex census, keeps
// appending to the root-level files — no manifest, no shard-000/ ever
// appears — and asking it for more shards is still refused.
func TestRootLayoutIsOneShard(t *testing.T) {
	const d, p = 3, 3
	dir := t.TempDir()
	cfg := core.Config{Epsilon: 0}
	root, err := core.OpenDurable(dir, d, p, cfg, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 9; i++ {
		if _, err := root.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]bool{}
	root.Tree().Walk(func(v *simplextree.Vertex) { want[vertexKey(v)] = true })
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, d, p, cfg, Options{Shards: 4}); err == nil {
		t.Fatal("opening a root-layout module with Shards=4 must be refused")
	}

	before := dirImage(t, dir)
	for _, shards := range []int{0, 1} {
		sh, err := Open(dir, d, p, cfg, Options{Shards: shards})
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if sh.NumShards() != 1 {
			t.Fatalf("Shards=%d: opened as %d shards, want 1", shards, sh.NumShards())
		}
		if got := shardedVertexSet(sh); !shardedSetEqual(got, want) {
			t.Fatalf("Shards=%d: census has %d vertices, want the %d core.OpenDurable wrote", shards, len(got), len(want))
		}
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
		// A plain open/close rewrites nothing and adds nothing.
		if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("Shards=%d: a plain open/close changed the module directory", shards)
		}
	}

	// Inserts keep landing in the root-level journal.
	sh, err := Open(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
		t.Fatal(err)
	}
	want = shardedVertexSet(sh)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	after := dirImage(t, dir)
	if len(after[core.JournalFile]) <= len(before[core.JournalFile]) {
		t.Error("the insert did not grow the root-level journal")
	}
	for rel := range after {
		if rel != core.JournalFile && rel != core.SnapshotFile {
			t.Errorf("unexpected file %s in a root-layout module directory", rel)
		}
	}
	// And core.OpenDurable still reads what this package appended.
	root, err = core.OpenDurable(dir, d, p, cfg, core.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	got := map[string]bool{}
	root.Tree().Walk(func(v *simplextree.Vertex) { got[vertexKey(v)] = true })
	if !shardedSetEqual(got, want) {
		t.Fatalf("core.OpenDurable recovers %d vertices, want %d", len(got), len(want))
	}
}

// TestPlainOpenCloseRewritesNothing: opening and closing a manifest-layout
// module leaves every byte of its directory as it was.
func TestPlainOpenCloseRewritesNothing(t *testing.T) {
	const d, p = 3, 3
	dir := t.TempDir()
	cfg := core.Config{Epsilon: 0}
	sh, err := Open(dir, d, p, cfg, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 12; i++ {
		if _, err := sh.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
	}
	want := shardedVertexSet(sh)
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	re, err := Open(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := shardedVertexSet(re); !shardedSetEqual(got, want) {
		t.Fatalf("reopened census has %d vertices, want %d", len(got), len(want))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a plain open/close changed the module directory")
	}
}

// TestFailedRecoveryNotReady: a shard whose recovery failed must make
// Ready() false and Err() non-nil — a terminal state, distinct from the
// retryable Replaying window.
func TestFailedRecoveryNotReady(t *testing.T) {
	const d, p = 3, 3
	failed := make(chan struct{})
	close(failed)
	sh := &Sharded{d: d, p: p, shards: []*shard{
		{id: 0, ready: failed, err: errors.New("boom")},
	}}
	if sh.Ready() {
		t.Error("Ready() true with a failed shard")
	}
	if sh.Err() == nil {
		t.Error("Err() nil with a failed shard")
	}
	infos := sh.ShardInfos()
	if infos[0].Replaying {
		t.Error("failed shard reported as Replaying")
	}
	if infos[0].Error == "" {
		t.Error("failed shard's error not surfaced in ShardInfos")
	}
	// A still-replaying shard: Ready false, Err nil (retryable).
	sh2 := &Sharded{d: d, p: p, shards: []*shard{{id: 0, ready: make(chan struct{})}}}
	if sh2.Ready() || sh2.Err() != nil {
		t.Error("replaying shard must be not-ready with nil Err")
	}
}
