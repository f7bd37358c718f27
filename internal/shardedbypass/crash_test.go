package shardedbypass

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
)

// TestMultiShardKillRecovery is the acceptance test of the sharded
// durability contract: a module abandoned mid-run without Close (the
// process-kill simulation), with acknowledged inserts landing in several
// shards, must recover every shard deterministically — per-shard stats
// and predictions bitwise-identical to an uncrashed in-memory twin that
// received the same insert stream.
func TestMultiShardKillRecovery(t *testing.T) {
	const d, p, shards = 4, 4, 4
	cfg := core.Config{Epsilon: 0.01}
	rng := rand.New(rand.NewSource(97))
	dir := t.TempDir()

	crashed, err := Open(dir, d, p, cfg, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(d, p, cfg, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}

	var qs [][]float64
	shardsTouched := map[int]bool{}
	for i := 0; i < 120; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		qs = append(qs, q)
		cc, err := crashed.Insert(q, oqp)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := twin.Insert(q, oqp)
		if err != nil {
			t.Fatal(err)
		}
		if cc != ct {
			t.Fatalf("insert %d: ε decision diverged between durable and twin", i)
		}
		if cc {
			shardsTouched[crashed.ShardOf(q)] = true
		}
	}
	if len(shardsTouched) < 2 {
		t.Fatalf("writes landed in %d shards, need ≥ 2 for this test to mean anything", len(shardsTouched))
	}
	// Crash: no Close, no Compact; the per-shard WAL handles are abandoned
	// mid-stream exactly as a kill -9 would leave them.

	recovered, err := Open(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got, want := recovered.Stats(), twin.Stats(); got != want {
		t.Errorf("recovered aggregate stats %+v, want %+v", got, want)
	}
	gotInfos, wantInfos := recovered.ShardInfos(), twin.ShardInfos()
	for i := range gotInfos {
		if gotInfos[i].Points != wantInfos[i].Points || gotInfos[i].Depth != wantInfos[i].Depth {
			t.Errorf("shard %d recovered shape (%d points, depth %d), twin (%d, %d)",
				i, gotInfos[i].Points, gotInfos[i].Depth, wantInfos[i].Points, wantInfos[i].Depth)
		}
		// Every record the crashed module journaled must have been replayed.
		if gotInfos[i].Journaled != int(wantInfos[i].Inserts) {
			t.Errorf("shard %d replayed %d journal records, twin accepted %d inserts",
				i, gotInfos[i].Journaled, wantInfos[i].Inserts)
		}
	}
	for _, q := range qs {
		ro, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		to, err := twin.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		samePrediction(t, "crash-recovery", ro, to)
	}
	// Fresh probes (not inserted points) must also agree: interpolation
	// inside every leaf, not just stored vertices.
	for i := 0; i < 40; i++ {
		q := randomSimplexPoint(rng, d)
		ro, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		to, err := twin.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		samePrediction(t, "crash-recovery-probe", ro, to)
	}
}

// TestTornShardCompaction covers a crash inside shard k's compaction,
// before its commit's rename: shard k then holds its intact log beside a
// temporary file with the new census, torn or whole. Recovery must read
// the log, drop the temporary file, and leave every other shard
// untouched.
func TestTornShardCompaction(t *testing.T) {
	const d, p, shards = 3, 3, 4
	cfg := core.Config{Epsilon: 0.01}
	rng := rand.New(rand.NewSource(101))
	dir := t.TempDir()

	sh, err := Open(dir, d, p, cfg, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]float64
	for i := 0; i < 80; i++ {
		q := randomSimplexPoint(rng, d)
		if _, err := sh.Insert(q, randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	want := make([]core.OQP, len(qs))
	for i, q := range qs {
		if want[i], err = sh.Predict(q); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := sh.Stats()

	// Pick a shard that actually holds points and leave the temporary
	// file of its cut-short compaction: the census it was committing,
	// torn in half.
	infos := sh.ShardInfos()
	torn := -1
	for i, info := range infos {
		if info.Inserts > 0 {
			torn = i
			break
		}
	}
	if torn < 0 {
		t.Fatal("no shard received an insert")
	}
	victim := sh.shards[torn].durable
	tmp := filepath.Join(shardDir(dir, torn, false), core.JournalFile+".tmp")
	if err := persist.SaveFile(tmp, victim.Tree()); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash (no Close) and recover.

	recovered, err := Open(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats(); got != wantStats {
		t.Errorf("recovery beside a torn commit changed the module: %+v, want %+v", got, wantStats)
	}
	for i, q := range qs {
		got, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		samePrediction(t, "torn-compaction", got, want[i])
	}
	onlyLogs(t, "after recovery", dir, shards, false)
}

// TestRetiredSnapshotDirRefused: a module directory holding a snapshot
// of the retired two-file format, at the root or in a shard, is refused
// with an error naming the file instead of opening as an empty module.
func TestRetiredSnapshotDirRefused(t *testing.T) {
	const d, p = 3, 3
	root := t.TempDir()
	sharded := t.TempDir()
	sh, err := Open(sharded, d, p, core.Config{}, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{
		filepath.Join(root, core.SnapshotFile),
		filepath.Join(shardDir(sharded, 1, false), core.SnapshotFile),
	} {
		if err := os.WriteFile(old, []byte("FBSX"), 0o644); err != nil {
			t.Fatal(err)
		}
		module := filepath.Dir(old)
		if module != root {
			module = sharded
		}
		if !HoldsModule(persist.OSFS, module) {
			t.Errorf("%s: HoldsModule = false", module)
		}
		if _, err := Open(module, d, p, core.Config{}, Options{}); err == nil || !strings.Contains(err.Error(), old) {
			t.Errorf("err = %v, want a refusal naming %s", err, old)
		}
	}
}
