package shardedbypass

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/simplextree"
)

// shardedVertexSet unions the bitwise (Point ++ Value) vertex keys of
// every live shard's tree. Shards share identical domain-corner
// vertices, which dedupe in the union.
func shardedVertexSet(s *Sharded) map[string]bool {
	set := make(map[string]bool)
	for i := range s.shards {
		p := s.shards[i]
		select {
		case <-p.ready:
		default:
			continue
		}
		if p.err != nil || p.byp == nil {
			continue
		}
		p.byp.Tree().Walk(func(v *simplextree.Vertex) { set[vertexKey(v)] = true })
	}
	return set
}

// vertexKey is a vertex's bitwise identity: Point ++ Value as raw float64
// bits.
func vertexKey(v *simplextree.Vertex) string {
	buf := make([]byte, 0, 8*(len(v.Point)+len(v.Value)))
	for _, x := range v.Point {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	for _, x := range v.Value {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return string(buf)
}

// onlyLogs fails unless every shard directory of the module at dir holds
// the shard's log alone and the module root holds nothing else of the
// layout: the manifest and the shard directories, or, in a root-layout
// module, the log alone. Recovery removes the temporary file of a
// commit a crash cut short.
func onlyLogs(t *testing.T, what, dir string, shards int, rootLayout bool) {
	t.Helper()
	want := func(d string, names ...string) {
		t.Helper()
		entries, err := os.ReadDir(d)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if fmt.Sprint(got) != fmt.Sprint(names) {
			t.Fatalf("%s: %s holds %v, want %v", what, d, got, names)
		}
	}
	if rootLayout {
		want(dir, core.JournalFile)
		return
	}
	names := []string{ManifestFile}
	for i := 0; i < shards; i++ {
		names = append(names, filepath.Base(shardDir(dir, i, false)))
		want(shardDir(dir, i, false), core.JournalFile)
	}
	want(dir, names...)
}

// shardedCrashWorkload opens the module at dir through fs with the given
// shard count and drives a fixed insert schedule. Returns nil when Open
// itself died at the crash point; insert errors after the crash are
// expected and swallowed.
func shardedCrashWorkload(t *testing.T, dir string, shards int, fs *faultfs.FS) *Sharded {
	t.Helper()
	const d, p = 3, 2
	sh, err := Open(dir, d, p, core.Config{Epsilon: 0}, Options{
		Shards: shards,
		Durable: core.DurableOptions{
			CompactEvery: 3,
			Sync:         true,
			FS:           fs,
		},
	})
	if err != nil {
		return nil
	}
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 12; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		_, _ = sh.Insert(q, oqp) // post-crash failures are the point
	}
	return sh
}

// TestCrashScheduleSharded enumerates every crash point along
// manifest-write → shard-open → insert → WAL-append → compact, at one
// shard (the MANIFEST + shard-000/ layout fbserve -dir builds by
// default) and at three. Shard recovery runs in parallel goroutines, so
// which operation is "nth" varies run to run — the property is stronger
// for it: from *any* reachable crash state, recovery on the real
// filesystem must reproduce every vertex the crash-time in-memory trees
// held (write-ahead: the journals never lag the trees), plus at most the
// one insert in flight at the crash, and leave every shard directory
// holding its log alone.
func TestCrashScheduleSharded(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testCrashScheduleSharded(t, shards)
		})
	}
}

func testCrashScheduleSharded(t *testing.T, shards int) {
	const d, p = 3, 2

	counting := faultfs.New(nil)
	countDir := t.TempDir()
	sh := shardedCrashWorkload(t, countDir, shards, counting)
	if sh == nil {
		t.Fatal("counting run failed to open")
	}
	for _, name := range []string{ManifestFile, "shard-000"} {
		if _, err := os.Stat(filepath.Join(countDir, name)); err != nil {
			t.Fatalf("the %d-shard layout lacks %s: %v", shards, name, err)
		}
	}
	m := counting.Ops()
	if m < 10*shards {
		t.Fatalf("suspiciously short schedule: %d mutating ops across %d shards", m, shards)
	}
	if sh.Journaled() >= 12 {
		t.Fatalf("no shard compacted in the workload (journaled=%d); the schedule misses the compact path", sh.Journaled())
	}
	t.Logf("crash schedule: %d mutating filesystem operations across %d shards", m, shards)

	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		sh := shardedCrashWorkload(t, dir, shards, fs)
		var want map[string]bool
		if sh != nil {
			want = shardedVertexSet(sh)
		}

		recovered, err := Open(dir, d, p, core.Config{Epsilon: 0}, Options{Shards: shards})
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := shardedVertexSet(recovered)
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}
		onlyLogs(t, fmt.Sprintf("crash point %d/%d", n, m), dir, shards, false)
		for k := range want {
			if !got[k] {
				t.Fatalf("crash point %d/%d: acknowledged vertex lost in recovery (%d recovered, %d expected)", n, m, len(got), len(want))
			}
		}
		if sh != nil && len(got) > len(want)+1 {
			t.Fatalf("crash point %d/%d: recovered %d vertices, crash-time trees had %d (more than the one in-flight insert extra)", n, m, len(got), len(want))
		}
	}
}

// seedRootModule writes a root-layout module at dir the way a
// pre-sharding deployment did — core.OpenDurable, a few inserts, a clean
// close — and returns its vertex census.
func seedRootModule(t *testing.T, dir string) map[string]bool {
	t.Helper()
	const d, p = 3, 2
	db, err := core.OpenDurable(dir, d, p, core.Config{Epsilon: 0}, core.DurableOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 4; i++ {
		if _, err := db.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
	}
	set := map[string]bool{}
	db.Tree().Walk(func(v *simplextree.Vertex) { set[vertexKey(v)] = true })
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCrashScheduleRootLayout enumerates every crash point along
// open → insert → WAL-append → compact for a root-layout module served
// through this package: whatever the crash state — including every step
// of a compaction's log commit — recovery keeps every vertex that was
// acknowledged (the seeded ones included), resurrects at most the one
// insert in flight, and the directory stays a root-layout one holding
// the log alone.
func TestCrashScheduleRootLayout(t *testing.T) {
	const d, p = 3, 2

	counting := faultfs.New(nil)
	countDir := t.TempDir()
	seedRootModule(t, countDir)
	sh := shardedCrashWorkload(t, countDir, 0, counting)
	if sh == nil {
		t.Fatal("counting run failed to open")
	}
	m := counting.Ops()
	if sh.Journaled() >= 12 {
		t.Fatalf("the shard never compacted in the workload (journaled=%d); the schedule misses the compact path", sh.Journaled())
	}
	t.Logf("crash schedule: %d mutating filesystem operations", m)

	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		want := seedRootModule(t, dir)
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		if sh := shardedCrashWorkload(t, dir, 0, fs); sh != nil {
			want = shardedVertexSet(sh)
		}

		recovered, err := Open(dir, d, p, core.Config{Epsilon: 0}, Options{})
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := shardedVertexSet(recovered)
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}
		onlyLogs(t, fmt.Sprintf("crash point %d/%d", n, m), dir, 1, true)
		for k := range want {
			if !got[k] {
				t.Fatalf("crash point %d/%d: acknowledged vertex lost in recovery (%d recovered, %d expected)", n, m, len(got), len(want))
			}
		}
		if len(got) > len(want)+1 {
			t.Fatalf("crash point %d/%d: recovered %d vertices, crash-time tree had %d (more than the one in-flight insert extra)", n, m, len(got), len(want))
		}
		for _, name := range []string{ManifestFile, "shard-000"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				t.Fatalf("crash point %d/%d: %s appeared in a root-layout module directory", n, m, name)
			}
		}
	}
}
