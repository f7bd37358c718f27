package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/simplextree"
)

// vertexSet collects a tree's distinct vertices as bitwise keys
// (Point ++ Value, raw float64 bits) — the exact-recovery currency of
// the crash-schedule harness.
func vertexSet(tree *simplextree.Tree) map[string]bool {
	set := make(map[string]bool)
	c := tree.Census()
	for i := range c.Stamps {
		point, value, _ := c.At(i)
		buf := make([]byte, 0, 8*(len(point)+len(value)))
		var b [8]byte
		for _, x := range point {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		for _, x := range value {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			buf = append(buf, b[:]...)
		}
		set[string(buf)] = true
	}
	return set
}

// crashWorkload drives a fixed deterministic insert schedule against a
// DurableBypass opened through fs. It returns the module (nil when the
// open itself died at the crash point); insert errors are expected once
// the crash fires and are swallowed.
func crashWorkload(t *testing.T, dir string, fs *faultfs.FS) *DurableBypass {
	t.Helper()
	const d, p = 3, 2
	db, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{
		CompactEvery: 4,
		Sync:         true,
		FS:           fs,
	})
	if err != nil {
		return nil
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 12; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		_, _ = db.Insert(q, oqp) // post-crash failures are the point
	}
	return db
}

// TestCrashScheduleSingleTree enumerates every crash point along
// insert → WAL-append → compact for the single-tree layout: a counting
// run measures the schedule length M, then for each n in 1..M a fresh
// module runs the same workload with a kill at the nth mutating
// filesystem operation (torn write at the point itself, nothing after).
// Recovery from the real on-disk state must contain the crash-time
// in-memory tree bitwise: the write-ahead contract means the journal can
// never lag the tree, so nothing acknowledged may be missing. Recovery
// may exceed it by at most the one insert in flight at the crash — a
// record fully written whose fsync (or rollback-truncate) died is
// un-acknowledged but complete on disk, and replays. Recovery also
// removes the temporary file of a commit the crash cut short, so the
// directory holds the log alone.
func TestCrashScheduleSingleTree(t *testing.T) {
	const d, p = 3, 2

	counting := faultfs.New(nil)
	db := crashWorkload(t, t.TempDir(), counting)
	if db == nil {
		t.Fatal("counting run failed to open")
	}
	m := counting.Ops()
	if m < 20 {
		t.Fatalf("suspiciously short schedule: %d mutating ops", m)
	}
	if db.Journaled() >= 12 {
		t.Fatalf("no compaction happened in the workload (journaled=%d); the schedule misses the compact path", db.Journaled())
	}
	t.Logf("crash schedule: %d mutating filesystem operations", m)

	for n := 1; n <= m; n++ {
		dir := t.TempDir()
		fs := faultfs.New(nil)
		fs.SetCrashAt(n)
		db := crashWorkload(t, dir, fs)
		if !fs.Crashed() {
			t.Fatalf("crash point %d never fired", n)
		}
		var want map[string]bool
		if db != nil {
			want = vertexSet(db.Tree())
		}

		recovered, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{})
		if err != nil {
			t.Fatalf("crash point %d/%d: recovery failed: %v", n, m, err)
		}
		got := vertexSet(recovered.Tree())
		if err := recovered.Close(); err != nil {
			t.Fatalf("crash point %d/%d: closing recovered module: %v", n, m, err)
		}
		onlyLog(t, fmt.Sprintf("crash point %d/%d", n, m), dir)
		for k := range want {
			if !got[k] {
				t.Fatalf("crash point %d/%d: acknowledged vertex lost in recovery (%d recovered, %d expected)", n, m, len(got), len(want))
			}
		}
		if db != nil && len(got) > len(want)+1 {
			t.Fatalf("crash point %d/%d: recovered %d vertices, crash-time tree had %d (more than the one in-flight insert extra)", n, m, len(got), len(want))
		}
	}
}
