package core

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/persist"
)

// TestQuotaCompactRetryEveryShape pins the one compact-then-retry over a
// module without a log (New) and one with (OpenDurable): the same inserts return the
// same (changed, err) sequence, one aged compaction reclaims space for
// the insert that trips the quota, and the shapes end on the same
// stamped census. Geometry: d=3 gives 4 corners, quota 8 admits 4
// inserts; the 5th trips the quota at clock 4, and the horizon-2 cutoff
// reclaims the stamp-1 vertex.
func TestQuotaCompactRetryEveryShape(t *testing.T) {
	const d, p = 3, 2
	shapes := []struct {
		name string
		open func(dir string, cfg Config) (*Bypass, error)
	}{
		{"New", func(_ string, cfg Config) (*Bypass, error) {
			return New(d, p, cfg)
		}},
		{"OpenDurable", func(dir string, cfg Config) (*Bypass, error) {
			return OpenDurable(dir, d, p, cfg, DurableOptions{CompactEvery: 1 << 30, Sync: true})
		}},
	}

	// Every insert is acknowledged: the 5th after its compact-then-retry.
	const want = "[{true <nil>} {true <nil>} {true <nil>} {true <nil>} {true <nil>}]"
	type outcome struct {
		changed bool
		err     error
	}
	var wantCensus map[string]bool
	for _, shape := range shapes {
		m, err := shape.open(t.TempDir(), Config{Epsilon: 0, MaxVertices: 8, AgeHorizon: 2})
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		rng := rand.New(rand.NewSource(61))
		pts := make([][]float64, 5)
		var got []outcome
		for i := range pts {
			pts[i] = randomSimplexPoint(rng, d)
			changed, err := m.Insert(pts[i], randomOQP(rng, d, p))
			got = append(got, outcome{changed, err})
		}
		if fmt.Sprint(got) != want {
			t.Errorf("%s: (changed, err) sequence %v, want %s", shape.name, got, want)
		}
		if m.Compactions() != 1 || m.Reclaimed() == 0 {
			t.Errorf("%s: %d compactions reclaimed %d vertices, want 1 compaction reclaiming some", shape.name, m.Compactions(), m.Reclaimed())
		}
		tree := m.Tree()
		if !hasVertexAt(tree, pts[4]) {
			t.Errorf("%s: retried insert missing from the tree", shape.name)
		}
		if hasVertexAt(tree, pts[0]) {
			t.Errorf("%s: oldest vertex survived the quota-pressure compaction", shape.name)
		}
		census := stampedVertexSet(tree)
		if wantCensus == nil {
			wantCensus = census
		} else if !setEqual(census, wantCensus) {
			t.Errorf("%s: stamped census differs from %s's", shape.name, shapes[0].name)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%s: close: %v", shape.name, err)
		}
	}
}

// dirImage maps every file under dir, by its path relative to dir, to
// its bytes.
func dirImage(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	img := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil {
			img[strings.TrimPrefix(path, dir)] = data
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestPlainOpenCloseRewritesNothing: opening and closing a module with
// nothing inserted in between leaves every byte of its directory as it
// was.
func TestPlainOpenCloseRewritesNothing(t *testing.T) {
	const d, p = 3, 3
	dir := t.TempDir()
	cfg := Config{Epsilon: 0}
	db, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 12; i++ {
		if _, err := db.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
	}
	want := stampedVertexSet(db.Tree())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirImage(t, dir)
	re, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := stampedVertexSet(re.Tree()); !setEqual(got, want) {
		t.Fatalf("reopened census has %d vertices, want %d", len(got), len(want))
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a plain open/close changed the module directory")
	}
}

// TestTornShardCompaction covers a crash inside a compaction, before its
// commit's rename: the module directory then holds its intact log beside
// a temporary file with the new census, torn in half. Recovery must read
// the log, drop the temporary file, and serve the same tree.
func TestTornShardCompaction(t *testing.T) {
	const d, p = 3, 3
	cfg := Config{Epsilon: 0.01}
	rng := rand.New(rand.NewSource(101))
	dir := t.TempDir()

	db, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]float64
	for i := 0; i < 80; i++ {
		q := randomSimplexPoint(rng, d)
		if _, err := db.Insert(q, randomOQP(rng, d, p)); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	want := make([]OQP, len(qs))
	for i, q := range qs {
		if want[i], err = db.Predict(q); err != nil {
			t.Fatal(err)
		}
	}
	wantStats := db.Stats()

	tmp := filepath.Join(dir, JournalFile+".tmp")
	if err := persist.SaveFile(tmp, db.Tree()); err != nil {
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

	recovered, err := OpenDurable(dir, d, p, cfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	got := recovered.Stats()
	got.Bytes, wantStats.Bytes = 0, 0 // array capacity, sized to fit at recovery
	if got != wantStats {
		t.Errorf("recovery beside a torn commit changed the module: %+v, want %+v", got, wantStats)
	}
	for i, q := range qs {
		got, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("query %d: recovered prediction %+v, want %+v", i, got, want[i])
		}
	}
	onlyLog(t, "after recovery", dir)
}

// TestShardedLayoutRefused: a directory of the retired hash-sharded
// layout (a MANIFEST beside shard-NNN/ directories) is refused with an
// error naming the manifest and the move that keeps shard 0's state,
// and the directory is left as it was. After that move it opens.
func TestShardedLayoutRefused(t *testing.T) {
	const d, p = 3, 3
	dir := t.TempDir()
	shard := filepath.Join(dir, "shard-000")
	db, err := OpenDurable(shard, d, p, Config{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(randomSimplexPoint(rand.New(rand.NewSource(5)), d), randomOQP(rand.New(rand.NewSource(6)), d, p)); err != nil {
		t.Fatal(err)
	}
	want := stampedVertexSet(db.Tree())
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, manifestFile)
	if err := os.WriteFile(manifest, []byte("FBMN"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := ModuleFile(nil, dir); got != manifest {
		t.Errorf("ModuleFile = %q for a sharded layout, want %s", got, manifest)
	}
	before := dirImage(t, dir)
	_, err = OpenDurable(dir, d, p, Config{}, DurableOptions{})
	if err == nil || !strings.Contains(err.Error(), manifest) || !strings.Contains(err.Error(), filepath.Join(shard, JournalFile)) {
		t.Fatalf("err = %v, want a refusal naming %s and the shard log to move", err, manifest)
	}
	if after := dirImage(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("the refused open changed the directory")
	}

	// The migration the error gives.
	if err := os.Rename(filepath.Join(shard, JournalFile), filepath.Join(dir, JournalFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	migrated, err := OpenDurable(dir, d, p, Config{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer migrated.Close()
	if got := stampedVertexSet(migrated.Tree()); !setEqual(got, want) {
		t.Fatalf("migrated module holds %d vertices, want shard 0's %d", len(got), len(want))
	}
}

// TestConcurrentLifecycle races the whole write path of one module —
// Insert with its quota compact-then-retry and its CompactEvery trigger,
// and Compact — against Predict and the counter readers, on a memory
// module without and with the trigger and on a durable module, each with
// a quota and aging on. Run under -race; correctness here is "no race,
// no error but quota rejections, and aging reclaims".
func TestConcurrentLifecycle(t *testing.T) {
	const d, p, perG = 3, 2, 80
	cfg := Config{Epsilon: 0, MaxVertices: 36, AgeHorizon: 3}
	shapes := []struct {
		name string
		open func(dir string) (*Bypass, error)
	}{
		{"New", func(string) (*Bypass, error) { return New(d, p, cfg) }},
		{"CompactEvery", func(string) (*Bypass, error) {
			return OpenDurable("", d, p, cfg, DurableOptions{CompactEvery: 16})
		}},
		{"OpenDurable", func(dir string) (*Bypass, error) {
			return OpenDurable(dir, d, p, cfg, DurableOptions{CompactEvery: 16})
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			b, err := shape.open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			const writers = 2
			errs := make([]error, writers+1)
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(700 + g)))
					for i := 0; i < perG; i++ {
						q := randomSimplexPoint(rng, d)
						if _, err := b.Insert(q, randomOQP(rng, d, p)); err != nil && !errors.Is(err, ErrQuotaExceeded) {
							errs[g] = err
							return
						}
						if _, err := b.Predict(q); err != nil {
							errs[g] = err
							return
						}
					}
				}(g)
			}
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < perG/8; i++ {
					if err := b.Compact(); err != nil {
						errs[writers] = err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					_, _, _, _ = b.Stats(), b.Compactions(), b.Reclaimed(), b.Degraded()
					_, _ = b.Journaled(), b.WALSize()
				}
			}()
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", g, err)
				}
			}
			if b.Reclaimed() == 0 {
				t.Error("no compaction reclaimed anything; the run misses the aging path")
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
