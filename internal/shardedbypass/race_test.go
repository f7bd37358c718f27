package shardedbypass

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestConcurrentShardTraffic hammers a durable sharded module with
// parallel writers and readers across every shard — the contention shape
// the partitioning exists to absorb. Run under -race (the package is in
// the CI race matrix); correctness here is "no race, no error, and every
// accepted insert is countable afterwards".
func TestConcurrentShardTraffic(t *testing.T) {
	const (
		d, p    = 4, 4
		shards  = 4
		writers = 4
		readers = 4
		perG    = 60
	)
	sh, err := Open(t.TempDir(), d, p, core.Config{Epsilon: 0}, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	// Pre-generate per-goroutine workloads (rand.Rand is not
	// goroutine-safe).
	points := make([][][]float64, writers+readers)
	oqps := make([][]core.OQP, writers)
	for g := 0; g < writers+readers; g++ {
		rng := rand.New(rand.NewSource(int64(300 + g)))
		points[g] = make([][]float64, perG)
		for i := range points[g] {
			points[g][i] = randomSimplexPoint(rng, d)
		}
		if g < writers {
			oqps[g] = make([]core.OQP, perG)
			for i := range oqps[g] {
				oqps[g][i] = randomOQP(rng, d, p)
			}
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, writers+readers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := sh.Insert(points[g][i], oqps[g][i]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	for g := writers; g < writers+readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := sh.Predict(points[g][i]); err != nil {
					errs[g] = err
					return
				}
				// Aggregations race against inserts by design; they must
				// stay consistent, not quiescent.
				_ = sh.Stats()
				_ = sh.ShardInfos()
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	var counted int64
	for _, info := range sh.ShardInfos() {
		counted += info.Inserts
	}
	if counted == 0 {
		t.Fatal("no insert was accepted")
	}
	if got := int64(sh.Journaled()); got != counted {
		t.Errorf("journaled %d records, counted %d accepted inserts", got, counted)
	}
}

// TestConcurrentOpenPredict exercises the async-open window: predictions
// issued while shards are still replaying either succeed or fail with
// ErrReplaying, never race or corrupt.
func TestConcurrentOpenPredict(t *testing.T) {
	const d, p, shards = 3, 3, 4
	cfg := core.Config{Epsilon: 0}
	dir := t.TempDir()
	// Seed the module with enough state that replay is not instant.
	seedRng := rand.New(rand.NewSource(71))
	seed, err := Open(dir, d, p, cfg, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := seed.Insert(randomSimplexPoint(seedRng, d), randomOQP(seedRng, d, p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	sh, err := OpenAsync(dir, d, p, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var wg sync.WaitGroup
	var raced error
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for i := 0; i < 50; i++ {
				_, err := sh.Predict(randomSimplexPoint(rng, d))
				if err != nil && !isReplaying(err) {
					mu.Lock()
					raced = err
					mu.Unlock()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if raced != nil {
		t.Fatalf("predict during async open: %v", raced)
	}
	if err := sh.WaitReady(); err != nil {
		t.Fatal(err)
	}
	if got := sh.Stats().Points; got == 0 {
		t.Fatal("recovered module is empty")
	}
}

// lifecycleModule is the surface TestConcurrentLifecycle drives.
type lifecycleModule struct {
	insert    func(q []float64, oqp core.OQP) (bool, error)
	predict   func(q []float64) (core.OQP, error)
	compact   func() error // CompactAged, then Compact
	read      func()       // the counter readers
	reclaimed func() uint64
	close     func() error
}

func shardedLifecycle(sh *Sharded) lifecycleModule {
	return lifecycleModule{sh.Insert, sh.Predict, func() error {
		if _, err := sh.CompactAged(); err != nil {
			return err
		}
		return sh.Compact()
	}, func() {
		_, _ = sh.ShardInfos(), sh.Journaled()
	}, func() (n uint64) {
		for _, info := range sh.ShardInfos() {
			n += info.Reclaimed
		}
		return n
	}, sh.Close}
}

// TestConcurrentLifecycle races the whole write path of one module —
// Insert with its quota compact-then-retry, CompactAged and Compact —
// against Predict and the counter readers (Journaled, WALSize,
// ShardInfos) on a core.DurableBypass and on memory and durable modules
// at S=3, with a quota and aging on. Run under -race; correctness here is
// "no race, no error but quota rejections, and aging reclaims".
func TestConcurrentLifecycle(t *testing.T) {
	const d, p, perG = 3, 2, 80
	cfg := core.Config{Epsilon: 0, MaxVertices: 36, AgeHorizon: 3}
	durable := core.DurableOptions{CompactEvery: 16}
	shapes := []struct {
		name string
		open func(dir string) (lifecycleModule, error)
	}{
		{"core.OpenDurable", func(dir string) (lifecycleModule, error) {
			db, err := core.OpenDurable(dir, d, p, cfg, durable)
			if err != nil {
				return lifecycleModule{}, err
			}
			return lifecycleModule{db.Insert, db.Predict, func() error {
				if _, err := db.CompactAged(); err != nil {
					return err
				}
				return db.Compact()
			}, func() {
				_, _, _ = db.Journaled(), db.WALSize(), db.Compactions()
			}, db.Reclaimed, db.Close}, nil
		}},
		{"memory S=3", func(string) (lifecycleModule, error) {
			sh, err := New(d, p, cfg, Options{Shards: 3})
			if err != nil {
				return lifecycleModule{}, err
			}
			return shardedLifecycle(sh), nil
		}},
		{"durable S=3", func(dir string) (lifecycleModule, error) {
			sh, err := Open(dir, d, p, cfg, Options{Shards: 3, Durable: durable})
			if err != nil {
				return lifecycleModule{}, err
			}
			return shardedLifecycle(sh), nil
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			m, err := shape.open(t.TempDir())
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
						if _, err := m.insert(q, randomOQP(rng, d, p)); err != nil && !errors.Is(err, core.ErrQuotaExceeded) {
							errs[g] = err
							return
						}
						if _, err := m.predict(q); err != nil {
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
					if err := m.compact(); err != nil {
						errs[writers] = err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					m.read()
				}
			}()
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", g, err)
				}
			}
			if m.reclaimed() == 0 {
				t.Error("no compaction reclaimed anything; the run misses the aging path")
			}
			if err := m.close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func isReplaying(err error) bool { return errors.Is(err, ErrReplaying) }
