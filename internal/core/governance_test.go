package core

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/vec"
)

// TestQuotaRejectsInserts: a vertex quota lets exactly the headroom in,
// rejects the rest with the typed sentinel, and leaves predictions
// bitwise-identical to an unbounded twin fed only the accepted inserts.
func TestQuotaRejectsInserts(t *testing.T) {
	const d, p = 3, 2
	const headroom = 3
	rng := rand.New(rand.NewSource(51))

	quotaCfg := Config{Epsilon: 0, MaxVertices: d + 1 + headroom}
	db, err := OpenDurable(t.TempDir(), d, p, quotaCfg, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	twin, err := New(d, p, Config{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}

	var accepted, rejected int
	var qs [][]float64
	for i := 0; i < headroom+4; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		qs = append(qs, q)
		_, err := db.Insert(q, oqp)
		switch {
		case err == nil:
			accepted++
			if _, terr := twin.Insert(q, oqp); terr != nil {
				t.Fatal(terr)
			}
		case errors.Is(err, ErrQuotaExceeded):
			rejected++
		default:
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if accepted != headroom || rejected != 4 {
		t.Fatalf("accepted %d / rejected %d, want %d / 4", accepted, rejected, headroom)
	}
	if db.Degraded() != nil {
		t.Fatal("quota exhaustion must not flip degraded mode")
	}
	for i, q := range qs {
		got, err := db.Predict(q)
		if err != nil {
			t.Fatalf("quota-full predict %d: %v", i, err)
		}
		want, err := twin.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			t.Fatalf("prediction %d diverged from healthy twin under quota", i)
		}
	}
}

// TestQuotaRecoveryExempt: lowering the quota below a module's persisted
// size must not break recovery — the module reopens, serves reads, and
// rejects further growth.
func TestQuotaRecoveryExempt(t *testing.T) {
	const d, p = 3, 2
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(53))

	db, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var qs [][]float64
	for i := 0; i < 6; i++ {
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
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with a quota far below the six stored inserts.
	tight := Config{Epsilon: 0, MaxVertices: d + 2}
	recovered, err := OpenDurable(dir, d, p, tight, DurableOptions{})
	if err != nil {
		t.Fatalf("recovery with lowered quota failed: %v", err)
	}
	defer recovered.Close()
	for i, q := range qs {
		got, err := recovered.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(got.Delta, want[i].Delta) || !vec.Equal(got.Weights, want[i].Weights) {
			t.Fatalf("prediction %d diverged after over-quota recovery", i)
		}
	}
	if _, err := recovered.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota insert = %v, want ErrQuotaExceeded", err)
	}
}

// TestDegradedReadOnlyServing: when the disk under the journal goes bad,
// the module flips sticky read-only — typed rejections on every insert,
// predictions bitwise-identical to a healthy twin holding the same
// acknowledged state, concurrent readers unharmed — and reopening on a
// healthy disk recovers exactly the acknowledged inserts.
func TestDegradedReadOnlyServing(t *testing.T) {
	const d, p = 3, 2
	rng := rand.New(rand.NewSource(55))
	fs := faultfs.New(nil)
	dir := t.TempDir()

	db, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(d, p, Config{Epsilon: 0})
	if err != nil {
		t.Fatal(err)
	}

	var qs [][]float64
	for i := 0; i < 5; i++ {
		q := randomSimplexPoint(rng, d)
		oqp := randomOQP(rng, d, p)
		if _, err := db.Insert(q, oqp); err != nil {
			t.Fatal(err)
		}
		if _, err := twin.Insert(q, oqp); err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}

	// The disk goes bad: every further journal write fails.
	fs.AddRule(faultfs.Rule{Op: faultfs.OpWrite, Path: JournalFile, Nth: 0, Kind: faultfs.Fail})

	q := randomSimplexPoint(rng, d)
	if _, err := db.Insert(q, randomOQP(rng, d, p)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("first failed insert = %v, want ErrDegraded", err)
	}
	if db.Degraded() == nil {
		t.Fatal("module not marked degraded")
	}
	// The flip is sticky and fails fast without touching the disk.
	opsBefore := fs.Ops()
	if _, err := db.Insert(randomSimplexPoint(rng, d), randomOQP(rng, d, p)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded insert = %v, want ErrDegraded", err)
	}
	if fs.Ops() != opsBefore {
		t.Fatal("degraded insert touched the disk")
	}
	if err := db.Compact(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded compact = %v, want ErrDegraded", err)
	}

	// Reads stay live and bitwise-correct while degraded, including
	// under concurrency.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				got, err := db.Predict(q)
				if err != nil {
					t.Errorf("degraded predict %d: %v", i, err)
					return
				}
				want, err := twin.Predict(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
					t.Errorf("prediction %d diverged from healthy twin while degraded", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Reopen on a healthy disk: every acknowledged insert is back, bitwise,
	// and none of the rejected ones.
	_ = db.Close() // the journal disk is still bad
	recovered, err := OpenDurable(dir, d, p, Config{Epsilon: 0}, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen on a healthy disk: %v", err)
	}
	defer recovered.Close()
	if got, want := recovered.Stats().Points, twin.Stats().Points; got != want {
		t.Fatalf("recovered tree holds %d points, the twin %d", got, want)
	}
	for i, q := range qs {
		got, err := recovered.Predict(q)
		if err != nil {
			t.Fatalf("recovered predict %d: %v", i, err)
		}
		want, err := twin.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.Equal(got.Delta, want.Delta) || !vec.Equal(got.Weights, want.Weights) {
			t.Fatalf("prediction %d diverged from healthy twin after reopen", i)
		}
	}
}

// TestConcurrentInsertsRaceQuotaFlip: many goroutines race the quota
// boundary; exactly the headroom lands, every loser gets the typed
// sentinel, and the tree stays consistent (run with -race).
func TestConcurrentInsertsRaceQuotaFlip(t *testing.T) {
	const d, p = 3, 2
	const headroom = 5
	rng := rand.New(rand.NewSource(57))

	db, err := OpenDurable(t.TempDir(), d, p, Config{Epsilon: 0, MaxVertices: d + 1 + headroom}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const workers = 8
	const perWorker = 2
	points := make([][]float64, workers*perWorker)
	oqps := make([]OQP, len(points))
	for i := range points {
		points[i] = randomSimplexPoint(rng, d)
		oqps[i] = randomOQP(rng, d, p)
	}

	var accepted, quotaRejected, unexpected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				i := w*perWorker + k
				_, err := db.Insert(points[i], oqps[i])
				mu.Lock()
				switch {
				case err == nil:
					accepted++
				case errors.Is(err, ErrQuotaExceeded):
					quotaRejected++
				default:
					unexpected++
					t.Errorf("insert %d: %v", i, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if unexpected != 0 {
		t.Fatalf("%d unexpected errors", unexpected)
	}
	if accepted != headroom {
		t.Fatalf("accepted %d inserts, want exactly the %d headroom", accepted, headroom)
	}
	if quotaRejected != int64(len(points))-headroom {
		t.Fatalf("quota-rejected %d, want %d", quotaRejected, int64(len(points))-headroom)
	}
	if st := db.Stats(); st.DistinctVertices != d+1+headroom {
		t.Fatalf("tree holds %d vertices, want %d", st.DistinctVertices, d+1+headroom)
	}
}
