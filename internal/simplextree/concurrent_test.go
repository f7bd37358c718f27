package simplextree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/vec"
)

// buildTrainedTree grows a D-dimensional tree with n stored points and
// returns it with a fresh query workload.
func buildTrainedTree(t *testing.T, d, n, queries int, seed int64) (*Tree, [][]float64) {
	t.Helper()
	tr := newTestTree(t, d, make([]float64, 2*d), 0)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v := make([]float64, 2*d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tr.Insert(randomInterior(rng, d), v); err != nil {
			t.Fatal(err)
		}
	}
	qs := make([][]float64, queries)
	for i := range qs {
		qs[i] = randomInterior(rng, d)
	}
	return tr, qs
}

// TestPredictIntoAllocationFree pins the acceptance criterion of the
// concurrent prediction plane: after the scratch pool is warm, a lookup
// at the paper's D = 31 performs zero heap allocations.
func TestPredictIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation count is meaningless")
	}
	tr, qs := buildTrainedTree(t, 31, 100, 64, 41)
	dst := make([]float64, tr.OQPDim())
	// Warm the scratch pool.
	for _, q := range qs {
		if _, err := tr.PredictInto(dst, q); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := tr.PredictInto(dst, qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("PredictInto allocates %v objects per call, want 0", allocs)
	}
}

// TestConcurrentPredictBitwiseParity freezes a trained tree, computes the
// serial reference predictions, and asserts that concurrent readers —
// plain Predict and PredictInto goroutines racing each other — reproduce
// every reference bitwise.
func TestConcurrentPredictBitwiseParity(t *testing.T) {
	tr, qs := buildTrainedTree(t, 8, 150, 256, 43)
	want := make([][]float64, len(qs))
	for i, q := range qs {
		ref, err := tr.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref
	}
	const readers = 4
	errCh := make(chan error, 2*readers)
	var wg sync.WaitGroup
	check := func(i int, got []float64, path string) error {
		if !vec.Equal(got, want[i]) {
			return fmt.Errorf("%s: query %d: got %v, want %v", path, i, got, want[i])
		}
		return nil
	}
	for g := 0; g < readers; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, q := range qs {
				got, err := tr.Predict(q)
				if err == nil {
					err = check(i, got, "Predict")
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			dst := make([]float64, tr.OQPDim())
			for i, q := range qs {
				_, err := tr.PredictInto(dst, q)
				if err == nil {
					err = check(i, dst, "PredictInto")
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentReadersWithWriter interleaves predictions with inserts.
// Under a changing tree exact values are not pinned; the test asserts the
// read/write split stays memory-safe (run with -race) and that every
// prediction is a well-formed finite vector.
func TestConcurrentReadersWithWriter(t *testing.T) {
	tr, qs := buildTrainedTree(t, 6, 30, 128, 47)
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var writerWG, readerWG sync.WaitGroup

	writerWG.Add(1)
	go func() { // writer: keep splitting leaves
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(101))
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := make([]float64, tr.OQPDim())
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			if _, err := tr.Insert(randomInterior(rng, 6), v); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			dst := make([]float64, tr.OQPDim())
			for round := 0; round < 20; round++ {
				switch g % 3 {
				case 0:
					for _, q := range qs {
						if _, err := tr.PredictInto(dst, q); err != nil {
							errCh <- err
							return
						}
						if !vec.IsFinite(dst) {
							errCh <- fmt.Errorf("non-finite prediction %v", dst)
							return
						}
					}
				case 1:
					for _, q := range qs {
						o, err := tr.Predict(q)
						if err != nil {
							errCh <- err
							return
						}
						if len(o) != tr.OQPDim() || !vec.IsFinite(o) {
							errCh <- fmt.Errorf("malformed prediction %v", o)
							return
						}
					}
				default:
					tr.Stats()
					tr.Census()
				}
			}
		}(g)
	}
	// Readers run to completion against the live writer, then the writer
	// is stopped.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestLookupFailuresAreOutOfDomain asserts the satellite requirement that
// every position-caused lookup failure is classifiable with
// errors.Is(err, ErrOutOfDomain) on every read path.
func TestLookupFailuresAreOutOfDomain(t *testing.T) {
	tr, _ := buildTrainedTree(t, 4, 20, 0, 51)
	outside := []float64{0.9, 0.9, 0.9, 0.9} // Σ > 1: outside the standard simplex
	if _, err := tr.Predict(outside); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("Predict error %v is not ErrOutOfDomain", err)
	}
	if _, err := tr.PredictNaive(outside); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("PredictNaive error %v is not ErrOutOfDomain", err)
	}
	dst := make([]float64, tr.OQPDim())
	if _, err := tr.PredictInto(dst, outside); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("PredictInto error %v is not ErrOutOfDomain", err)
	}
	if _, err := tr.Insert(outside, make([]float64, tr.OQPDim())); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("Insert error %v is not ErrOutOfDomain", err)
	}
}

// TestInsertObserver verifies the write-path hook contract: the observer
// sees exactly the accepted inserts, in order, before the tree mutates,
// and an observer error aborts the insert leaving the tree unchanged.
func TestInsertObserver(t *testing.T) {
	tr := newTestTree(t, 3, []float64{0}, 0.5)
	type rec struct {
		q []float64
		v []float64
	}
	var seen []rec
	tr.SetObserver(func(q, value []float64, stamp uint64) error {
		seen = append(seen, rec{q: vec.Clone(q), v: vec.Clone(value)})
		return nil
	})
	q1 := []float64{0.2, 0.3, 0.2}
	if changed, err := tr.Insert(q1, []float64{2}); err != nil || !changed {
		t.Fatalf("insert 1: changed=%v err=%v", changed, err)
	}
	// Within ε of the new prediction: must be skipped AND unobserved.
	if changed, err := tr.Insert(q1, []float64{2.1}); err != nil || changed {
		t.Fatalf("insert 2: changed=%v err=%v, want skip", changed, err)
	}
	if len(seen) != 1 || !vec.Equal(seen[0].q, q1) || seen[0].v[0] != 2 {
		t.Fatalf("observer saw %v, want exactly the one accepted insert", seen)
	}

	// A failing observer aborts the insert with the tree unchanged.
	boom := errors.New("journal full")
	tr.SetObserver(func(q, value []float64, stamp uint64) error { return boom })
	before := tr.Stats()
	q2 := []float64{0.1, 0.15, 0.4}
	if _, err := tr.Insert(q2, []float64{9}); !errors.Is(err, boom) {
		t.Fatalf("insert with failing observer: err=%v, want %v", err, boom)
	}
	after := tr.Stats()
	if before != after {
		t.Errorf("tree changed despite observer failure: %+v -> %+v", before, after)
	}
	pred, err := tr.Predict(q2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred[0]-9) < 1 {
		t.Errorf("aborted insert leaked into predictions: %v", pred)
	}
}
