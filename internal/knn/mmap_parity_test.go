package knn

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/distance"
	"repro/internal/store"
)

// mmapTwin writes the collection to a temporary FBMX file and opens it
// back as an mmap-resident backend, so every test below can run the
// same query stream against heap- and file-resident storage.
func mmapTwin(t *testing.T, data [][]float64) (heap, mapped *Scan) {
	t.Helper()
	mat, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "twin.fbmx")
	if err := store.WriteFBMX(path, mat); err != nil {
		t.Fatal(err)
	}
	mm, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Verify(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	heap, err = NewScanBackend(mat)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err = NewScanBackend(mm)
	if err != nil {
		t.Fatal(err)
	}
	return heap, mapped
}

// TestMmapParityAllPaths mirrors the PR 1 parity suite across backends:
// for randomized dims (including the D=32 fast/asm paths), collection
// sizes, weights (with zeros), and tie-heavy data, the mmap-backed scan
// must return []Result bitwise identical to the heap-backed scan on
// every optimized path — naive Metric, squared-space kernel, and the
// per-path reference anchor SearchNaive.
func TestMmapParityAllPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	for _, dim := range []int{1, 3, 8, 32, 45} {
		for _, n := range []int{1, 60, 700} {
			data := randomCollection(rng, n, dim)
			heap, mapped := mmapTwin(t, data)
			for trial := 0; trial < 5; trial++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = rng.NormFloat64()
				}
				if trial == 0 {
					q = data[rng.Intn(n)]
				}
				w := make([]float64, dim)
				for j := range w {
					w[j] = rng.Float64() * 2
				}
				if trial%2 == 1 {
					for j := 0; j < dim-1; j++ {
						if rng.Float64() < 0.3 {
							w[j] = 0
						}
					}
				}
				wm, err := distance.NewWeightedEuclidean(w)
				if err != nil {
					t.Fatal(err)
				}
				k := 1 + rng.Intn(n+3)
				for _, m := range []distance.Metric{distance.Euclidean{}, wm, distance.Manhattan{}} {
					wantNaive, err := heap.SearchNaive(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					gotNaive, err := mapped.SearchNaive(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					if !resultsBitwiseEqual(gotNaive, wantNaive) {
						t.Fatalf("dim=%d n=%d k=%d %s: mmap naive != heap naive", dim, n, k, m.Name())
					}
					want, err := heap.Search(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					got, err := mapped.Search(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					if !resultsBitwiseEqual(got, want) {
						t.Fatalf("dim=%d n=%d k=%d %s: mmap kernel != heap kernel", dim, n, k, m.Name())
					}
					if !resultsBitwiseEqual(got, wantNaive) {
						t.Fatalf("dim=%d n=%d k=%d %s: mmap kernel != naive reference", dim, n, k, m.Name())
					}
				}
			}
		}
	}
}

// TestMmapParityTiledBatch pins the cache-tiled batch path — including
// the D=32 vertical cascade with its phase kernels on amd64 — and
// the mixed-metric SearchBatchMulti against the heap backend bitwise.
func TestMmapParityTiledBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(911))
	for _, dim := range []int{6, 32} {
		for _, n := range []int{40, DefaultBatchTile + 37, 2*DefaultBatchTile + 11} {
			data := randomCollection(rng, n, dim)
			heap, mapped := mmapTwin(t, data)
			qs := make([][]float64, 9)
			ms := make([]distance.Metric, len(qs))
			for i := range qs {
				qs[i] = data[rng.Intn(n)]
				w := make([]float64, dim)
				for j := range w {
					w[j] = 0.25 + rng.Float64()
				}
				if i%3 == 0 {
					ms[i] = distance.Euclidean{}
					continue
				}
				wm, err := distance.NewWeightedEuclidean(w)
				if err != nil {
					t.Fatal(err)
				}
				ms[i] = wm
			}
			k := 1 + rng.Intn(70)
			wantB, err := heap.SearchBatch(qs, k, distance.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := mapped.SearchBatch(qs, k, distance.Euclidean{})
			if err != nil {
				t.Fatal(err)
			}
			wantM, err := heap.SearchBatchMulti(qs, k, ms)
			if err != nil {
				t.Fatal(err)
			}
			gotM, err := mapped.SearchBatchMulti(qs, k, ms)
			if err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				if !resultsBitwiseEqual(gotB[i], wantB[i]) {
					t.Fatalf("dim=%d n=%d query %d: mmap SearchBatch != heap", dim, n, i)
				}
				if !resultsBitwiseEqual(gotM[i], wantM[i]) {
					t.Fatalf("dim=%d n=%d query %d: mmap SearchBatchMulti != heap", dim, n, i)
				}
			}
		}
	}
}

// TestMmapParityShardedScan drives the real goroutine fan-out of Search
// (a helper sharing the best-first queue) and the query-split batch
// under raised GOMAXPROCS on an mmap backend, anchored to the heap
// backend's naive path.
func TestMmapParityShardedScan(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(1011))
	data := randomCollection(rng, 3*minShardRows, 32)
	heap, mapped := mmapTwin(t, data)
	qs := make([][]float64, 8)
	for i := range qs {
		qs[i] = data[rng.Intn(len(data))]
	}
	m := distance.Euclidean{}
	batch, err := mapped.SearchBatch(qs, 40, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := heap.SearchNaive(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(batch[i], want) {
			t.Fatalf("mmap batch query %d diverges under GOMAXPROCS=4", i)
		}
		got, err := mapped.Search(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(got, want) {
			t.Fatalf("mmap sharded search query %d diverges under GOMAXPROCS=4", i)
		}
	}
	// The helper path's pull loop and merge, run in fixed orders over the
	// mmap backend (as TestParallelScanParity does on the heap).
	kern, ok := distance.KernelFor(m)
	if !ok {
		t.Fatal("no kernel for Euclidean")
	}
	q := qs[0]
	want, err := heap.SearchNaive(q, 25, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		if got := pullInOrder(mapped, q, 25, kern, workers, true); !resultsBitwiseEqual(got, want) {
			t.Fatalf("workers=%d: mmap shared scan != heap naive", workers)
		}
	}
}
