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
// back as a mapped matrix, so every test below can run the same query
// stream against heap- and file-resident storage.
func mmapTwin(t *testing.T, data [][]float64) (heap, mapped *Scan) {
	t.Helper()
	heapB, mappedB := twinMatrices(t, data)
	heap, err := NewScanBackend(heapB)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err = NewScanBackend(mappedB)
	if err != nil {
		t.Fatal(err)
	}
	return heap, mapped
}

// twinMatrices returns data as a heap matrix and as its mapped twin,
// before any scan is built over them.
func twinMatrices(t *testing.T, data [][]float64) (heap, mapped *store.Matrix) {
	t.Helper()
	mat, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "twin.fbmx")
	unlabeled := store.Labels{Category: make([]string, mat.Len()), Theme: make([]string, mat.Len())}
	if err := store.WriteFBMX(path, mat, unlabeled); err != nil {
		t.Fatal(err)
	}
	mm, _, err := store.OpenFBMX(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	return mat, mm
}

// TestMmapParityAllPaths mirrors the PR 1 parity suite across residencies:
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
				for _, m := range []distance.Metric{euclidean(dim), wm, manhattan{}} {
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

// TestMmapParityParallelBuild drives the two-goroutine build of the scan
// (inHalves) under raised GOMAXPROCS on a mapped matrix, and a lone
// Search there, anchored to the heap matrix's naive path.
func TestMmapParityParallelBuild(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(1011))
	data := randomCollection(rng, 3*minShardRows, 32)
	heap, mapped := mmapTwin(t, data)
	qs := make([][]float64, 8)
	for i := range qs {
		qs[i] = data[rng.Intn(len(data))]
	}
	m := euclidean(32)
	for i, q := range qs {
		want, err := heap.SearchNaive(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mapped.Search(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(got, want) {
			t.Fatalf("mmap search query %d diverges under GOMAXPROCS=4", i)
		}
	}
}
