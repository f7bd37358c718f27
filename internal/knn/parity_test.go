package knn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/distance"
)

// resultsBitwiseEqual demands exact equality: same indices, same float64
// bit patterns.
func resultsBitwiseEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Distance != b[i].Distance {
			return false
		}
	}
	return true
}

// randomCollection builds a collection with deliberate duplicate rows so
// distance ties (resolved by index) are exercised.
func randomCollection(rng *rand.Rand, n, dim int) [][]float64 {
	data := make([][]float64, n)
	for i := range data {
		if i > 0 && rng.Float64() < 0.15 {
			// Duplicate an earlier row: guaranteed distance tie.
			data[i] = data[rng.Intn(i)]
			continue
		}
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		data[i] = v
	}
	return data
}

// TestKernelParityEuclidean: the squared-space early-abandoning kernel
// (including the D=32 fast paths) must return []Result bitwise identical
// to the naive per-row Metric path, across dimensions, collection sizes
// and k, with ties present.
func TestKernelParityEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, dim := range []int{1, 2, 3, 5, 8, 13, 32, 45} {
		for _, n := range []int{1, 7, 60, 700} {
			data := randomCollection(rng, n, dim)
			scan, err := NewScan(data)
			if err != nil {
				t.Fatal(err)
			}
			m := distance.Euclidean{}
			for trial := 0; trial < 6; trial++ {
				q := make([]float64, dim)
				for j := range q {
					q[j] = rng.NormFloat64()
				}
				if trial == 0 {
					q = data[rng.Intn(n)] // query in the collection: zero distance
				}
				k := 1 + rng.Intn(2*n)
				want, err := scan.SearchNaive(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := scan.Search(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				if !resultsBitwiseEqual(got, want) {
					t.Fatalf("dim=%d n=%d k=%d: kernel %v != naive %v", dim, n, k, got, want)
				}
			}
		}
	}
}

// TestKernelParityWeighted covers the weighted kernel, including zero
// weights (which collapse dimensions and create extra ties).
func TestKernelParityWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, dim := range []int{2, 8, 32, 33} {
		for _, n := range []int{5, 120, 700} {
			data := randomCollection(rng, n, dim)
			scan, err := NewScan(data)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				w := make([]float64, dim)
				for j := range w {
					w[j] = rng.Float64() * 3
				}
				if trial%2 == 0 {
					// Zero out a random subset (at least one weight stays
					// positive for metric validity).
					for j := 0; j < dim-1; j++ {
						if rng.Float64() < 0.3 {
							w[j] = 0
						}
					}
				}
				m, err := distance.NewWeightedEuclidean(w)
				if err != nil {
					t.Fatal(err)
				}
				q := data[rng.Intn(n)]
				k := 1 + rng.Intn(n)
				want, err := scan.SearchNaive(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := scan.Search(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				if !resultsBitwiseEqual(got, want) {
					t.Fatalf("dim=%d n=%d k=%d: weighted kernel diverges from naive", dim, n, k)
				}
			}
		}
	}
}

// TestSearchBatchParity: the cache-tiled batch scan (and its generic-dim
// fallback) must equal per-query Search bitwise, for both supported
// metric classes and collections larger than one tile — and, on the
// category-ordered collection whose tiles are mostly skipped, equal
// SearchNaive.
func TestSearchBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, dim := range []int{6, 32} {
		for _, n := range []int{40, DefaultBatchTile + 37, 3*DefaultBatchTile + 1} {
			data := randomCollection(rng, n, dim)
			scan, err := NewScan(data)
			if err != nil {
				t.Fatal(err)
			}
			w := make([]float64, dim)
			for j := range w {
				w[j] = 0.25 + rng.Float64()
			}
			wm, err := distance.NewWeightedEuclidean(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []distance.Metric{distance.Euclidean{}, wm} {
				qs := make([][]float64, 9)
				for i := range qs {
					qs[i] = data[rng.Intn(n)]
				}
				k := 1 + rng.Intn(70)
				batch, err := scan.SearchBatch(qs, k, m)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range qs {
					want, err := scan.Search(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					if !resultsBitwiseEqual(batch[i], want) {
						t.Fatalf("dim=%d n=%d k=%d metric=%s query %d: batch != search", dim, n, k, m.Name(), i)
					}
				}
			}
		}
	}
	categoryBatchParity(t, rng, 0)
}

// TestSearchBatchGenericMetric: metrics without a kernel run the naive
// path query by query.
func TestSearchBatchGenericMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	data := randomCollection(rng, 90, 5)
	scan, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	qs := [][]float64{data[3], data[11], data[70]}
	batch, err := scan.SearchBatch(qs, 7, distance.Manhattan{})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := scan.Search(q, 7, distance.Manhattan{})
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(batch[i], want) {
			t.Fatalf("query %d: generic batch != search", i)
		}
	}
}

// TestSearchBatchValidation covers batch error paths.
func TestSearchBatchValidation(t *testing.T) {
	scan, _ := NewScan([][]float64{{0, 0}, {1, 1}})
	if _, err := scan.SearchBatch([][]float64{{1, 2, 3}}, 1, distance.Euclidean{}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := scan.SearchBatch([][]float64{{1, 2}}, 0, distance.Euclidean{}); err == nil {
		t.Error("k=0 should error")
	}
	out, err := scan.SearchBatch(nil, 3, distance.Euclidean{})
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

// TestParallelScanParity drives the helper path's pull loop — states
// sharing one best-first queue and bound, then the deterministic merge —
// directly, in fixed orders, so it runs on 1-CPU hosts and on rows too
// few to take a helper in Search.
func TestParallelScanParity(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	data := randomCollection(rng, 2600, 32)
	scan, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	kern, ok := distance.KernelFor(distance.Euclidean{})
	if !ok {
		t.Fatal("no kernel for Euclidean")
	}
	for trial := 0; trial < 5; trial++ {
		q := data[rng.Intn(len(data))]
		k := 1 + rng.Intn(80)
		want, err := scan.SearchNaive(q, k, distance.Euclidean{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 7} {
			for _, roundRobin := range []bool{false, true} {
				if got := pullInOrder(scan, q, k, kern, workers, roundRobin); !resultsBitwiseEqual(got, want) {
					t.Fatalf("trial %d workers %d roundRobin %v: shared scan != naive", trial, workers, roundRobin)
				}
			}
		}
	}
}

// seamCollection returns n rows of small integers (every distance is
// heavily tied) and three queries, with copies of the first query on both
// sides of every tile boundary and of every boundary a 2-, 3- or 4-way
// split produces, so the (distance, index) tie-break is decided across
// tiles visited out of order.
func seamCollection(rng *rand.Rand, n int) (data, qs [][]float64) {
	const dim = 32
	data = make([][]float64, n)
	for i := range data {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(rng.Intn(4))
		}
		data[i] = v
	}
	qs = [][]float64{data[rng.Intn(n)], data[rng.Intn(n)], make([]float64, dim)}
	for j := range qs[2] {
		qs[2][j] = float64(rng.Intn(4)) + 0.5 // not in the collection
	}
	seams := []int{}
	for b := DefaultBatchTile; b < n; b += DefaultBatchTile {
		seams = append(seams, b)
	}
	for workers := 2; workers <= 4; workers++ {
		for w := 1; w < workers; w++ {
			seams = append(seams, w*n/workers)
		}
	}
	for _, b := range seams {
		for i := b - 1; i <= b; i++ {
			if i >= 0 && i < n {
				data[i] = qs[0]
			}
		}
	}
	return data, qs
}

// TestLoneCascadeParity pins the lone-query path — tiles in best-first
// order, phase 1 over the head slab, the scan stopped at the first tile
// whose box is beyond the k-th best — at D = 32: Search == SearchNaive ==
// the same query inside a SearchBatchMulti batch, with == on every
// Result, on heap and mmap backends, under GOMAXPROCS 1, 2 and 4. The
// inputs are seamCollection's tie-heavy rows and categoryCollection's
// runs, where most tiles are never scanned and the k-th neighbour is a
// tie exactly on a tile's box bound, found first in a later tile.
func TestLoneCascadeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	// n = 9 is k−1 for k = 10: the candidate list never fills. n = 0
	// stands for categoryCollection.
	for _, n := range []int{1, 9, 511, 512, 513, 1023, 2048 + 7, 20000, 0} {
		var data, qs [][]float64
		if n == 0 {
			data, qs = categoryQueries(rng)
			n = len(data)
		} else {
			data, qs = seamCollection(rng, n)
		}
		metrics := cascadeMetrics(t, rng)
		heap, mapped := mmapTwin(t, data)
		for _, k := range []int{1, 10, n + 3} {
			for mi, m := range metrics {
				// k = 20,003 makes every offer a 20k-long sorted insert: one
				// metric, two queries, sharded only (n = 2055 covers the rest
				// of that k).
				bigK := k > 5000
				if bigK && mi != 2 {
					continue
				}
				qs := qs
				if bigK {
					qs = qs[:2]
				}
				want := make([][]Result, len(qs))
				ms := make([]distance.Metric, len(qs))
				for qi, q := range qs {
					var err error
					if want[qi], err = heap.SearchNaive(q, k, m); err != nil {
						t.Fatal(err)
					}
					ms[qi] = m
				}
				for _, procs := range []int{1, 2, 4} {
					if bigK && procs == 1 {
						continue
					}
					old := runtime.GOMAXPROCS(procs)
					for si, scan := range []*Scan{heap, mapped} {
						name := [...]string{"heap", "mmap"}[si]
						batch, err := scan.SearchBatchMulti(qs, k, ms)
						if err != nil {
							t.Fatal(err)
						}
						for qi, q := range qs {
							got, err := scan.Search(q, k, m)
							if err != nil {
								t.Fatal(err)
							}
							if !resultsBitwiseEqual(got, want[qi]) {
								t.Fatalf("n=%d k=%d %s %s procs=%d query %d: Search != SearchNaive", n, k, m.Name(), name, procs, qi)
							}
							if !resultsBitwiseEqual(batch[qi], want[qi]) {
								t.Fatalf("n=%d k=%d %s %s procs=%d query %d: SearchBatchMulti != SearchNaive", n, k, m.Name(), name, procs, qi)
							}
						}
					}
					runtime.GOMAXPROCS(old)
				}
			}
		}
	}
}

// rootTieLo and rootTieHi are squared sums one ulp apart with the same
// float64 square root: the pair on which a lone Search over IMSILike(1, 10)
// once returned a different 10th row than SearchNaive, having ranked by
// the squared sum.
const rootTieLo, rootTieHi = 0x3f304f6c7fa53adf, 0x3f304f6c7fa53ae0

// rootTieCollection returns n dim-wide rows and a weighted metric under
// which, from q = 0, row lo lies at squared distance rootTieHi and row hi
// > lo at rootTieLo — one root, the higher index nearer in squared space.
// Every other row of lo's tile (the first) and of hi's tile (the last)
// shares its tie dimension, so the tile boxes are bounded at exactly the
// two tie sums and best-first order reaches row hi first; the other rows
// are all far away.
func rootTieCollection(t *testing.T, n, dim int) (data [][]float64, q []float64, m distance.Metric, lo, hi int) {
	t.Helper()
	lo, hi = 3, n-2
	data = make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, dim)
		data[i][2] = 2
		switch {
		case i < DefaultBatchTile:
			data[i][0] = 1
		case i >= (n-1)/DefaultBatchTile*DefaultBatchTile:
			data[i][1] = 1
		}
	}
	data[lo][2], data[hi][2] = 0, 0
	w := make([]float64, dim)
	for j := range w {
		w[j] = 1
	}
	w[0], w[1] = math.Float64frombits(rootTieHi), math.Float64frombits(rootTieLo)
	m, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	return data, make([]float64, dim), m, lo, hi
}

// TestRootTieRanksByIndex is the regression test for the √ boundary:
// every kernel path must rank the two rows of rootTieCollection by
// (distance, index), as SearchNaive does — the lower index first although
// its squared sum is one ulp larger — lone and sharded, in batches and
// through the helper path's pull loop, at D = 32 and at a D without a
// head slab.
func TestRootTieRanksByIndex(t *testing.T) {
	if math.Sqrt(math.Float64frombits(rootTieLo)) != math.Sqrt(math.Float64frombits(rootTieHi)) {
		t.Fatal("the tie pair no longer shares a square root")
	}
	for _, dim := range []int{32, 5} {
		data, q, m, lo, hi := rootTieCollection(t, 3*DefaultBatchTile+5, dim)
		scan, err := NewScan(data)
		if err != nil {
			t.Fatal(err)
		}
		kern, _ := distance.KernelFor(m)
		for _, k := range []int{1, 2} {
			want, err := scan.SearchNaive(q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			if want[0].Index != lo || want[k-1].Index != []int{lo, hi}[k-1] {
				t.Fatalf("dim %d k=%d: naive %v, want rows %d then %d", dim, k, want, lo, hi)
			}
			for _, procs := range []int{1, 4} {
				old := runtime.GOMAXPROCS(procs)
				got, err := scan.Search(q, k, m)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := scan.SearchBatch([][]float64{q, q}, k, m)
				if err != nil {
					t.Fatal(err)
				}
				runtime.GOMAXPROCS(old)
				if !resultsBitwiseEqual(got, want) || !resultsBitwiseEqual(batch[1], want) {
					t.Fatalf("dim %d k=%d procs=%d: Search %v, batch %v, naive %v", dim, k, procs, got, batch[1], want)
				}
			}
			if dim == 32 {
				for _, roundRobin := range []bool{false, true} {
					if got := pullInOrder(scan, q, k, kern, 2, roundRobin); !resultsBitwiseEqual(got, want) {
						t.Fatalf("k=%d roundRobin=%v: pull loop %v, naive %v", k, roundRobin, got, want)
					}
				}
			}
		}
	}
}

// TestSearchNaiveMatchesBruteSort anchors the reference path itself
// against a full sort, so the parity suite is not self-referential.
func TestSearchNaiveMatchesBruteSort(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	data := randomCollection(rng, 300, 4)
	scan, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.Euclidean{}
	q := data[17]
	all := make([]Result, len(data))
	for i, v := range data {
		all[i] = Result{Index: i, Distance: m.Distance(q, v)}
	}
	SortResults(all)
	for _, k := range []int{1, 5, 299, 300, 1000} {
		want := all
		if k < len(all) {
			want = all[:k]
		}
		got, err := scan.SearchNaive(q, k, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(got, want) {
			t.Fatalf("k=%d: naive != brute sort", k)
		}
	}
}

func ExampleScan_SearchBatch() {
	scan, _ := NewScan([][]float64{{0, 0}, {3, 4}, {6, 8}})
	res, _ := scan.SearchBatch([][]float64{{0, 0}, {6, 8}}, 2, distance.Euclidean{})
	for i, rs := range res {
		fmt.Printf("query %d:", i)
		for _, r := range rs {
			fmt.Printf(" (%d, %g)", r.Index, r.Distance)
		}
		fmt.Println()
	}
	// Output:
	// query 0: (0, 0) (1, 5)
	// query 1: (2, 0) (1, 5)
}

// TestParallelPathsUnderRaisedGOMAXPROCS exercises the real goroutine
// fan-out of Search (a helper pulling from the best-first queue: the
// random rows have no locality, so nearly every tile box contains the
// query) and SearchBatch (query split) even on single-CPU hosts by
// raising GOMAXPROCS, and asserts parity with the naive path.
func TestParallelPathsUnderRaisedGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(707))
	data := randomCollection(rng, 3*minShardRows, 32)
	scan, err := NewScan(data)
	if err != nil {
		t.Fatal(err)
	}
	m := distance.Euclidean{}
	qs := make([][]float64, 8)
	for i := range qs {
		qs[i] = data[rng.Intn(len(data))]
	}
	batch, err := scan.SearchBatch(qs, 40, m)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := scan.SearchNaive(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(batch[i], want) {
			t.Fatalf("batch query %d diverges under GOMAXPROCS=4", i)
		}
		got, err := scan.Search(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(got, want) {
			t.Fatalf("sharded search query %d diverges under GOMAXPROCS=4", i)
		}
	}
}
