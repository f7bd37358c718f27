package knn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
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

// manhattan is an L1 metric with no specialized kernel, so searches
// with it take the generic per-row path.
type manhattan struct{}

func (manhattan) Distance(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func (manhattan) Name() string { return "manhattan" }

// TestKernelParityEuclidean: under the paper's default distance (unit
// weights) the squared-space early-abandoning kernel (including the D=32
// fast paths) must return []Result bitwise identical to the naive per-row
// Metric path, across dimensions, collection sizes and k, with ties
// present.
func TestKernelParityEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, dim := range []int{1, 2, 3, 5, 8, 13, 32, 45} {
		for _, n := range []int{1, 7, 60, 700} {
			data := randomCollection(rng, n, dim)
			scan, err := newScan(data)
			if err != nil {
				t.Fatal(err)
			}
			m := euclidean(dim)
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
			scan, err := newScan(data)
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
	for b := tileRows; b < n; b += tileRows {
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
// with == on every Result, on heap and mapped matrices, under GOMAXPROCS 1, 2 and 4. The
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
				for qi, q := range qs {
					var err error
					if want[qi], err = heap.SearchNaive(q, k, m); err != nil {
						t.Fatal(err)
					}
				}
				for _, procs := range []int{1, 2, 4} {
					if bigK && procs == 1 {
						continue
					}
					old := runtime.GOMAXPROCS(procs)
					for si, scan := range []*Scan{heap, mapped} {
						name := [...]string{"heap", "mmap"}[si]
						for qi, q := range qs {
							got, err := scan.Search(q, k, m)
							if err != nil {
								t.Fatal(err)
							}
							if !resultsBitwiseEqual(got, want[qi]) {
								t.Fatalf("n=%d k=%d %s %s procs=%d query %d: Search != SearchNaive", n, k, m.Name(), name, procs, qi)
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
		case i < tileRows:
			data[i][0] = 1
		case i >= (n-1)/tileRows*tileRows:
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
// its squared sum is one ulp larger — under GOMAXPROCS 1 and 4, at
// D = 32 and at a D without a head slab.
func TestRootTieRanksByIndex(t *testing.T) {
	if math.Sqrt(math.Float64frombits(rootTieLo)) != math.Sqrt(math.Float64frombits(rootTieHi)) {
		t.Fatal("the tie pair no longer shares a square root")
	}
	for _, dim := range []int{32, 5} {
		data, q, m, lo, hi := rootTieCollection(t, 3*tileRows+5, dim)
		scan, err := newScan(data)
		if err != nil {
			t.Fatal(err)
		}
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
				runtime.GOMAXPROCS(old)
				if !resultsBitwiseEqual(got, want) {
					t.Fatalf("dim %d k=%d procs=%d: Search %v, naive %v", dim, k, procs, got, want)
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
	scan, err := newScan(data)
	if err != nil {
		t.Fatal(err)
	}
	m := euclidean(4)
	q := data[17]
	all := make([]Result, len(data))
	for i, v := range data {
		all[i] = Result{Index: i, Distance: m.Distance(q, v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].Index < all[j].Index
	})
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

func ExampleScan_Search() {
	scan, _ := newScan([][]float64{{0, 0}, {3, 4}, {6, 8}})
	// The paper's default distance, Euclidean, is the unit-weight case.
	m, _ := distance.NewWeightedEuclidean([]float64{1, 1})
	for i, q := range [][]float64{{0, 0}, {6, 8}} {
		rs, _ := scan.Search(q, 2, m)
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
// fan-out of the scan's build (inHalves) even on single-CPU hosts by
// raising GOMAXPROCS, and asserts parity of Search with the naive path.
func TestParallelPathsUnderRaisedGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(707))
	data := randomCollection(rng, 3*minShardRows, 32)
	scan, err := newScan(data)
	if err != nil {
		t.Fatal(err)
	}
	m := euclidean(32)
	qs := make([][]float64, 8)
	for i := range qs {
		qs[i] = data[rng.Intn(len(data))]
	}
	for i, q := range qs {
		want, err := scan.SearchNaive(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scan.Search(q, 40, m)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsBitwiseEqual(got, want) {
			t.Fatalf("search query %d diverges under GOMAXPROCS=4", i)
		}
	}
}
