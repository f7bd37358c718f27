package knn

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/store"
)

// layoutCollections returns the row sets the scan order must handle, n
// rows each: stored by cluster, the same rows in a seeded random order,
// all rows equal, and rows of a few small integers (nearly every split
// key a tie). hostile, when n allows, also has NaN and ±Inf rows, all
// at indices ≥ 64 so that every k the tests use is filled by finite rows
// first (the naive path ranks a NaN distance only while its list is not
// yet full).
func layoutCollections(rng *rand.Rand, n int) map[string][][]float64 {
	clustered := make([][]float64, n)
	for i := range clustered {
		r := make([]float64, 32)
		centre := float64(i * 8 / n)
		for j := range r {
			r[j] = 10*centre + rng.NormFloat64()
		}
		clustered[i] = r
	}
	shuffled := slices.Clone(clustered)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	equal := make([][]float64, n)
	dups := make([][]float64, n)
	for i := range equal {
		equal[i] = clustered[0]
		r := make([]float64, 32)
		for j := range r {
			r[j] = float64(rng.Intn(3))
		}
		dups[i] = r
	}
	sets := map[string][][]float64{"clustered": clustered, "shuffled": shuffled, "equal": equal, "duplicates": dups}
	if n > 64 {
		hostile := slices.Clone(shuffled)
		for i := 64; i < n; i += 7 {
			r := slices.Clone(hostile[i])
			r[rng.Intn(32)] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
			hostile[i] = r
		}
		sets["hostile"] = hostile
	}
	return sets
}

// TestTileOrderLayout pins the scan order's shape on every layout
// collection: it is a bijection onto the rows; every top-level cut lies at
// a multiple of tileRows with every row before it first in the
// split dimension under cmp.Compare, ties by id, and both sides still
// ascending; each tile is one leaf, so its ids ascend; the split keys
// order as cmp.Compare does on NaN, ±Inf and ±0; and the order is the
// same at GOMAXPROCS 1, 2 and 4, with 2·minShardRows rows so that the
// root's two subtrees are split on two goroutines.
func TestTileOrderLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	for _, n := range []int{1, 511, 512, 513, 3*tileRows + 7} {
		for name, data := range layoutCollections(rng, n) {
			mat, err := store.FromRows(data)
			if err != nil {
				t.Fatal(err)
			}
			ids := TileOrder(mat)
			got := slices.Clone(ids)
			if slices.Sort(got); !slices.Equal(got, identityOrder(n)) {
				t.Fatalf("n=%d %s: the order is not a permutation of the rows", n, name)
			}
			for lo := 0; lo < n; lo += tileRows {
				if tile := ids[lo:min(lo+tileRows, n)]; !slices.IsSorted(tile) {
					t.Fatalf("n=%d %s: tile at %d is not one leaf: %v", n, name, lo, tile)
				}
			}
			if n <= tileRows {
				continue
			}
			slab, cutIDs := mat.Slab(0, n), identityOrder(n)
			cut := kdCut(slab, cutIDs, kdBuf{make([]uint64, n), make([]uint64, n), make([]int32, n)})
			if cut%tileRows != 0 || cut <= 0 || cut >= n || !slices.IsSorted(cutIDs[:cut]) || !slices.IsSorted(cutIDs[cut:]) {
				t.Fatalf("n=%d %s: cut at %d, sides ascending %v %v", n, name, cut, slices.IsSorted(cutIDs[:cut]), slices.IsSorted(cutIDs[cut:]))
			}
			d := spreadDim(slab, identityOrder(n))
			byKey := func(a, b int32) int {
				if c := cmp.Compare(slab[int(a)*32+d], slab[int(b)*32+d]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			}
			if last, first := slices.MaxFunc(cutIDs[:cut], byKey), slices.MinFunc(cutIDs[cut:], byKey); byKey(last, first) >= 0 {
				t.Fatalf("n=%d %s: row %d before the cut is not below row %d after it", n, name, last, first)
			}
		}
	}
	special := []float64{math.NaN(), math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), -math.NaN()}
	for _, x := range special {
		for _, y := range special {
			if got, want := cmp.Compare(orderBits(x), orderBits(y)), cmp.Compare(x, y); got != want {
				t.Fatalf("orderBits orders %v, %v as %d; cmp.Compare as %d", x, y, got, want)
			}
		}
	}
	data := layoutCollections(rng, 2*minShardRows)["shuffled"]
	mat, err := store.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	var want []int32
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		ids := TileOrder(mat)
		runtime.GOMAXPROCS(old)
		if want == nil {
			want = ids
		} else if !slices.Equal(ids, want) {
			t.Fatalf("GOMAXPROCS %d: the order differs from GOMAXPROCS 1's", procs)
		}
	}
}

// TestTileOrderParity holds lone Search, on the heap and on the mmap
// twin, to SearchNaive with == on every layout collection, at sizes
// around a tile, under GOMAXPROCS 1, 2 and 4. SearchBatchMulti, a loop
// over Search, must return the same lists and refuse a metric count that
// differs from the query count.
func TestTileOrderParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2222))
	for _, n := range []int{1, 511, 512, 513, 3*tileRows + 7} {
		for name, data := range layoutCollections(rng, n) {
			heap, mapped := mmapTwin(t, data)
			metrics := cascadeMetrics(t, rng)
			// Queries are finite: a row of the first 64, row 0, and a
			// point far from every row.
			qs := [][]float64{data[rng.Intn(min(n, 64))], data[0], make([]float64, 32)}
			for j := range qs[2] {
				qs[2][j] = rng.NormFloat64() * 20
			}
			ms := make([]distance.Metric, len(qs))
			for _, k := range []int{1, 10, 64} {
				want := make([][]Result, len(qs))
				for qi, q := range qs {
					ms[qi] = metrics[(qi+k)%len(metrics)]
					var err error
					if want[qi], err = heap.SearchNaive(q, k, ms[qi]); err != nil {
						t.Fatal(err)
					}
				}
				for _, procs := range []int{1, 2, 4} {
					old := runtime.GOMAXPROCS(procs)
					for si, scan := range []*Scan{heap, mapped} {
						where := [...]string{"heap", "mmap"}[si]
						for qi, q := range qs {
							lone, err := scan.Search(q, k, ms[qi])
							if err != nil {
								t.Fatal(err)
							}
							if !resultsBitwiseEqual(lone, want[qi]) {
								t.Fatalf("n=%d %s k=%d %s procs=%d query %d: Search != SearchNaive", n, name, k, where, procs, qi)
							}
						}
					}
					runtime.GOMAXPROCS(old)
				}
				multi, err := mapped.SearchBatchMulti(qs, k, ms)
				if err != nil {
					t.Fatal(err)
				}
				for qi := range qs {
					if !resultsBitwiseEqual(multi[qi], want[qi]) {
						t.Fatalf("n=%d %s k=%d query %d: SearchBatchMulti != SearchNaive", n, name, k, qi)
					}
				}
			}
			if _, err := heap.SearchBatchMulti(qs, 10, ms[:1]); err == nil {
				t.Fatalf("n=%d %s: SearchBatchMulti accepted %d queries with 1 metric", n, name, len(qs))
			}
		}
	}
}

// TestTileOrderTightensBoxes is the scan order's exact work counter: on
// IMSILike(1, 1) (9,791 rows, 20 tiles), over a fixed seeded set of
// random-weight searches from collection rows at k = 10, the tiles whose
// box bound is within the final k-th bound — the tiles a best-first search
// cannot skip — average at most 4.5 per search, and fewer than with the
// tiles in stored order. No clock is involved.
func TestTileOrderTightensBoxes(t *testing.T) {
	ds, err := dataset.Build(imagegen.IMSILike(1, 1), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	mat := ds.Matrix()
	ordered, err := NewScanBackend(mat)
	if err != nil {
		t.Fatal(err)
	}
	stored := &Scan{mat: mat, ids: identityOrder(mat.Len())}
	stored.head, stored.boxes = headSlab(mat.Slab(0, mat.Len()), stored.ids)
	const searches, k = 300, 10
	rng := rand.New(rand.NewSource(2323))
	tiles := (mat.Len() + tileRows - 1) / tileRows
	var kd, identity int
	for range searches {
		q := mat.Row(rng.Intn(mat.Len()))
		w := make([]float64, 32)
		for j := range w {
			w[j] = 0.5 + rng.Float64()
		}
		m, err := distance.NewWeightedEuclidean(w)
		if err != nil {
			t.Fatal(err)
		}
		kern, _ := distance.KernelFor(m)
		for _, c := range []struct {
			scan  *Scan
			count *int
		}{{ordered, &kd}, {stored, &identity}} {
			res, err := c.scan.Search(q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			bound2 := RootBound2(res[k-1].Distance)
			for lo := 0; lo < mat.Len(); lo += tileRows {
				if c.scan.blockBound2(q, kern.Weights(), lo) <= bound2 {
					*c.count++
				}
			}
		}
	}
	perSearch := func(c int) float64 { return float64(c) / searches }
	t.Logf("tiles within the k-th bound per search, of %d: k-d order %.2f, stored order %.2f", tiles, perSearch(kd), perSearch(identity))
	if perSearch(kd) > 4.5 || kd >= identity {
		t.Errorf("k-d order: %.2f tiles per search (stored order %.2f), want ≤ 4.5 and fewer", perSearch(kd), perSearch(identity))
	}
}
