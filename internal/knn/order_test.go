package knn

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
// key a tie). hostile, when n allows, is shuffled with a NaN or ±Inf in
// every seventh row from index 64 on: TileOrder must still order it, and
// NewScanBackend must refuse it.
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

// tileSizes are the collection sizes around a tile edge the order tests
// run at, and one of many tiles with a partial last tile.
var tileSizes = []int{1, tileRows - 1, tileRows, tileRows + 1, 3*tileRows + 7, 1543}

// TestTileOrderLayout pins the scan order's shape on every layout
// collection: it is a bijection onto the rows; every top-level cut lies at
// a multiple of tileRows with every row before it first in the
// split dimension under cmp.Compare, ties by id, and both sides still
// ascending; each tile is one leaf, so its ids ascend; tileTree's nodes
// span the tiles and the root's cut is kdCut's (treeSpans); the split keys
// order as cmp.Compare does on NaN, ±Inf and ±0; and the order is the
// same at GOMAXPROCS 1, 2 and 4, with 2·minShardRows rows so that the
// root's two subtrees are split on two goroutines.
func TestTileOrderLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	for _, n := range tileSizes {
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
			rootLo, rootCut, rootHi := treeSpans(t, n)
			if n <= tileRows {
				continue
			}
			slab, cutIDs := mat.Slab(0, n), identityOrder(n)
			cut := kdCut(slab, cutIDs, kdBuf{make([]uint64, n), make([]uint64, n), make([]int32, n)})
			if rootLo != 0 || rootCut != cut || rootHi != n {
				t.Fatalf("n=%d %s: the tree's root spans [%d, %d) cut at %d; kdCut cut at %d", n, name, rootLo, rootHi, rootCut, cut)
			}
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

// treeSpans checks tileTree(n) against the partition it describes: every
// node is reached once from the root, tile t spans scan positions
// [t·tileRows, min((t+1)·tileRows, n)), and each internal node spans its
// left child's rows then its right child's, which meet at the node's cut.
// It returns the root's span and cut (the cut is the span's end for a
// lone tile).
func treeSpans(t *testing.T, n int) (lo, cut, hi int) {
	t.Helper()
	tiles := (n + tileRows - 1) / tileRows
	kids := tileTree(n)
	if len(kids) != 2*(tiles-1) {
		t.Fatalf("n=%d: %d children for %d tiles", n, len(kids), tiles)
	}
	seen := make([]bool, 2*tiles-1)
	var span func(node int32) (int, int, int)
	span = func(node int32) (int, int, int) {
		if seen[node] {
			t.Fatalf("n=%d: node %d is reached twice", n, node)
		}
		seen[node] = true
		if int(node) < tiles {
			lo, hi := int(node)*tileRows, min(int(node)*tileRows+tileRows, n)
			return lo, hi, hi
		}
		i := 2 * (int(node) - tiles)
		llo, _, lhi := span(kids[i])
		rlo, _, rhi := span(kids[i+1])
		if lhi != rlo || kids[i] >= node || kids[i+1] >= node {
			t.Fatalf("n=%d: node %d's children %d [%d, %d) and %d [%d, %d) do not meet in post order", n, node, kids[i], llo, lhi, kids[i+1], rlo, rhi)
		}
		return llo, lhi, rhi
	}
	lo, cut, hi = span(int32(2*tiles - 2))
	if slices.Contains(seen, false) {
		t.Fatalf("n=%d: a node is not reached from the root", n)
	}
	return lo, cut, hi
}

// TestTileOrderParity holds lone Search, on the heap and on the mmap
// twin, to SearchNaive with == on every layout collection, at sizes
// around a tile, under GOMAXPROCS 1, 2 and 4. SearchBatchMulti, a loop
// over Search, must return the same lists and refuse a metric count that
// differs from the query count. Non-finite values never enter a scan:
// NewScanBackend refuses the hostile collection in either residency,
// naming its first non-finite row, and Search and SearchNaive both
// refuse a query holding a NaN or ±Inf.
func TestTileOrderParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2222))
	for _, n := range tileSizes {
		for name, data := range layoutCollections(rng, n) {
			if name == "hostile" {
				heapB, mappedB := twinMatrices(t, data)
				for _, b := range []*store.Matrix{heapB, mappedB} {
					if _, err := NewScanBackend(b); err == nil || !strings.Contains(err.Error(), "row 64 ") {
						t.Fatalf("n=%d hostile: NewScanBackend error %v, want a refusal of row 64", n, err)
					}
				}
				continue
			}
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
			for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				bad := slices.Clone(qs[0])
				bad[rng.Intn(32)] = x
				for _, scan := range []*Scan{heap, mapped} {
					if _, err := scan.Search(bad, 10, ms[0]); err == nil {
						t.Fatalf("n=%d %s: Search accepted a query holding %v", n, name, x)
					}
					if _, err := scan.SearchNaive(bad, 10, ms[0]); err == nil {
						t.Fatalf("n=%d %s: SearchNaive accepted a query holding %v", n, name, x)
					}
				}
			}
		}
	}
}

// TestTileOrderTightensBoxes is the scan order's exact work counter: on
// IMSILike(1, 1) (9,791 rows), over a fixed seeded set of random-weight
// searches from collection rows at k = 10, the rows of the tiles whose box
// bound is within the final k-th bound — the rows a best-first search
// cannot skip — average at most tightRows per search, and fewer than with
// the tiles in stored order, whose scan is built through the same path
// (buildScan, with its own tree). No clock is involved.
func TestTileOrderTightensBoxes(t *testing.T) {
	// tightRows is 4.5 tiles of 512 rows, the bar this test held at that
	// tile size, in rows.
	const tightRows = 4.5 * 512
	ds, err := dataset.Build(imagegen.IMSILike(1, 1), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	mat := ds.Matrix()
	ordered, err := NewScanBackend(mat)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := buildScan(mat, identityOrder(mat.Len()))
	if err != nil {
		t.Fatal(err)
	}
	const searches, k = 300, 10
	rng := rand.New(rand.NewSource(2323))
	var kd, identity int
	for range searches {
		q := mat.Row(rng.Intn(mat.Len()))
		m := randomWeights(t, rng)
		for _, c := range []struct {
			scan  *Scan
			count *int
		}{{ordered, &kd}, {stored, &identity}} {
			res, err := c.scan.Search(q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			bound2 := RootBound2(res[k-1].Distance)
			for tl := range c.scan.tiles() {
				if boxBound2(q, m.Weights(), c.scan.box(int32(tl))) <= bound2 {
					*c.count += min(tileRows, mat.Len()-tl*tileRows)
				}
			}
		}
	}
	perSearch := func(c int) float64 { return float64(c) / searches }
	t.Logf("rows within the k-th bound per search, of %d: k-d order %.1f, stored order %.1f", mat.Len(), perSearch(kd), perSearch(identity))
	if perSearch(kd) > tightRows || kd >= identity {
		t.Errorf("k-d order: %.1f rows per search (stored order %.1f), want ≤ %v and fewer", perSearch(kd), perSearch(identity), tightRows)
	}
}

// randomWeights returns a weighted Euclidean metric with every weight in
// [0.5, 1.5): the shape of a feedback round's re-weighting.
func randomWeights(t *testing.T, rng *rand.Rand) *distance.WeightedEuclidean {
	t.Helper()
	w := make([]float64, 32)
	for j := range w {
		w[j] = 0.5 + rng.Float64()
	}
	m, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTreeSearchWork pins what the best-first descent of the tile tree
// costs, with exact counters (searchWork) and no clock: the mean per
// search of the nodes bounded, the tiles scanned and the rows entering
// phase 1, over 300 seeded random-weight searches from collection rows at
// k = 10, on IMSILike(1, 1) and on IMSILike(1, 10), the 97,910 rows the
// bench/ `bigscan` workload serves. Every result is checked against
// Search. The ceilings are the counts measured when the descent was
// built, rounded up. With every 512-row tile sorted by its bound, the
// same searches scanned 1,941.5 and 3,307.5 rows.
func TestTreeSearchWork(t *testing.T) {
	for _, c := range []struct {
		scale                float64
		bounded, tiles, rows float64
	}{
		{1, 52, 7.4, 470},
		{10, 93, 11.9, 760},
	} {
		ds, err := dataset.Build(imagegen.IMSILike(1, c.scale), histogram.DefaultExtractor)
		if err != nil {
			t.Fatal(err)
		}
		mat := ds.Matrix()
		scan, err := NewScanBackend(mat)
		if err != nil {
			t.Fatal(err)
		}
		const searches, k = 300, 10
		rng := rand.New(rand.NewSource(2424))
		var work searchWork
		for range searches {
			q := mat.Row(rng.Intn(mat.Len()))
			m := randomWeights(t, rng)
			got := scan.searchTiles(q, k, m.Weights(), &work)
			want, err := scan.Search(q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsBitwiseEqual(got, want) {
				t.Fatalf("scale %g: the counted search differs from Search", c.scale)
			}
		}
		bounded, tiles, rows := float64(work.bounded)/searches, float64(work.tiles)/searches, float64(work.rows)/searches
		t.Logf("scale %g (%d rows, %d nodes): per search %.1f nodes bounded, %.2f tiles, %.1f rows", c.scale, mat.Len(), len(scan.boxes)/64, bounded, tiles, rows)
		if bounded > c.bounded || tiles > c.tiles || rows > c.rows {
			t.Errorf("scale %g: %.1f nodes bounded, %.2f tiles, %.1f rows per search; ceilings %v, %v, %v", c.scale, bounded, tiles, rows, c.bounded, c.tiles, c.rows)
		}
	}
}
