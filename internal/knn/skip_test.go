package knn

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/distance"
)

// The category-ordered collection: sixteen tiles, laid out the way the
// served collection is — category by category — so a query's neighbours
// fill a few tiles and most tile boxes are far from it. Shard boundaries
// under a 2- or 4-way split fall on tile boundaries.
const (
	catTiles = 16
	catK     = 10
	// catCopies is the tile of 512 copies of the row v.
	catCopies = 2
	// catTieRow holds one more copy of v, in the run around q (tiles
	// 8–11), i.e. in another shard than catCopies under either split.
	catTieRow = 5000
)

// categoryCollection returns the category-ordered rows and the query q
// they are built around. Tiles 0–1, 3–7 and 12–15 are runs around far
// centres, tile catCopies is 512 copies of v = q + 2·e₃₁, and tiles 8–11
// are a run around q holding catK−1 copies of q, one copy of v at
// catTieRow, and otherwise rows at least 3 from q in dimension 31. Under
// any metric with a positive last weight the catK-th neighbour of q is
// then a tie at dist(q, v) between tile catCopies — whose box is the
// point v, so its box bound equals that distance exactly — and
// catTieRow, and the lower index, on the side a `>=` box test would skip,
// must win.
func categoryCollection(rng *rand.Rand) (data [][]float64, q []float64) {
	const dim, tile = 32, DefaultBatchTile
	q = make([]float64, dim)
	for j := range q {
		q[j] = float64(rng.Intn(8))
	}
	around := func(shift, lastGap float64) []float64 {
		r := make([]float64, dim)
		for j := range r {
			r[j] = q[j] + shift + float64(rng.Intn(4))
		}
		r[dim-1] += lastGap
		return r
	}
	v := slices.Clone(q)
	v[dim-1] += 2
	data = make([][]float64, catTiles*tile)
	for i := range data {
		switch t := i / tile; {
		case t == catCopies:
			data[i] = v
		case t < 2:
			data[i] = around(-40, 0)
		case t < 8:
			data[i] = around(40, 0)
		case t < 12:
			data[i] = around(0, 3)
		default:
			data[i] = around(80, 0)
		}
	}
	for c := 0; c < catK-1; c++ {
		data[8*tile+100+7*c] = q
	}
	data[catTieRow] = v
	return data, q
}

// categoryQueries is categoryCollection with four queries: q, a row of a
// far run, v itself (512 exact ties), and a point in no tile's box.
func categoryQueries(rng *rand.Rand) (data, qs [][]float64) {
	data, q := categoryCollection(rng)
	off := slices.Clone(q)
	for j := range off {
		off[j] += 0.5
	}
	return data, [][]float64{q, data[100], data[catCopies*DefaultBatchTile], off}
}

// categoryBatchParity holds SearchBatchMulti — each query under another
// of cascadeMetrics — and lone Search to SearchNaive on the heap and mmap
// twins of the category-ordered collection, under GOMAXPROCS 1, 2 and 4,
// at the given tile size (0: the default).
func categoryBatchParity(t *testing.T, rng *rand.Rand, tile int) {
	t.Helper()
	data, qs := categoryQueries(rng)
	heap, mapped := mmapTwin(t, data)
	metrics := cascadeMetrics(t, rng)
	ms := make([]distance.Metric, len(qs))
	for _, k := range []int{1, catK, 50} {
		want := make([][]Result, len(qs))
		for qi, q := range qs {
			ms[qi] = metrics[qi%len(metrics)]
			var err error
			if want[qi], err = heap.SearchNaive(q, k, ms[qi]); err != nil {
				t.Fatal(err)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			old := runtime.GOMAXPROCS(procs)
			for si, scan := range []*Scan{heap, mapped} {
				name := [...]string{"heap", "mmap"}[si]
				scan.batchTile = tile
				batch, err := scan.SearchBatchMulti(qs, k, ms)
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range qs {
					lone, err := scan.Search(q, k, ms[qi])
					if err != nil {
						t.Fatal(err)
					}
					if !resultsBitwiseEqual(batch[qi], want[qi]) || !resultsBitwiseEqual(lone, want[qi]) {
						t.Fatalf("tile %d k=%d %s %s procs=%d query %d: batch or lone != SearchNaive", tile, k, ms[qi].Name(), name, procs, qi)
					}
				}
			}
			runtime.GOMAXPROCS(old)
		}
	}
}

// cascadeMetrics are Euclidean and three weighted metrics with a
// positive last weight: plain, about a third of the weights zero, and
// dims [0,8) all zero (phase 1 rejects nothing; only boxes prune).
func cascadeMetrics(t *testing.T, rng *rand.Rand) []distance.Metric {
	t.Helper()
	w := make([]float64, 32)
	wz := make([]float64, 32)
	for j := range w {
		w[j] = float64(1 + rng.Intn(3))
		wz[j] = float64(rng.Intn(3))
	}
	wz[31] = 1
	wh := append(make([]float64, 8), w[8:]...)
	ms := []distance.Metric{distance.Euclidean{}}
	for _, ws := range [][]float64{w, wz, wh} {
		wm, err := distance.NewWeightedEuclidean(ws)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, wm)
	}
	return ms
}

// shardsInOrder runs a workers-way sharded Search sequentially — first
// shard first, or last shard first — through the bound sharing and merge
// the goroutines use: a deterministic stand-in for one interleaving of
// the real fan-out.
func shardsInOrder(s *Scan, q []float64, k int, kern distance.Kernel, workers int, lastFirst bool, bufs *tileBufs) []Result {
	var shared sharedBound
	shared.bits.Store(math.Float64bits(math.Inf(1)))
	states := make([]scanState, workers)
	n := s.Len()
	for i := range workers {
		w := i
		if lastFirst {
			w = workers - 1 - i
		}
		states[w] = newScanState(k)
		states[w].shared = &shared
		s.scanRange(q, kern, w*n/workers, (w+1)*n/workers, &states[w], bufs)
	}
	return mergeShards(states, k)
}

// countPhase1 wraps the phase-1 kernels for the rest of the test and
// returns the count of blocks that reached phase 1; every other block
// scanTile32 was handed was skipped by its tile box.
func countPhase1(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	p, pw := phase1x32Sel, phase1x32wSel
	phase1x32Sel = func(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
		n.Add(1)
		return p(q, head, rows, bound2, s0b, s1b, s2b, s3b, surv)
	}
	phase1x32wSel = func(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
		n.Add(1)
		return pw(q, w, head, rows, bound2, s0b, s1b, s2b, s3b, surv)
	}
	t.Cleanup(func() { phase1x32Sel, phase1x32wSel = p, pw })
	return &n
}

// TestSharedBoundTie pins the exactness edge of both prunings without
// depending on goroutine timing: the shards of a sharded Search run in a
// fixed order, first-to-last and last-to-first, over the category-ordered
// collection. Last-to-first, the shard holding catTieRow publishes the
// catK-th distance before the shard holding tile catCopies starts, so
// that tile enters with a live bound exactly equal to its box bound; a
// `>=` skip would drop row 1024 and return catTieRow in its place. Every
// order must return SearchNaive's list on heap and mmap, and more than
// half of the tiles must be skipped.
func TestSharedBoundTie(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	data, q := categoryCollection(rng)
	heap, mapped := mmapTwin(t, data)
	phase1 := countPhase1(t)
	for _, m := range cascadeMetrics(t, rng) {
		kern, _ := distance.KernelFor(m)
		want, err := heap.SearchNaive(q, catK, m)
		if err != nil {
			t.Fatal(err)
		}
		tie := kern.Squared(q, data[catTieRow])
		lo := catCopies * DefaultBatchTile
		if got := want[catK-1]; got.Index != lo || got.Distance != math.Sqrt(tie) {
			t.Fatalf("%s: k-th result %+v, want row %d at the tie distance", m.Name(), got, lo)
		}
		if b := boxBound2(q, kern.Weights(), heap.tileBox(lo, lo+DefaultBatchTile)); b != tie {
			t.Fatalf("%s: box bound %v of the copies tile != tie distance² %v", m.Name(), b, tie)
		}
		for si, scan := range []*Scan{heap, mapped} {
			bufs := scan.getTileBufs()
			for _, workers := range []int{1, 2, 4} {
				for _, lastFirst := range []bool{false, true} {
					phase1.Store(0)
					got := shardsInOrder(scan, q, catK, kern, workers, lastFirst, bufs)
					name := [...]string{"heap", "mmap"}[si]
					if !resultsBitwiseEqual(got, want) {
						t.Fatalf("%s %s workers=%d lastFirst=%v: %v != naive %v", m.Name(), name, workers, lastFirst, got, want)
					}
					if skipped := catTiles - int(phase1.Load()); 2*skipped <= catTiles {
						t.Errorf("%s %s workers=%d lastFirst=%v: %d of %d tiles skipped", m.Name(), name, workers, lastFirst, skipped, catTiles)
					}
				}
			}
			putTileBufs(bufs)
		}
	}
}

// TestBoxBoundBelowKernel asserts the property the tile skip rests on:
// boxBound2 of a tile's box is ≤ Kernel.Squared(q, row) — compared as
// float64, no tolerance — for every row of the tile, and equal to it when
// every row is the same. Tiles are random normal, tie-heavy small
// integers, or constant; weights are nil, random, or a third zero; the
// query is a row of the tile, the tile's centre, or far outside it.
func TestBoxBoundBelowKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	for trial := 0; trial < 600; trial++ {
		rows := 1 + rng.Intn(DefaultBatchTile)
		slab := make([]float64, rows*32)
		kind := trial % 3
		for i := range slab {
			switch kind {
			case 0:
				slab[i] = rng.NormFloat64() * 3
			case 1:
				slab[i] = math.Trunc(rng.NormFloat64() * 4)
			default: // constant tile: every row is row 0
				if i < 32 {
					slab[i] = rng.NormFloat64() * 3
				} else {
					slab[i] = slab[i%32]
				}
			}
		}
		_, boxes := headSlab(slab, rows)
		box := boxes[:64]
		var m distance.Metric = distance.Euclidean{}
		if trial%4 != 0 {
			w := make([]float64, 32)
			for j := range w {
				w[j] = rng.Float64() * 2
				if trial%4 == 2 && rng.Intn(3) == 0 {
					w[j] = 0
				}
			}
			w[31] = 0.5
			wm, err := distance.NewWeightedEuclidean(w)
			if err != nil {
				t.Fatal(err)
			}
			m = wm
		}
		kern, _ := distance.KernelFor(m)
		q := make([]float64, 32)
		switch trial % 5 {
		case 0, 1:
			copy(q, slab[rng.Intn(rows)*32:]) // inside the box
		case 2:
			for j := range q {
				q[j] = (box[j] + box[32+j]) / 2
			}
		default:
			for j := range q {
				q[j] = rng.NormFloat64() * 20 // mostly outside, some dims inside
			}
		}
		lb := boxBound2(q, kern.Weights(), box)
		for r := 0; r < rows; r++ {
			d := kern.Squared(q, slab[r*32:r*32+32])
			if !(lb <= d) {
				t.Fatalf("trial %d %s row %d: box bound %v (%x) > kernel sum %v (%x)",
					trial, m.Name(), r, lb, math.Float64bits(lb), d, math.Float64bits(d))
			}
			if kind == 2 && lb != d {
				t.Fatalf("trial %d %s: constant tile bound %v != its rows' sum %v", trial, m.Name(), lb, d)
			}
		}
	}
}
