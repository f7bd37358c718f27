package knn

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/distance"
)

// The category-ordered collection: sixteen tiles, laid out the way the
// served collection is — category by category — so a query's neighbours
// fill a few tiles and most tile boxes are far from it.
const (
	catTiles = 16
	catK     = 10
	// catCopies is the tile of 512 copies of the row v.
	catCopies = 2
	// catTieRow holds one more copy of v, in tile 8: the tile whose box
	// contains q, which best-first order scans first.
	catTieRow = 8*DefaultBatchTile + 400
	// catGap is v's offset from q in the last dimension. Under every
	// weight of cascadeMetrics, (w·catGap)·catGap is the largest float64
	// with its square root, so the live bound after the tie equals the
	// copies tile's box bound exactly, and a `>=` stop would bite.
	catGap = 1.625
)

// categoryCollection returns the category-ordered rows and the query q
// they are built around. Tiles 0–1, 3–7 and 12–15 are runs around far
// centres, tile catCopies is 512 copies of v = q + catGap·e₃₁, and tiles
// 8–11 are a run around q holding catK−1 copies of q and one copy of v at
// catTieRow (both in tile 8), and otherwise rows at least 3 from q in
// dimension 31. Under any metric with a positive last weight the catK-th
// neighbour of q is then a tie at dist(q, v) between tile catCopies —
// whose box is the point v, so its box bound equals that distance exactly
// — and catTieRow, found first, and the lower index, in the tile a `>=`
// stop would not scan, must win.
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
	v[dim-1] += catGap
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

// pullInOrder is searchShared with its goroutines replaced by a fixed
// schedule: workers states share one best-first queue and bound and take
// turns — one pull each, in index order, when roundRobin; otherwise each
// pulls until it stops before the next begins.
func pullInOrder(s *Scan, q []float64, k int, kern distance.Kernel, workers int, roundRobin bool) []Result {
	w := kern.Weights()
	bufs := s.getTileBufs()
	defer putTileBufs(bufs)
	order, _ := s.rankTiles(q, w, bufs)
	var tq tileQueue
	tq.reset(order)
	states := make([]scanState, workers)
	for i := range states {
		states[i] = tq.join(k)
	}
	stopped := make([]bool, workers)
	for pulling := workers; pulling > 0; {
		for i := range states {
			for !stopped[i] {
				if !s.pull(q, w, &tq, &states[i], bufs) {
					stopped[i] = true
					pulling--
				}
				if roundRobin {
					break
				}
			}
		}
	}
	return mergeShards(states, k)
}

// phase1Log records which blocks reach phase 1: every other block
// scanTile32 was handed was skipped by its box.
type phase1Log struct {
	mu    sync.Mutex
	heads []*float64
}

// logPhase1 wraps the phase-1 kernels for the rest of the test.
func logPhase1(t *testing.T) *phase1Log {
	log := new(phase1Log)
	p, pw := phase1x32Sel, phase1x32wSel
	phase1x32Sel = func(q, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
		log.add(head)
		return p(q, head, rows, bound2, s0b, s1b, s2b, s3b, surv)
	}
	phase1x32wSel = func(q, w, head *float64, rows int, bound2 float64, s0b, s1b, s2b, s3b *float64, surv *int32) int {
		log.add(head)
		return pw(q, w, head, rows, bound2, s0b, s1b, s2b, s3b, surv)
	}
	t.Cleanup(func() { phase1x32Sel, phase1x32wSel = p, pw })
	return log
}

func (l *phase1Log) add(head *float64) {
	l.mu.Lock()
	l.heads = append(l.heads, head)
	l.mu.Unlock()
}

// take returns the tiles of s scanned since the last take, by index.
func (l *phase1Log) take(s *Scan) map[int]bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	tiles := map[int]bool{}
	for _, h := range l.heads {
		for t := 0; t*DefaultBatchTile < s.Len(); t++ {
			if h == &s.head[t*DefaultBatchTile*8] {
				tiles[t] = true
			}
		}
	}
	l.heads = l.heads[:0]
	return tiles
}

// useBaselineKernels selects the baseline phase kernels (SSE2 on amd64)
// for the rest of the test, as GODEBUG=cpu.avx2=off does for a process.
func useBaselineKernels(t *testing.T) {
	a, b, c, d := phase1x32Sel, phase1x32wSel, phaseNext8Sel, phaseNext8wSel
	phase1x32Sel, phase1x32wSel, phaseNext8Sel, phaseNext8wSel = phase1x32, phase1x32w, phaseNext8, phaseNext8w
	t.Cleanup(func() { phase1x32Sel, phase1x32wSel, phaseNext8Sel, phaseNext8wSel = a, b, c, d })
}

// TestSharedBoundTie pins the exactness edge of the stop without
// depending on goroutine timing. One state pulls the best-first queue
// alone (the calling goroutine's path), or two states pull it in fixed
// orders through the helper path's queue, shared bound and merge: one
// drains it before the other starts, or they alternate tile by tile.
// Tile 8, whose box contains q, is scanned first and puts catTieRow at
// the catK-th place, so the copies tile is reached with a live bound
// exactly equal to its box bound; a `>=` stop would end the scan there
// and return catTieRow in place of row 1024. Every order must return
// SearchNaive's list on heap and mmap, and more than half of the tiles
// must be skipped.
func TestSharedBoundTie(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	data, q := categoryCollection(rng)
	heap, mapped := mmapTwin(t, data)
	log := logPhase1(t)
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
		if b := heap.blockBound2(q, kern.Weights(), lo, lo+DefaultBatchTile); b != tie {
			t.Fatalf("%s: box bound %v of the copies tile != tie distance² %v", m.Name(), b, tie)
		}
		if rootBound2(math.Sqrt(tie)) != tie {
			t.Fatalf("%s: tie distance² %v is not the largest with its root; a `>=` stop would go unnoticed", m.Name(), tie)
		}
		for si, scan := range []*Scan{heap, mapped} {
			name := [...]string{"heap", "mmap"}[si]
			for _, run := range []struct {
				workers    int
				roundRobin bool
			}{{1, false}, {2, false}, {2, true}} {
				log.take(scan)
				got := pullInOrder(scan, q, catK, kern, run.workers, run.roundRobin)
				if !resultsBitwiseEqual(got, want) {
					t.Fatalf("%s %s %+v: %v != naive %v", m.Name(), name, run, got, want)
				}
				if skipped := catTiles - len(log.take(scan)); 2*skipped <= catTiles {
					t.Errorf("%s %s %+v: %d of %d tiles skipped", m.Name(), name, run, skipped, catTiles)
				}
			}
		}
	}
}

// TestBestFirstTileOrder pins what best-first order must keep and what it
// buys, on the category-ordered collection: a lone Search scans every
// tile whose box bound is ≤ the final k-th squared distance (the tiles no
// exact stop may skip), and fewer tiles than the in-order batch scan of
// the same query, never more. Heap and mmap, GOMAXPROCS 1, 2 and 4, the
// dispatched phase kernels (AVX2 where the CPU has it) and the baseline
// tier.
func TestBestFirstTileOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1414))
	data, qs := categoryQueries(rng)
	heap, mapped := mmapTwin(t, data)
	metrics := cascadeMetrics(t, rng)
	for _, tier := range []string{"dispatched", "baseline"} {
		t.Run(tier, func(t *testing.T) {
			if tier == "baseline" {
				useBaselineKernels(t)
			}
			log := logPhase1(t)
			for _, procs := range []int{1, 2, 4} {
				old := runtime.GOMAXPROCS(procs)
				for si, scan := range []*Scan{heap, mapped} {
					name := [...]string{"heap", "mmap"}[si]
					bestFirst, inOrder := 0, 0
					for _, m := range metrics {
						kern, _ := distance.KernelFor(m)
						for qi, q := range qs {
							want, err := heap.SearchNaive(q, catK, m)
							if err != nil {
								t.Fatal(err)
							}
							log.take(scan)
							got, err := scan.Search(q, catK, m)
							if err != nil {
								t.Fatal(err)
							}
							scanned := log.take(scan)
							if !resultsBitwiseEqual(got, want) {
								t.Fatalf("%s procs=%d %s query %d: Search != SearchNaive", name, procs, m.Name(), qi)
							}
							kth := kern.Squared(q, data[want[catK-1].Index])
							for tl := range catTiles {
								lo := tl * DefaultBatchTile
								if scan.blockBound2(q, kern.Weights(), lo, lo+DefaultBatchTile) <= kth && !scanned[tl] {
									t.Errorf("%s procs=%d %s query %d: tile %d is within the k-th distance but was not scanned", name, procs, m.Name(), qi, tl)
								}
							}
							out := make([][]Result, 1)
							scan.scanBatchTiled([][]float64{q}, catK, []distance.Kernel{kern}, out, 0, 1)
							ordered := len(log.take(scan))
							if len(scanned) > ordered {
								t.Errorf("%s procs=%d %s query %d: best-first scanned %d tiles, in order %d", name, procs, m.Name(), qi, len(scanned), ordered)
							}
							bestFirst += len(scanned)
							inOrder += ordered
						}
					}
					if bestFirst >= inOrder {
						t.Errorf("%s procs=%d: best-first scanned %d tiles in all, in order %d", name, procs, bestFirst, inOrder)
					}
				}
				runtime.GOMAXPROCS(old)
			}
		})
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
