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
	// catCopies is the tile of tileRows copies of the row v.
	catCopies = 2
	// catTieRow holds one more copy of v, in tile 8: the tile whose box
	// contains q, which best-first order scans first.
	catTieRow = 8*tileRows + 40
	// catGap is v's offset from q in the last dimension. Under every
	// weight of cascadeMetrics, (w·catGap)·catGap is the largest float64
	// with its square root, so the live bound after the tie equals the
	// copies tile's box bound exactly, and a `>=` stop would bite.
	catGap = 1.625
)

// categoryCollection returns the category-ordered rows and the query q
// they are built around. Tiles 0–1, 3–7 and 12–15 are runs around far
// centres, tile catCopies is tileRows copies of v = q + catGap·e₃₁, and tiles
// 8–11 are a run around q holding catK−1 copies of q and one copy of v at
// catTieRow (both in tile 8), and otherwise rows at least 3 from q in
// dimension 31. Under any metric with a positive last weight the catK-th
// neighbour of q is then a tie at dist(q, v) between tile catCopies —
// whose box is the point v, so its box bound equals that distance exactly
// — and catTieRow, found first, and the lower index, in the tile a `>=`
// stop would not scan, must win.
func categoryCollection(rng *rand.Rand) (data [][]float64, q []float64) {
	const dim, tile = 32, tileRows
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
		data[8*tile+5+3*c] = q
	}
	data[catTieRow] = v
	return data, q
}

// categoryQueries is categoryCollection with four queries: q, a row of a
// far run, v itself (tileRows exact ties), and a point in no tile's box.
func categoryQueries(rng *rand.Rand) (data, qs [][]float64) {
	data, q := categoryCollection(rng)
	off := slices.Clone(q)
	for j := range off {
		off[j] += 0.5
	}
	return data, [][]float64{q, data[100], data[catCopies*tileRows], off}
}

// TestCategoryParity holds lone Search — each query under another of
// cascadeMetrics — to SearchNaive on the heap and mmap twins of the
// category-ordered collection, under GOMAXPROCS 1, 2 and 4.
func TestCategoryParity(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	data, qs := categoryQueries(rng)
	heap, mapped := mmapTwin(t, data)
	metrics := cascadeMetrics(t, rng)
	for _, k := range []int{1, catK, 50} {
		for qi, q := range qs {
			m := metrics[qi%len(metrics)]
			want, err := heap.SearchNaive(q, k, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 4} {
				old := runtime.GOMAXPROCS(procs)
				for si, scan := range []*Scan{heap, mapped} {
					got, err := scan.Search(q, k, m)
					if err != nil {
						t.Fatal(err)
					}
					if !resultsBitwiseEqual(got, want) {
						t.Fatalf("k=%d %s %s procs=%d query %d: Search != SearchNaive", k, m.Name(), [...]string{"heap", "mmap"}[si], procs, qi)
					}
				}
				runtime.GOMAXPROCS(old)
			}
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

// phase1Log records which tiles reach phase 1: every other tile was
// skipped by its box or an ancestor's.
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
		for t := 0; t*tileRows < s.Len(); t++ {
			if h == &s.head[t*tileRows*8] {
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

// TestSharedBoundTie pins the exactness edge of the best-first stop. The
// tile whose box contains q is scanned first and puts catTieRow at the
// catK-th place, so the tile of copies of v is reached with a live bound
// exactly equal to its box bound; a `>=` stop would end the scan there and
// return catTieRow in place of row catCopies·tileRows. A lone Search must return
// SearchNaive's list on heap and mmap, and more than half of the tiles
// must be skipped.
func TestSharedBoundTie(t *testing.T) {
	rng := rand.New(rand.NewSource(1212))
	data, q := categoryCollection(rng)
	heap, mapped := mmapTwin(t, data)
	log := logPhase1(t)
	lo := catCopies * tileRows
	// The scan tile holding row lo: the k-d order keeps the tileRows
	// copies of v, all equal and adjacent by id, together.
	copies := int32(slices.Index(heap.ids, int32(lo)) / tileRows)
	for _, m := range cascadeMetrics(t, rng) {
		kern, _ := distance.KernelFor(m)
		want, err := heap.SearchNaive(q, catK, m)
		if err != nil {
			t.Fatal(err)
		}
		tie := kern.Squared(q, data[catTieRow])
		if got := want[catK-1]; got.Index != lo || got.Distance != math.Sqrt(tie) {
			t.Fatalf("%s: k-th result %+v, want row %d at the tie distance", m.Name(), got, lo)
		}
		if b := boxBound2(q, kern.Weights(), heap.box(copies)); b != tie {
			t.Fatalf("%s: box bound %v of the copies tile != tie distance² %v", m.Name(), b, tie)
		}
		if RootBound2(math.Sqrt(tie)) != tie {
			t.Fatalf("%s: tie distance² %v is not the largest with its root; a `>=` stop would go unnoticed", m.Name(), tie)
		}
		for si, scan := range []*Scan{heap, mapped} {
			name := [...]string{"heap", "mmap"}[si]
			log.take(scan)
			got, err := scan.Search(q, catK, m)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsBitwiseEqual(got, want) {
				t.Fatalf("%s %s: %v != naive %v", m.Name(), name, got, want)
			}
			if skipped := catTiles - len(log.take(scan)); 2*skipped <= catTiles {
				t.Errorf("%s %s: %d of %d tiles skipped", m.Name(), name, skipped, catTiles)
			}
		}
	}
}

// scanInOrder offers every tile of s to one TopK in scan order, each
// skipped only by its box against the live bound: the in-order scan
// best-first order is measured against.
func scanInOrder(s *Scan, q, w []float64, k int) {
	bufs := s.getTileBufs()
	defer tileBufPool.Put(bufs)
	st := newTopK(k)
	for t := range s.tiles() {
		if boxBound2(q, w, s.box(int32(t))) <= st.bound2 {
			s.scanTile32(q, w, t*tileRows, min(t*tileRows+tileRows, s.Len()), &st, bufs)
		}
	}
}

// TestBestFirstTileOrder pins what best-first order must keep and what it
// buys, on the category-ordered collection: a lone Search scans every
// tile whose box bound is ≤ the final k-th squared distance (the tiles no
// exact stop may skip), and fewer tiles than an in-order scan of the same
// query, never more. Heap and mmap, GOMAXPROCS 1, 2 and 4, the
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
								if boxBound2(q, kern.Weights(), scan.box(int32(tl))) <= kth && !scanned[tl] {
									t.Errorf("%s procs=%d %s query %d: tile %d is within the k-th distance but was not scanned", name, procs, m.Name(), qi, tl)
								}
							}
							scanInOrder(scan, q, kern.Weights(), catK)
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
		rows := 1 + rng.Intn(tileRows)
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
		_, boxes := headSlab(slab, identityOrder(rows))
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

// TestNodeBoundBelowChildren asserts the property the best-first stop
// rests on: every internal node of the tile tree holds its children's
// boxes, and its boxBound2 is ≤ each child's — compared as float64, no
// tolerance. Rows are random normal, tie-heavy small integers, or all one
// row; weights are nil, random, a third zero, or all zero; the query is a
// row, the root box's centre, or a point mostly outside every box.
func TestNodeBoundBelowChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(1515))
	for trial := 0; trial < 60; trial++ {
		n := tileRows + 1 + rng.Intn(20*tileRows)
		row0 := make([]float64, 32)
		for j := range row0 {
			row0[j] = rng.NormFloat64() * 3
		}
		data := make([][]float64, n)
		for i := range data {
			r := make([]float64, 32)
			for j := range r {
				switch trial % 3 {
				case 0:
					r[j] = rng.NormFloat64() * 3
				case 1:
					r[j] = math.Trunc(rng.NormFloat64() * 4)
				default:
					r[j] = row0[j]
				}
			}
			data[i] = r
		}
		scan, err := newScan(data)
		if err != nil {
			t.Fatal(err)
		}
		tiles := scan.tiles()
		root := scan.box(int32(2*tiles - 2))
		for qi := 0; qi < 6; qi++ {
			q := make([]float64, 32)
			switch qi % 3 {
			case 0:
				copy(q, data[rng.Intn(n)])
			case 1:
				for j := range q {
					q[j] = (root[j] + root[32+j]) / 2
				}
			default:
				for j := range q {
					q[j] = rng.NormFloat64() * 20
				}
			}
			var w []float64
			if kind := (trial + qi) % 4; kind != 0 {
				w = make([]float64, 32)
				for j := range w {
					switch {
					case kind == 1:
						w[j] = rng.Float64() * 2
					case kind == 2 && rng.Intn(3) != 0:
						w[j] = rng.Float64() * 2
					}
				}
			}
			for i := range tiles - 1 {
				node := int32(tiles + i)
				box, lb := scan.box(node), boxBound2(q, w, scan.box(node))
				for _, c := range scan.kids[2*i : 2*i+2] {
					cb := scan.box(c)
					for j := range 32 {
						if !(box[j] <= cb[j] && cb[32+j] <= box[32+j]) {
							t.Fatalf("trial %d: node %d's box does not hold child %d's in dim %d", trial, node, c, j)
						}
					}
					if b := boxBound2(q, w, cb); !(lb <= b) {
						t.Fatalf("trial %d query %d: node %d bound %v (%x) > child %d bound %v (%x)",
							trial, qi, node, lb, math.Float64bits(lb), c, b, math.Float64bits(b))
					}
				}
			}
		}
	}
}
