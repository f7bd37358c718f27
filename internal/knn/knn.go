// Package knn implements the "query processing" step of §2: given a query
// point and a distance function, return the k closest database objects.
// It provides a Searcher interface with one implementation, the exact
// Scan: the feedback loop re-weights the metric every round, and a scan
// serves any metric (the paper cites X-trees and M-trees for this role).
package knn

import (
	"fmt"
	"math"

	"repro/internal/distance"
	"repro/internal/store"
	"repro/internal/vec"
)

// Result is one retrieved object.
type Result struct {
	Index    int     // position in the collection
	Distance float64 // distance to the query
}

// Searcher answers k-nearest-neighbour queries over a fixed collection —
// the retrieval surface the engine consumes, implemented by the exact
// Scan (and wrapped, in the HTTP benchmark, by a tracing searcher).
type Searcher interface {
	// Search returns the k items closest to q under m, ordered by
	// ascending distance (ties broken by ascending index, making results
	// deterministic). Fewer than k results are returned only when the
	// collection is smaller than k.
	Search(q []float64, k int, m distance.Metric) ([]Result, error)
	// Len returns the collection size.
	Len() int
}

// BatchSearcher is a Searcher that also answers positionally-aligned
// query batches, each under its own metric. It exists only for the HTTP
// benchmark's traced searcher (bench/trace.go); ROADMAP item 2(d)
// deletes it along with Scan.SearchBatchMulti.
type BatchSearcher interface {
	Searcher
	// SearchBatchMulti answers qs[i] under ms[i]; results are positionally
	// aligned with qs and identical to calling Search per query.
	SearchBatchMulti(qs [][]float64, k int, ms []distance.Metric) ([][]Result, error)
}

// Scan is the exact scan searcher: it supports *any* metric, including
// the per-query re-weighted distances of the feedback loop, which
// fixed-metric indexes cannot serve directly. Features live behind a
// store.Backend — the in-heap FlatMatrix or an mmap-resident FBMX
// collection — whose contiguous slabs the kernels consume directly; for
// Euclidean and weighted-Euclidean metrics the scan runs a squared-space
// early-abandoning kernel, at D = 32 over the tiles, reached by a
// best-first descent of the k-d tree whose leaves they are (see
// DESIGN.md, "Retrieval core").
type Scan struct {
	mat store.Backend
	// ids is the scan order of a D = 32 collection (TileOrder): scan
	// position p holds collection row ids[p]. The head slab and the tile
	// boxes are laid out in that order; the later phases of the cascade
	// gather a survivor's remaining dimensions from the unchanged backend
	// through it, and every candidate is offered under its collection row.
	// Nil at other dimensionalities.
	ids []int32
	// head is the dimension-blocked head slab of a D = 32 collection: a
	// contiguous n × 8 copy of dims [0,8) of every row in scan order,
	// which phase 1 of the tile cascade streams at 64 B/row instead of
	// pulling whole 256 B rows through cache for the majority it rejects.
	// Nil at other dimensionalities.
	head []float64
	// boxes holds, beside the head slab, the per-dimension bounding box of
	// every node of the k-d tree over the scan order: 32 minima then 32
	// maxima per node (512 B). Nodes [0, tiles) are the tileRows-row
	// tiles in scan order; the internal nodes follow in post order, each
	// box the union of its two children's, so the root comes last. A
	// search bounds a whole subtree's distances from its box before
	// reading a row of it. Nil at other dimensionalities.
	boxes []float64
	// kids holds the two children of every internal node: node tiles+i
	// has children kids[2i] and kids[2i+1], each a node id as in boxes.
	kids []int32
}

// NewScanBackend builds a scan searcher directly over any feature
// backend (aliased, not copied). The kernels stream the backend's slabs
// without per-row copies, so an mmap-resident collection is scanned in
// place. A D = 32 backend additionally gets its scan order (TileOrder),
// and in that order its head slab and the boxes of its tile tree, built
// here (+1.6%, +25% and +6.3% of the feature bytes, on the heap for
// either backend), so the backend's contents must not change afterwards.
//
// Non-finite values never enter a scan: a collection holding a NaN or
// ±Inf is refused, as is such a query (checkQuery). At D = 32 the check
// rides on headSlab's pass over every value: Go's min and max propagate
// NaN and keep ±Inf, so the root's box is finite exactly when the rows
// are.
func NewScanBackend(b store.Backend) (*Scan, error) {
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("knn: empty collection")
	}
	var ids []int32
	if b.Dim() == 32 {
		ids = TileOrder(b)
	}
	return buildScan(b, ids)
}

// buildScan builds the scan of a non-empty b whose tiles are laid out in
// the scan order ids (nil: no tiles): the head slab, the tile boxes, and
// over them the tree of TileOrder's partition with every internal node's
// box, bottom-up.
func buildScan(b store.Backend, ids []int32) (*Scan, error) {
	s := &Scan{mat: b, ids: ids}
	checked := b.Slab(0, b.Len())
	if ids != nil {
		s.head, s.boxes = headSlab(checked, ids)
		tiles := s.tiles()
		s.kids = tileTree(len(ids))
		for i := range tiles - 1 {
			box := s.box(int32(tiles + i))
			l, r := s.box(s.kids[2*i]), s.box(s.kids[2*i+1])
			for j := range 32 {
				box[j], box[32+j] = min(l[j], r[j]), max(l[32+j], r[32+j])
			}
		}
		checked = s.box(int32(2*tiles - 2))
	}
	if !vec.IsFinite(checked) {
		return nil, fmt.Errorf("knn: collection row %d is not finite", nonFiniteRow(b))
	}
	return s, nil
}

// nonFiniteRow returns the first row of b that holds a NaN or ±Inf, or
// -1 when every row is finite.
func nonFiniteRow(b store.Backend) int {
	for i := range b.Len() {
		if !vec.IsFinite(b.Row(i)) {
			return i
		}
	}
	return -1
}

// headSlab copies dims [0,8) of the rows of a 32-wide row-major slab, in
// the scan order ids, into the contiguous stride-8 layout phase 1 reads
// and, in the same pass, records every tileRows-row tile's bounding box.
// boxes has room for every node of the tile tree (layout: Scan.boxes);
// the internal nodes are left for buildScan.
func headSlab(slab []float64, ids []int32) (head, boxes []float64) {
	rows := len(ids)
	head = make([]float64, rows*8)
	tiles := (rows + tileRows - 1) / tileRows
	boxes = make([]float64, (2*tiles-1)*64)
	fill := func(t0, t1 int) {
		for t := t0; t < t1; t++ {
			lo, hi := boxes[t*64:t*64+32:t*64+32], boxes[t*64+32:t*64+64:t*64+64]
			first := t * tileRows
			r := int(ids[first])
			copy(lo, slab[r*32:r*32+32])
			copy(hi, lo)
			for p := first; p < min(first+tileRows, rows); p++ {
				r := int(ids[p])
				row := (*[32]float64)(slab[r*32 : r*32+32])
				*(*[8]float64)(head[p*8:]) = [8]float64(row[:8])
				for j, x := range row {
					lo[j] = min(lo[j], x)
					hi[j] = max(hi[j], x)
				}
			}
		}
	}
	inHalves(rows, func() { fill(0, tiles/2) }, func() { fill(tiles/2, tiles) })
	return head, boxes
}

// Len implements Searcher.
func (s *Scan) Len() int { return s.mat.Len() }

func (s *Scan) checkQuery(q []float64, k int) error {
	if k <= 0 {
		return fmt.Errorf("knn: k must be positive, got %d", k)
	}
	if len(q) != s.mat.Dim() {
		return fmt.Errorf("knn: query has dimension %d, want %d", len(q), s.mat.Dim())
	}
	if !vec.IsFinite(q) {
		return fmt.Errorf("knn: query is not finite")
	}
	return nil
}

// Search implements Searcher.
func (s *Scan) Search(q []float64, k int, m distance.Metric) ([]Result, error) {
	if err := s.checkQuery(q, k); err != nil {
		return nil, err
	}
	if kern, ok := distance.KernelFor(m); ok {
		return s.searchKernel(q, k, kern), nil
	}
	return s.searchGeneric(q, k, m), nil
}

// searchGeneric is the virtual-dispatch fallback path for metrics without
// a specialized kernel. It is also the reference implementation the
// parity tests compare the kernels against.
func (s *Scan) searchGeneric(q []float64, k int, m distance.Metric) []Result {
	h := NewTopK(k)
	for i, n := 0, s.mat.Len(); i < n; i++ {
		h.Offer(i, m.Distance(q, s.mat.Row(i)))
	}
	return h.Results()
}

// SearchNaive answers the query through the generic per-row Metric path
// regardless of whether m has a specialized kernel. It exists as the
// reference implementation for the kernel parity tests and benchmarks;
// production callers should use Search.
func (s *Scan) SearchNaive(q []float64, k int, m distance.Metric) ([]Result, error) {
	if err := s.checkQuery(q, k); err != nil {
		return nil, err
	}
	return s.searchGeneric(q, k, m), nil
}

// TopK keeps the k smallest (distance, index) pairs seen so far as a
// sorted insertion array, ascending by (distance, index) — the canonical
// result order. It is the one accumulator of every path of the scan. A
// sorted array beats a binary heap here: the kernel paths pre-filter with
// the current bound, so nearly every offer is a real insert, and a
// backward shift plus a short memmove costs less than a heap sift's
// cascade of mispredicted compares.
type TopK struct {
	k     int
	items []Result
	// bound2 is RootBound2 of the k-th distance once k candidates are
	// held through OfferRoot, +Inf before: the largest squared sum that
	// can still tie or beat it.
	bound2 float64
}

// NewTopK returns an accumulator for the k nearest results.
func NewTopK(k int) *TopK {
	t := newTopK(k)
	return &t
}

func newTopK(k int) TopK {
	return TopK{k: k, items: make([]Result, 0, k), bound2: math.Inf(1)}
}

// Offer considers a candidate at distance dist.
func (t *TopK) Offer(index int, dist float64) {
	t.insert(Result{Index: index, Distance: dist})
}

// OfferRoot considers a candidate with squared distance d2, ranked by its
// true distance √d2 so that two squared sums one ulp apart that share a
// root tie-break by index, as the naive path does. It returns the squared
// abandon bound that follows: RootBound2 of the k-th distance, +Inf until
// k candidates are held. Callers pre-filter with that bound, but OfferRoot
// is also correct for candidates beyond it.
func (t *TopK) OfferRoot(index int, d2 float64) float64 {
	if t.insert(Result{Index: index, Distance: math.Sqrt(d2)}) && len(t.items) == t.k {
		t.bound2 = RootBound2(t.items[t.k-1].Distance)
	}
	return t.bound2
}

// insert keeps items sorted and at most k long, and reports whether cand
// was retained. The insert position comes from a backward shift
// (insertion sort step), not a binary search: the shift loop's branch is
// perfectly predicted until the single exit, while a binary search eats
// one misprediction per level.
func (t *TopK) insert(cand Result) bool {
	items := t.items
	j := len(items)
	if j < t.k {
		items = append(items, cand)
	} else if j--; !worse(items[j], cand) {
		return false
	}
	for j > 0 && worse(items[j-1], cand) {
		items[j] = items[j-1]
		j--
	}
	items[j] = cand
	t.items = items
	return true
}

// Results returns the accumulated results in ascending (distance, index)
// order. The slice is the accumulator's own; offer nothing after.
func (t *TopK) Results() []Result { return t.items }

// worse reports whether a is strictly worse (farther, then higher index)
// than b.
func worse(a, b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.Index > b.Index
}

// Indices extracts the index sequence of a result list.
func Indices(rs []Result) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Index
	}
	return out
}

// SameIndexSet reports whether two result lists contain exactly the same
// indices in the same order — the feedback loop's convergence test ("no
// changes are observed anymore in the result list", §5).
func SameIndexSet(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index {
			return false
		}
	}
	return true
}
