// Package knn implements the "query processing" step of §2: given a query
// point and a distance function, return the k closest database objects.
// It provides a Searcher interface with a sequential-scan implementation;
// package ann provides the approximate IVF tier behind the same interface
// (the paper cites X-trees and M-trees for this role).
package knn

import (
	"fmt"
	"slices"

	"repro/internal/distance"
	"repro/internal/store"
)

// Result is one retrieved object.
type Result struct {
	Index    int     // position in the collection
	Distance float64 // distance to the query
}

// Searcher answers k-nearest-neighbour queries over a fixed collection.
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
// query batches, each under its own metric, in one call — the retrieval
// surface the engine consumes, implemented by the exact Scan and by the
// approximate ann.Index. Results must be identical to calling Search per
// query; batching changes throughput, never answers.
type BatchSearcher interface {
	Searcher
	// SearchBatchMulti answers qs[i] under ms[i]; results are positionally
	// aligned with qs.
	SearchBatchMulti(qs [][]float64, k int, ms []distance.Metric) ([][]Result, error)
	// Describe names the retrieval tier for stats surfaces.
	Describe() string
}

// Scan is the exact scan searcher: it supports *any* metric, including
// the per-query re-weighted distances of the feedback loop, which
// fixed-metric indexes cannot serve directly. Features live behind a
// store.Backend — the in-heap FlatMatrix or an mmap-resident FBMX
// collection — whose contiguous slabs the kernels consume directly; for
// Euclidean and weighted-Euclidean metrics the scan runs a squared-space
// early-abandoning kernel, at D = 32 over the tiles in best-first order
// (see DESIGN.md, "Retrieval core").
type Scan struct {
	mat store.Backend
	// head is the dimension-blocked head slab of a D = 32 collection: a
	// contiguous n × 8 copy of dims [0,8) of every row, which phase 1 of
	// the tile cascade streams at 64 B/row instead of pulling whole
	// 256 B rows through cache for the majority it rejects. Nil at other
	// dimensionalities.
	head []float64
	// boxes holds, beside the head slab, the per-dimension bounding box of
	// every DefaultBatchTile-row tile: 32 minima then 32 maxima per tile
	// (512 B), from which scanTile32 bounds a whole tile's distances
	// before reading it. Nil at other dimensionalities.
	boxes []float64
	// batchTile is the row count per tile; 0 means DefaultBatchTile. Only
	// the tile-size parity test sets it.
	batchTile int
}

// NewScan builds a scan searcher over the given vectors (copied into a
// contiguous flat store).
func NewScan(data [][]float64) (*Scan, error) {
	mat, err := store.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("knn: %w", err)
	}
	return NewScanBackend(mat)
}

func (s *Scan) tile() int {
	if s.batchTile <= 0 {
		return DefaultBatchTile
	}
	return s.batchTile
}

// NewScanBackend builds a scan searcher directly over any feature
// backend (aliased, not copied). The kernels stream the backend's slabs
// without per-row copies, so an mmap-resident collection is scanned in
// place. A D = 32 backend additionally gets its head slab and tile boxes
// built here (+25% and +0.4% of the feature bytes, on the heap for either
// backend), so the backend's contents must not change afterwards.
func NewScanBackend(b store.Backend) (*Scan, error) {
	if b == nil || b.Len() == 0 {
		return nil, fmt.Errorf("knn: empty collection")
	}
	s := &Scan{mat: b}
	if b.Dim() == 32 {
		s.head, s.boxes = headSlab(b.Slab(0, b.Len()), b.Len())
	}
	return s, nil
}

// headSlab copies dims [0,8) of every row of a 32-wide row-major slab
// into the contiguous stride-8 layout phase 1 reads and, in the same
// pass, records every DefaultBatchTile-row tile's bounding box (layout:
// Scan.boxes).
func headSlab(slab []float64, rows int) (head, boxes []float64) {
	head = make([]float64, rows*8)
	tiles := (rows + DefaultBatchTile - 1) / DefaultBatchTile
	boxes = make([]float64, tiles*64)
	for t := 0; t < tiles; t++ {
		lo, hi := boxes[t*64:t*64+32:t*64+32], boxes[t*64+32:t*64+64:t*64+64]
		first := t * DefaultBatchTile
		copy(lo, slab[first*32:first*32+32])
		copy(hi, lo)
		for r := first; r < min(first+DefaultBatchTile, rows); r++ {
			row := slab[r*32 : r*32+32 : r*32+32]
			copy(head[r*8:r*8+8], row[:8])
			for j, x := range row {
				lo[j] = min(lo[j], x)
				hi[j] = max(hi[j], x)
			}
		}
	}
	return head, boxes
}

// Len implements Searcher.
func (s *Scan) Len() int { return s.mat.Len() }

// Describe implements BatchSearcher: the exact tier has no parameters.
func (s *Scan) Describe() string { return "scan" }

// Matrix returns the underlying feature backend.
func (s *Scan) Matrix() store.Backend { return s.mat }

func (s *Scan) checkQuery(q []float64, k int) error {
	if k <= 0 {
		return fmt.Errorf("knn: k must be positive, got %d", k)
	}
	if len(q) != s.mat.Dim() {
		return fmt.Errorf("knn: query has dimension %d, want %d", len(q), s.mat.Dim())
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

// TopK maintains the k smallest (distance, index) pairs seen so far using
// a bounded max-heap. It is shared by all Searcher implementations. The
// heap is hand-rolled rather than container/heap: Offer sits on the
// per-candidate hot path of every scan and index search, and the
// interface-based heap costs a virtual Less/Swap call per sift level.
type TopK struct {
	k int
	h []Result
}

// NewTopK returns an accumulator for the k nearest results.
func NewTopK(k int) *TopK {
	return &TopK{k: k, h: make([]Result, 0, k)}
}

// Offer considers a candidate.
func (t *TopK) Offer(index int, dist float64) {
	if len(t.h) < t.k {
		t.h = append(t.h, Result{Index: index, Distance: dist})
		t.siftUp(len(t.h) - 1)
		return
	}
	if worse(Result{Index: index, Distance: dist}, t.h[0]) {
		return
	}
	t.h[0] = Result{Index: index, Distance: dist}
	t.siftDown(0)
}

// siftUp restores the max-heap property from leaf i upward, moving the
// displaced element once (hole insertion) instead of swapping per level.
func (t *TopK) siftUp(i int) {
	h := t.h
	item := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(item, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = item
}

// siftDown restores the max-heap property from node i downward.
func (t *TopK) siftDown(i int) {
	h := t.h
	n := len(h)
	item := h[i]
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		largest := left
		if right := left + 1; right < n && worse(h[right], h[left]) {
			largest = right
		}
		if !worse(h[largest], item) {
			break
		}
		h[i] = h[largest]
		i = largest
	}
	h[i] = item
}

// Bound returns the current k-th smallest distance, or +Inf semantics via
// ok=false when fewer than k candidates have been offered. The IVF
// probe, shortlist and rerank loops (internal/ann/ivf.go) feed it back
// as their early-abandon bound.
func (t *TopK) Bound() (float64, bool) {
	if len(t.h) < t.k {
		return 0, false
	}
	return t.h[0].Distance, true
}

// Results returns the accumulated results sorted by ascending distance,
// ties broken by ascending index.
func (t *TopK) Results() []Result {
	out := make([]Result, len(t.h))
	copy(out, t.h)
	SortResults(out)
	return out
}

// SortResults orders results by ascending (distance, index) — the
// canonical result order every searcher returns.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Distance < b.Distance:
			return -1
		case a.Distance > b.Distance:
			return 1
		case a.Index < b.Index:
			return -1
		case a.Index > b.Index:
			return 1
		}
		return 0
	})
}

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
