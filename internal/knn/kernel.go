// Kernelized scan paths: squared-space comparison, early abandonment, and
// a best-first descent of a tile tree with an early stop. The naive path
// pays a virtual Metric.Distance call and a math.Sqrt per database
// vector; the kernel path walks the contiguous feature slab, filters
// candidates by their squared distance (monotone in the true distance),
// drops a candidate as soon as its partial sum exceeds the current k-th
// best, and takes one square root per *offered candidate*, which it ranks
// by (√, index) exactly as the naive path does. At D = 32 a search runs
// the phased tile cascade (scanTile32), whose first phase streams the
// dimension-blocked head slab instead of the full rows. The tiles are the
// leaves of a k-d partition built with the scan (TileOrder), and every
// node of that tree keeps the bounding box of its rows, so a tile's box
// stays tight in any stored order. Search descends the tree best-first on
// the calling goroutine, bounding only the children of the nodes it pops,
// and stops at the first node whose box is provably beyond the k-th best.
// The parity property tests assert every path returns []Result identical
// to the generic path.
package knn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/distance"
)

// tileRows is the number of rows per tile of the phased cascade, a leaf
// of the k-d scan order: 64 rows × 32 dims × 8 B = 16 KiB of full rows
// and 4 KiB of head slab. A search bounds only the nodes beside its path
// through the tree, not every tile, so small tiles cost little to rank
// and let the stop cut close to the k-th neighbour (DESIGN.md, "Tile
// size").
const tileRows = 64

// RootBound2 returns the largest float64 whose square root rounds to at
// most r: the squared sums that can still tie or beat a k-th distance r.
// Square roots merge neighbouring doubles (about two per root), so r·r
// alone can lie an ulp below a sum the naive path ranks level with r.
// +Inf and NaN map to themselves. Every exact path that ranks by the
// root and filters in squared space (these scans) uses it.
func RootBound2(r float64) float64 {
	b := math.Float64bits(r * r)
	for math.Sqrt(math.Float64frombits(b)) > r {
		b--
	}
	for math.Sqrt(math.Float64frombits(b+1)) <= r {
		b++
	}
	return math.Float64frombits(b)
}

// searchKernel answers one k-NN query through the squared-space kernel
// on the calling goroutine: best-first over the tiles at D = 32,
// otherwise one row loop over the whole collection (scanRows).
func (s *Scan) searchKernel(q []float64, k int, kern distance.Kernel) []Result {
	if s.head != nil {
		return s.searchTiles(q, k, kern.Weights(), nil)
	}
	return s.scanRows(q, k, kern)
}

// scanRows ranks every row through the canonical vec-backed kernel, at
// every dimensionality without a head slab, so every surviving sum is
// bitwise identical to the naive Metric implementations; the two differ
// only in how much of a doomed row is read.
func (s *Scan) scanRows(q []float64, k int, kern distance.Kernel) []Result {
	st := newTopK(k)
	bound2 := st.bound2
	dim, n := s.mat.Dim(), s.mat.Len()
	slab := s.mat.Slab(0, n)
	for i := 0; i < n; i++ {
		row := slab[i*dim : i*dim+dim : i*dim+dim]
		if sum, abandoned := kern.SquaredAbandon(q, row, bound2); !abandoned {
			bound2 = st.OfferRoot(i, sum)
		}
	}
	return st.items
}

// searchWork counts one search's work, with no clock: the nodes whose
// box it bounded, the tiles it scanned and the rows that entered phase 1.
type searchWork struct{ bounded, tiles, rows int }

// searchTiles answers one D = 32 query best-first on the calling
// goroutine, descending the k-d tree over the tiles (Scan.kids): it pops
// the node of least box bound, pushes each child whose bound is within
// the live k-th bound, scans a popped tile, and stops at the first popped
// bound strictly beyond the live one. A node's box holds its children's,
// so its bound is ≤ theirs bitwise (boxBound2): the popped bounds ascend
// while the live bound only falls, so every node left is beyond it too
// and no result changes. work, when not nil, counts the search's work.
func (s *Scan) searchTiles(q []float64, k int, w []float64, work *searchWork) []Result {
	bufs := s.getTileBufs()
	defer tileBufPool.Put(bufs)
	st := newTopK(k)
	n, tiles := s.mat.Len(), s.tiles()
	h := nodeHeap(bufs.heap[:0])
	root := int32(2*tiles - 2)
	h.push(nodeRank{boxBound2(q, w, s.box(root)), root})
	if work != nil {
		work.bounded++
	}
	for len(h) > 0 {
		top := h.pop()
		if top.box2 > st.bound2 {
			break
		}
		if t := int(top.node); t < tiles {
			lo, hi := t*tileRows, min(t*tileRows+tileRows, n)
			s.scanTile32(q, w, lo, hi, &st, bufs)
			if work != nil {
				work.tiles++
				work.rows += hi - lo
			}
			continue
		}
		i := 2 * (int(top.node) - tiles)
		for _, c := range s.kids[i : i+2 : i+2] {
			if b := boxBound2(q, w, s.box(c)); b <= st.bound2 {
				h.push(nodeRank{b, c})
			}
		}
		if work != nil {
			work.bounded += 2
		}
	}
	bufs.heap = h
	return st.items
}

// nodeRank is one entry of a search's frontier: a node of the k-d tree
// and the lower bound box2 of its rows' kernel sums.
type nodeRank struct {
	box2 float64
	node int32
}

// less orders the frontier nearest first, ties by node id.
func (a nodeRank) less(b nodeRank) bool {
	return a.box2 < b.box2 || a.box2 == b.box2 && a.node < b.node
}

// nodeHeap is a binary min-heap of the frontier. A search pushes each
// node at most once, so a heap with room for every node never grows.
type nodeHeap []nodeRank

func (h *nodeHeap) push(x nodeRank) {
	a := append(*h, x)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = x
	*h = a
}

func (h *nodeHeap) pop() nodeRank {
	a := *h
	top, x := a[0], a[len(a)-1]
	a = a[:len(a)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1].less(a[c]) {
			c++
		}
		if !a[c].less(x) {
			break
		}
		a[i] = a[c]
		i = c
	}
	if len(a) > 0 {
		a[i] = x
	}
	*h = a
	return top
}

// SearchBatchMulti answers qs[i] under ms[i] by calling Search per query.
// It exists only for the HTTP benchmark's traced searcher
// (bench/trace.go, through BatchSearcher); ROADMAP.md item 2(d) deletes
// it along with that interface.
func (s *Scan) SearchBatchMulti(qs [][]float64, k int, ms []distance.Metric) ([][]Result, error) {
	if len(ms) != len(qs) {
		return nil, fmt.Errorf("knn: %d queries but %d metrics", len(qs), len(ms))
	}
	out := make([][]Result, len(qs))
	for i, q := range qs {
		res, err := s.Search(q, k, ms[i])
		if err != nil {
			return nil, fmt.Errorf("knn: batch query %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// tileBufs are the scratch buffers of one phased tile search: the four
// stripe accumulators of every row in the tile, the survivor row lists
// between phases, and the search's best-first frontier.
type tileBufs struct {
	s0, s1, s2, s3 []float64
	surv           []int32
	heap           []nodeRank
}

// tileBufPool recycles tileBufs across searches, so a lone query's scan
// allocates nothing beyond its candidate list.
var tileBufPool sync.Pool

// getTileBufs returns scratch for one D = 32 search. Every pooled
// frontier has room for every node of s's tree, so a search descends it
// without allocating.
func (s *Scan) getTileBufs() *tileBufs {
	b, _ := tileBufPool.Get().(*tileBufs)
	if b == nil {
		b = &tileBufs{
			s0:   make([]float64, tileRows),
			s1:   make([]float64, tileRows),
			s2:   make([]float64, tileRows),
			s3:   make([]float64, tileRows),
			surv: make([]int32, tileRows),
		}
	}
	if nodes := len(s.boxes) / 64; cap(b.heap) < nodes {
		b.heap = make([]nodeRank, 0, nodes)
	}
	return b
}

// scanTile32 runs the four-pass cascade over scan positions [lo, hi) for
// one query at D = 32 (w == nil: unweighted), through the phase kernels
// (AVX2 or SSE2 on amd64, identical Go loops elsewhere — phase1.go).
//
// The cascade is branch-free and vertical instead of an abandoning row
// loop: dims [0,8) are accumulated for every row with survivors
// compacted against the tile-entry bound, then three more 8-dimension
// passes extend the shrinking survivor set, and final sums within the
// live bound are offered. Early abandonment's per-row exit branch
// mispredicts on nearly every row and costs more than the arithmetic it
// skips; the cascade's filters are branchless cursor advances. Phase 1
// rejects most rows (78–91% on the paper's histograms; DESIGN.md has the
// table), so it reads the head slab — 64 contiguous bytes per row, in
// scan order — and only the survivors' later segments are gathered from
// the backend's 256-byte row-major rows, by collection row (Scan.ids).
// Filtering against the tile-entry bound (always ≥ the live bound) can
// only keep extra candidates, never drop one a sequential scan would
// keep — the final live-bound check restores exactness.
//
// The caller skips a tile whose box bound is strictly beyond the live
// bound (searchTiles): no row in it can then be offered. Equality must
// not skip: a row on the bound may still win the index tie-break against
// a k-th candidate found earlier in a later tile, which a best-first
// search can have done.
func (s *Scan) scanTile32(q, w []float64, lo, hi int, st *TopK, b *tileBufs) {
	bound2 := st.bound2
	rows, n := hi-lo, s.mat.Len()
	head := s.head[lo*8 : hi*8]
	slab := s.mat.Slab(0, n)
	q = q[:32]
	s0b, s1b, s2b, s3b := b.s0, b.s1, b.s2, b.s3
	surv := b.surv
	var c int
	if w == nil {
		c = phase1x32Sel(&q[0], &head[0], rows, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], &surv[0])
	} else {
		w = w[:32]
		c = phase1x32wSel(&q[0], &w[0], &head[0], rows, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], &surv[0])
	}
	// Phase 1 numbered its survivors by position in the tile; the later
	// phases gather them, and the offers name them, by collection row.
	ids := s.ids[lo:hi]
	for j, p := range surv[:c] {
		surv[j] = ids[p]
	}
	if w == nil {
		c = phaseNext8Sel(&q[8], &slab[8], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], n)
		c = phaseNext8Sel(&q[16], &slab[16], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], n)
		c = phaseNext8Sel(&q[24], &slab[24], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], n)
	} else {
		c = phaseNext8wSel(&q[8], &w[8], &slab[8], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], n)
		c = phaseNext8wSel(&q[16], &w[16], &slab[16], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], n)
		c = phaseNext8wSel(&q[24], &w[24], &slab[24], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], n)
	}
	for j := 0; j < c; j++ {
		if sum := (s0b[j] + s1b[j]) + (s2b[j] + s3b[j]); sum <= bound2 {
			bound2 = st.OfferRoot(int(surv[j]), sum)
		}
	}
}

// tiles returns the number of tiles, the leaves of s's k-d tree.
func (s *Scan) tiles() int { return (s.mat.Len() + tileRows - 1) / tileRows }

// box returns the bounding box of node i of s's k-d tree (layout:
// Scan.boxes).
func (s *Scan) box(i int32) []float64 {
	j := int(i) * 64
	return s.boxes[j : j+64 : j+64]
}

// unitWeights makes the unweighted bound the weighted one: (1·g)·g is
// g·g exactly.
var unitWeights = [32]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}

// boxBound2 returns a lower bound on the squared distance from q to every
// row inside box (32 minima then 32 maxima; w == nil: unweighted). Per
// dimension the gap g from q to [lo, hi] (0 inside) enters the stripe
// accumulation exactly where a row's difference d does — dim i into
// stripe i%4, as (w·g)·g, reduced (s0+s1)+(s2+s3) — so the bound holds
// bitwise, not just in real arithmetic: |g| ≤ |d| survives rounding
// because subtraction rounds monotonically, and products and sums of
// non-negative operands (weights are validated non-negative) are
// monotone too. The same argument orders the tree's bounds: a node's box
// holds each child's, so per dimension its gap is ≤ the child's, and its
// bound ≤ the child's bitwise. The float64 conversions forbid FMA fusion,
// matching the separate roundings of the phase kernels.
func boxBound2(q, w, box []float64) float64 {
	if w == nil {
		w = unitWeights[:]
	}
	q, w = q[:32:32], w[:32:32]
	lo, hi := box[:32:32], box[32:64:64]
	var s0, s1, s2, s3 float64
	for i := 0; i < 32; i += 4 {
		s0 += gapTerm(q[i], lo[i], hi[i], w[i])
		s1 += gapTerm(q[i+1], lo[i+1], hi[i+1], w[i+1])
		s2 += gapTerm(q[i+2], lo[i+2], hi[i+2], w[i+2])
		s3 += gapTerm(q[i+3], lo[i+3], hi[i+3], w[i+3])
	}
	return (s0 + s1) + (s2 + s3)
}

// gapTerm is (w·g)·g for the gap g between x and [lo, hi]: max(lo−x,
// x−hi, 0), computed as the sum of the two differences' positive parts.
// With lo ≤ hi at most one of them is positive, so the sum is that
// difference exactly, or +0; it spares the builtin max's NaN and
// signed-zero fix-ups, which finite boxes and queries never need.
func gapTerm(x, lo, hi, w float64) float64 {
	g := positivePart(lo-x) + positivePart(x-hi)
	return float64(float64(w*g) * g)
}

// positivePart returns a when its sign bit is clear and +0 otherwise,
// without a branch.
func positivePart(a float64) float64 {
	b := math.Float64bits(a)
	return math.Float64frombits(b &^ uint64(int64(b)>>63))
}
