// Kernelized scan paths: squared-space comparison, early abandonment, a
// best-first tile order with an early stop, and a cache-tiled batch scan.
// The naive path pays a virtual Metric.Distance call and a math.Sqrt per
// database vector; the kernel path walks the contiguous feature slab,
// filters candidates by their squared distance (monotone in the true
// distance), drops a candidate as soon as its partial sum exceeds the
// current k-th best, and takes one square root per *offered candidate*,
// which it ranks by (√, index) exactly as the naive path does. At D = 32
// lone and batched queries alike run the phased tile cascade (scanTile32),
// whose first phase streams the dimension-blocked head slab instead of the
// full rows, and which skips a whole tile whose bounding box is provably
// beyond the k-th best. A lone Search ranks every tile by that box bound
// and scans nearest first on the calling goroutine, stopping at the first
// tile beyond the k-th best; helpers join it, pulling from the same queue
// against one shared bound, only when the query lies inside the boxes of
// enough rows that no bound can skip them. Batches additionally share each
// L2-sized row block across every query in the batch. The parity property
// tests assert every path returns []Result identical to the generic path.
package knn

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
)

// minShardRows is the fewest rows worth a goroutine of their own: a D ≠ 32
// scan shards only above this many rows per worker, and a lone D = 32
// search takes a helper only when at least this many rows per worker lie
// in tiles whose box contains the query (DESIGN.md, "Best-first order on
// one goroutine", has the measurement).
const minShardRows = 32768

// DefaultBatchTile is the number of rows per tile of the phased cascade
// and per cache block of the batch scan: 512 rows × 32 dims × 8 B =
// 128 KiB, comfortably L2-resident while the batch's query vectors stay
// in L1.
const DefaultBatchTile = 512

// scanWorkers returns how many shards to scan n rows with.
func scanWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if max := n / minShardRows; w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// scanState carries one query's accumulation across row blocks: the k
// best candidates so far as a sorted insertion array, and the current
// abandon bound in squared space. A sorted array beats a binary heap here:
// scan loops pre-filter with bound2, so nearly every offer is a real
// insert, and a backward shift plus a ≤ 800-byte memmove costs less than a
// heap sift's cascade of mispredicted compares — while keeping the same
// retained set under the (distance, index) total order.
type scanState struct {
	k int
	// items holds true distances, one square root per offered candidate,
	// ascending by (distance, index): the naive path's order. Two distinct
	// squared sums one ulp apart can share a root, and ranking by the
	// squared sum would then break the tie on the wrong key.
	items []Result
	// bound2 is rootBound2 of the k-th distance: the largest squared sum
	// that can still tie or beat it. +Inf until k candidates are retained.
	bound2 float64
	// shared is the bound every goroutine of one lone Search prunes
	// against; nil when the search runs on one goroutine.
	shared *sharedBound
}

func newScanState(k int) scanState {
	return scanState{k: k, items: make([]Result, 0, k), bound2: math.Inf(1)}
}

// live returns the squared distance a row must not exceed to matter: the
// local bound, or, in a shared search, the lowest bound any goroutine has
// published (publishing the local one first if it is lower).
func (st *scanState) live() float64 {
	if st.shared == nil {
		return st.bound2
	}
	return st.shared.lower(st.bound2)
}

// sharedBound holds, as float64 bits, the lowest k-th-best squared bound
// any goroutine of one Search has reached. A goroutine that reached b
// holds k rows whose roots are at most √b's, so a row of any tile beyond b
// is strictly worse than k others and cannot be in the result: pruning
// against the shared bound is exact, and rows exactly on it are kept for
// the index tie-break.
type sharedBound struct{ bits atomic.Uint64 }

// lower publishes local if it is below the shared bound (a CAS-min) and
// returns the resulting minimum. An unfilled state's +Inf publishes
// nothing.
func (b *sharedBound) lower(local float64) float64 {
	for {
		old := b.bits.Load()
		if cur := math.Float64frombits(old); cur <= local {
			return cur
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(local)) {
			return local
		}
	}
}

// rootBound2 returns the largest float64 whose square root rounds to at
// most r: the squared sums that can still tie or beat a k-th distance r.
// Square roots merge neighbouring doubles (about two per root), so r·r
// alone can lie an ulp below a sum the naive path ranks level with r.
// +Inf and NaN map to themselves.
func rootBound2(r float64) float64 {
	b := math.Float64bits(r * r)
	for math.Sqrt(math.Float64frombits(b)) > r {
		b--
	}
	for math.Sqrt(math.Float64frombits(b+1)) <= r {
		b++
	}
	return math.Float64frombits(b)
}

// offer ranks a candidate with squared distance d2 by its square root.
// Callers pre-filter with bound2, but offer is also correct for
// candidates beyond it.
func (st *scanState) offer(idx int, d2 float64) {
	st.insert(Result{Index: idx, Distance: math.Sqrt(d2)})
}

// insert keeps items sorted and at most k long, and refreshes bound2.
// The insert position comes from a backward shift (insertion sort step),
// not a binary search: the shift loop's branch is perfectly predicted
// until the single exit, while a binary search eats one misprediction per
// level.
func (st *scanState) insert(cand Result) {
	items := st.items
	j := len(items)
	if j < st.k {
		items = append(items, cand)
	} else if j--; !worse(items[j], cand) {
		return
	}
	for j > 0 && worse(items[j-1], cand) {
		items[j] = items[j-1]
		j--
	}
	items[j] = cand
	st.items = items
	if len(items) == st.k {
		st.bound2 = rootBound2(items[st.k-1].Distance)
	}
}

// searchKernel answers one k-NN query through the squared-space kernel:
// best-first over the tiles at D = 32, otherwise the row loop, sharded
// across workers when the collection is large enough.
func (s *Scan) searchKernel(q []float64, k int, kern distance.Kernel) []Result {
	if s.head != nil {
		return s.searchTiles(q, k, kern.Weights())
	}
	n := s.mat.Len()
	workers := scanWorkers(n)
	if workers == 1 {
		st := newScanState(k)
		s.scanRange(q, kern, 0, n, &st)
		return st.items
	}
	// Contiguous shards keep each worker on one linear slab of the store.
	states := make([]scanState, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			states[w] = newScanState(k)
			s.scanRange(q, kern, w*n/workers, (w+1)*n/workers, &states[w])
		}()
	}
	wg.Wait()
	return mergeShards(states, k)
}

// mergeShards is the deterministic merge: the union of per-worker
// candidates is re-ranked under the same (distance, index) total order
// regardless of worker completion order. Results are identical run to
// run, but per-worker candidate sets depend on timing: which tiles a
// worker pulls, and how much of them it prunes, depends on when the others
// published their bounds.
func mergeShards(states []scanState, k int) []Result {
	merged := newScanState(k)
	for w := range states {
		for _, r := range states[w].items {
			merged.insert(r)
		}
	}
	return merged.items
}

// scanRange accumulates rows [lo, hi) into st through the canonical
// vec-backed kernel, at every dimensionality without a head slab, so every
// surviving sum is bitwise identical to the naive Metric implementations;
// the two differ only in how much of a doomed row is read.
func (s *Scan) scanRange(q []float64, kern distance.Kernel, lo, hi int, st *scanState) {
	dim := s.mat.Dim()
	bound2 := st.bound2
	slab := s.mat.Slab(lo, hi)
	for i := lo; i < hi; i++ {
		off := (i - lo) * dim
		row := slab[off : off+dim : off+dim]
		sum, abandoned := kern.SquaredAbandon(q, row, bound2)
		if abandoned {
			continue
		}
		st.offer(i, sum)
		bound2 = st.bound2
	}
}

// tileRank is one block of a lone search's best-first order: rows
// [lo, hi) and the lower bound box2 of their kernel sums.
type tileRank struct {
	box2   float64
	lo, hi int
}

// byBox orders tiles nearest first, ties by position. A top-level
// function, so passing it to the sort allocates nothing.
func byBox(a, b tileRank) int {
	if c := cmp.Compare(a.box2, b.box2); c != 0 {
		return c
	}
	return a.lo - b.lo
}

// rankTiles bounds every block of the collection by its box and sorts the
// blocks nearest first into b's pooled order buffer. zeroRows counts the
// rows of blocks bounded at 0 — their boxes contain q (or they have no
// box), so no bound can ever skip them.
func (s *Scan) rankTiles(q, w []float64, b *tileBufs) (order []tileRank, zeroRows int) {
	n, tile := s.mat.Len(), s.tile()
	order = b.order[:0]
	for lo := 0; lo < n; lo += tile {
		hi := min(lo+tile, n)
		box2 := s.blockBound2(q, w, lo, hi)
		if box2 == 0 {
			zeroRows += hi - lo
		}
		order = append(order, tileRank{box2, lo, hi})
	}
	slices.SortFunc(order, byBox)
	b.order = order
	return order, zeroRows
}

// searchTiles answers one D = 32 query best-first: tiles in ascending
// box bound, scanned on the calling goroutine until the first whose bound
// is strictly beyond the live k-th best. The queue ascends and the bound
// only falls, so every later tile is beyond it too and no result changes.
// Helpers join only when the tiles bounded at 0 hold at least minShardRows
// rows per worker: on rows stored without locality, where best-first
// order cannot stop early.
func (s *Scan) searchTiles(q []float64, k int, w []float64) []Result {
	bufs := s.getTileBufs()
	defer putTileBufs(bufs)
	order, zeroRows := s.rankTiles(q, w, bufs)
	if workers := min(runtime.GOMAXPROCS(0), zeroRows/minShardRows); workers > 1 {
		return s.searchShared(q, w, k, order, workers, bufs)
	}
	tq := tileQueue{order: order}
	st := newScanState(k)
	for s.pull(q, w, &tq, &st, bufs) {
	}
	return st.items
}

// tileQueue is the best-first order of one lone Search shared by the
// calling goroutine and its helpers: each pulls the next tile and prunes
// against one shared k-th-best bound.
type tileQueue struct {
	order []tileRank
	next  atomic.Int64
	bound sharedBound
}

// reset points a new queue at order, with no bound yet.
func (tq *tileQueue) reset(order []tileRank) {
	tq.order = order
	tq.bound.bits.Store(math.Float64bits(math.Inf(1)))
}

// join returns the scan state of one more goroutine pulling from tq.
func (tq *tileQueue) join(k int) scanState {
	st := newScanState(k)
	st.shared = &tq.bound
	return st
}

// pull scans the queue's next tile into st. It returns false, scanning
// nothing, when the queue is empty or that tile's box is strictly beyond
// st's live bound — and then so is every tile after it.
func (s *Scan) pull(q, w []float64, tq *tileQueue, st *scanState, b *tileBufs) bool {
	i := int(tq.next.Add(1) - 1)
	if i >= len(tq.order) {
		return false
	}
	t := tq.order[i]
	return s.scanTile32(q, w, t.lo, t.hi, t.box2, st, b)
}

// searchShared drains the queue from the calling goroutine and workers−1
// helpers, then merges their candidates deterministically.
func (s *Scan) searchShared(q, w []float64, k int, order []tileRank, workers int, bufs *tileBufs) []Result {
	// The queue and the helpers' WaitGroup are one allocation.
	var g struct {
		queue tileQueue
		wg    sync.WaitGroup
	}
	g.queue.reset(order)
	states := make([]scanState, workers)
	for i := 1; i < workers; i++ {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			states[i] = g.queue.join(k)
			b := s.getTileBufs()
			for s.pull(q, w, &g.queue, &states[i], b) {
			}
			putTileBufs(b)
		}()
	}
	states[0] = g.queue.join(k)
	for s.pull(q, w, &g.queue, &states[0], bufs) {
	}
	g.wg.Wait()
	return mergeShards(states, k)
}

// SearchBatch answers many queries under one metric. With a kernel
// metric, queries are answered through the cache-tiled batch scan —
// every L2-sized row block is streamed from memory once and served to
// all queries — and the batch is split across GOMAXPROCS workers.
// Results are positionally aligned with qs and identical to calling
// Search per query: each query still visits rows in ascending order with
// its own TopK and abandon bound. Metrics without a kernel are answered
// sequentially, since the Metric interface does not promise goroutine
// safety.
func (s *Scan) SearchBatch(qs [][]float64, k int, m distance.Metric) ([][]Result, error) {
	ms := make([]distance.Metric, len(qs))
	for i := range ms {
		ms[i] = m
	}
	return s.SearchBatchMulti(qs, k, ms)
}

// SearchBatchMulti is SearchBatch with one metric per query — the shape
// of the feedback harness, where every retrieval carries its own learned
// weight vector. All queries still share each streamed cache block, so
// mixed-metric batches keep the memory amortization. If any metric lacks
// a kernel, or the batch is a singleton (which Search serves best-first,
// stopping early), queries fall back to Search one by one.
func (s *Scan) SearchBatchMulti(qs [][]float64, k int, ms []distance.Metric) ([][]Result, error) {
	if len(ms) != len(qs) {
		return nil, fmt.Errorf("knn: %d queries but %d metrics", len(qs), len(ms))
	}
	for i, q := range qs {
		if err := s.checkQuery(q, k); err != nil {
			return nil, fmt.Errorf("knn: batch query %d: %w", i, err)
		}
	}
	out := make([][]Result, len(qs))
	kerns := make([]distance.Kernel, len(qs))
	allKern := true
	for i, m := range ms {
		var ok bool
		if kerns[i], ok = distance.KernelFor(m); !ok {
			allKern = false
			break
		}
	}
	if !allKern || len(qs) == 1 {
		for i, q := range qs {
			res, err := s.Search(q, k, ms[i])
			if err != nil {
				return nil, err
			}
			out[i] = res
		}
		return out, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers <= 1 {
		s.scanBatchTiled(qs, k, kerns, out, 0, len(qs))
		return out, nil
	}
	// Split the query batch across workers; each worker tiles its share
	// of queries over the collection.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(qs) / workers
		hi := (w + 1) * len(qs) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			s.scanBatchTiled(qs, k, kerns, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return out, nil
}

// tileBufs are the per-worker scratch buffers of the phased tile scan:
// the four stripe accumulators of every row in the tile, the survivor row
// lists between phases, and a lone search's best-first tile order.
type tileBufs struct {
	s0, s1, s2, s3 []float64
	surv           []int32
	order          []tileRank
}

func newTileBufs(tile int) *tileBufs {
	return &tileBufs{
		s0:   make([]float64, tile),
		s1:   make([]float64, tile),
		s2:   make([]float64, tile),
		s3:   make([]float64, tile),
		surv: make([]int32, tile),
	}
}

// tileBufPool recycles tileBufs across searches, so a lone query's scan
// allocates nothing beyond its candidate list.
var tileBufPool sync.Pool

// getTileBufs returns scratch for one worker of the D = 32 cascade, or
// nil at other dimensionalities, which need none. Every worker's buffers
// can hold the whole tile order, so whichever a search draws from the pool
// ranks its tiles without allocating.
func (s *Scan) getTileBufs() *tileBufs {
	if s.head == nil {
		return nil
	}
	tile := s.tile()
	b, _ := tileBufPool.Get().(*tileBufs)
	if b == nil || len(b.surv) < tile {
		b = newTileBufs(tile)
	}
	if tiles := (s.mat.Len() + tile - 1) / tile; cap(b.order) < tiles {
		b.order = make([]tileRank, 0, tiles)
	}
	return b
}

func putTileBufs(b *tileBufs) {
	if b != nil {
		tileBufPool.Put(b)
	}
}

// scanBatchTiled processes queries qs[qlo:qhi] against the whole
// collection, tiling rows into L2-sized blocks: the outer loop streams
// one block, the inner loop advances every query's scan state across it.
// Per query this offers candidates in exactly the row order 0..n-1 with
// exactly the sums a standalone Search computes, so the result list is
// identical to per-query Search.
func (s *Scan) scanBatchTiled(qs [][]float64, k int, kerns []distance.Kernel, out [][]Result, qlo, qhi int) {
	n := s.mat.Len()
	states := make([]scanState, qhi-qlo)
	for i := range states {
		states[i] = newScanState(k)
	}
	tile := s.tile()
	bufs := s.getTileBufs()
	for blockLo := 0; blockLo < n; blockLo += tile {
		blockHi := min(blockLo+tile, n)
		for qi := qlo; qi < qhi; qi++ {
			st := &states[qi-qlo]
			if s.head == nil {
				s.scanRange(qs[qi], kerns[qi], blockLo, blockHi, st)
				continue
			}
			w := kerns[qi].Weights()
			s.scanTile32(qs[qi], w, blockLo, blockHi, s.blockBound2(qs[qi], w, blockLo, blockHi), st, bufs)
		}
	}
	putTileBufs(bufs)
	for qi := qlo; qi < qhi; qi++ {
		out[qi] = states[qi-qlo].items
	}
}

// scanTile32 runs the four-pass cascade over rows [blockLo, blockHi) for
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
// table), so it reads the head slab — 64 contiguous bytes per row — and
// only the survivors' later segments are gathered from the 256-byte
// row-major rows.
// Filtering against the tile-entry bound (always ≥ the live bound) can
// only keep extra candidates, never drop one a sequential scan would
// keep — the final live-bound check restores exactness.
//
// Before phase 1 the whole block is skipped, and false returned, when
// box2 — blockBound2, ≤ every row's kernel sum bitwise — is strictly
// beyond the live bound: no row in the block can then be offered. Equality
// must not skip: a row on the bound may still win the index tie-break
// against a k-th candidate found earlier in a later tile, which a
// best-first or shared search can have done.
func (s *Scan) scanTile32(q, w []float64, blockLo, blockHi int, box2 float64, st *scanState, b *tileBufs) bool {
	bound2 := st.live()
	if box2 > bound2 {
		return false
	}
	rows := blockHi - blockLo
	head := s.head[blockLo*8 : blockHi*8]
	slab := s.mat.Slab(blockLo, blockHi)
	q = q[:32]
	s0b, s1b, s2b, s3b := b.s0, b.s1, b.s2, b.s3
	surv := b.surv
	var c int
	if w == nil {
		c = phase1x32Sel(&q[0], &head[0], rows, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], &surv[0])
		c = phaseNext8Sel(&q[8], &slab[8], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], rows)
		c = phaseNext8Sel(&q[16], &slab[16], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], rows)
		c = phaseNext8Sel(&q[24], &slab[24], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], rows)
	} else {
		w = w[:32]
		c = phase1x32wSel(&q[0], &w[0], &head[0], rows, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], &surv[0])
		c = phaseNext8wSel(&q[8], &w[8], &slab[8], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], rows)
		c = phaseNext8wSel(&q[16], &w[16], &slab[16], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], rows)
		c = phaseNext8wSel(&q[24], &w[24], &slab[24], &surv[0], c, bound2, &s0b[0], &s1b[0], &s2b[0], &s3b[0], rows)
	}
	for j := 0; j < c; j++ {
		if sum := (s0b[j] + s1b[j]) + (s2b[j] + s3b[j]); sum <= bound2 {
			st.offer(blockLo+int(surv[j]), sum)
			bound2 = st.live()
		}
	}
	return true
}

// blockBound2 is boxBound2 of the tile box holding rows [lo, hi), or 0
// when the block spans two tiles and has no box.
func (s *Scan) blockBound2(q, w []float64, lo, hi int) float64 {
	if box := s.tileBox(lo, hi); box != nil {
		return boxBound2(q, w, box)
	}
	return 0
}

// tileBox returns the bounding box of the DefaultBatchTile-row tile
// holding rows [lo, hi) — a superset box for a partial block, which only
// loosens the bound — or nil when the rows span two tiles (only the
// tile-size parity test's block sizes do).
func (s *Scan) tileBox(lo, hi int) []float64 {
	t := lo / DefaultBatchTile
	if (hi-1)/DefaultBatchTile != t {
		return nil
	}
	return s.boxes[t*64 : t*64+64 : t*64+64]
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
// monotone too. The float64 conversions forbid FMA fusion, matching the
// separate roundings of the phase kernels.
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

// gapTerm is (w·g)·g for the gap g between x and [lo, hi].
func gapTerm(x, lo, hi, w float64) float64 {
	g := max(lo-x, x-hi, 0)
	return float64(float64(w*g) * g)
}
