// Kernelized scan paths: squared-space comparison, early abandonment, a
// sharded parallel scan with a deterministic merge, and a cache-tiled
// batch scan. The naive path pays a virtual Metric.Distance call and a
// math.Sqrt per database vector; the kernel path walks the contiguous
// feature slab, compares candidates by their squared distance (monotone
// in the true distance), drops a candidate as soon as its partial sum
// exceeds the current k-th best, and takes one square root per *reported
// result*. At D = 32 lone and batched queries alike run the phased tile
// cascade (scanTile32), whose first phase streams the dimension-blocked
// head slab instead of the full rows, and which skips a whole tile whose
// bounding box is provably beyond the k-th best — a bound the shards of a
// lone Search share. Batches additionally share each
// L2-sized row block across every query in the batch. The parity property
// tests assert every path returns []Result identical to the generic path.
package knn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/distance"
)

// minShardRows is the smallest shard worth a goroutine: below this the
// spawn/merge overhead dominates the scan itself.
const minShardRows = 1024

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
// best candidates so far as a sorted insertion array in *squared* space,
// and the current abandon bound (the k-th best squared distance seen so
// far, +Inf until k candidates have been retained). A sorted array beats
// a binary heap here: scan loops pre-filter with bound2, so nearly every
// offer is a real insert, and a binary search plus a ≤ 800-byte memmove
// costs less than a heap sift's cascade of mispredicted compares — while
// keeping the same retained set under the (distance, index) total order.
type scanState struct {
	k      int
	items  []Result // ascending by (squared distance, index)
	bound2 float64
	// shared is the bound every shard of one sharded Search prunes
	// against; nil on the unsharded and batch paths.
	shared *sharedBound
}

func newScanState(k int) scanState {
	return scanState{k: k, items: make([]Result, 0, k), bound2: math.Inf(1)}
}

// live returns the squared distance a row must not exceed to matter: the
// local k-th best, or, in a sharded Search, the lowest k-th best any shard
// has published (publishing the local one first if it is lower).
func (st *scanState) live() float64 {
	if st.shared == nil {
		return st.bound2
	}
	return st.shared.lower(st.bound2)
}

// sharedBound holds, as float64 bits, the lowest k-th-best squared
// distance any shard of one Search has reached. A shard that reached b
// holds k rows within b, so a row of any shard beyond b is strictly worse
// than k others and cannot be in the result: pruning against the shared
// bound is exact, and rows exactly on it are kept for the index
// tie-break.
type sharedBound struct{ bits atomic.Uint64 }

// lower publishes local if it is below the shared bound (a CAS-min) and
// returns the resulting minimum. An unfilled shard's +Inf publishes
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

// offer inserts a candidate with squared distance d2, keeping items
// sorted and at most k long, and refreshes bound2. Callers pre-filter
// with bound2, but offer is also correct for candidates beyond it. The
// insert position comes from a backward shift (insertion sort step), not
// a binary search: the shift loop's branch is perfectly predicted until
// the single exit, while a binary search eats one misprediction per
// level.
func (st *scanState) offer(idx int, d2 float64) {
	cand := Result{Index: idx, Distance: d2}
	items := st.items
	if len(items) < st.k {
		items = append(items, cand)
		j := len(items) - 1
		for j > 0 && worse(items[j-1], cand) {
			items[j] = items[j-1]
			j--
		}
		items[j] = cand
		st.items = items
		if len(items) == st.k {
			st.bound2 = items[st.k-1].Distance
		}
		return
	}
	j := st.k - 1
	if !worse(items[j], cand) {
		return
	}
	for j > 0 && worse(items[j-1], cand) {
		items[j] = items[j-1]
		j--
	}
	items[j] = cand
	st.bound2 = items[st.k-1].Distance
}

// searchKernel answers one k-NN query through the squared-space kernel,
// sharding the collection across workers when it is large enough.
func (s *Scan) searchKernel(q []float64, k int, kern distance.Kernel) []Result {
	n := s.mat.Len()
	workers := scanWorkers(n)
	if workers == 1 {
		st := newScanState(k)
		bufs := s.getTileBufs()
		s.scanRange(q, kern, 0, n, &st, bufs)
		putTileBufs(bufs)
		return finishSquared(st.items, k)
	}
	// Contiguous shards keep each worker on one linear slab of the store.
	// The workers' WaitGroup and shared bound are one allocation.
	states := make([]scanState, workers)
	var g struct {
		wg    sync.WaitGroup
		bound sharedBound
	}
	g.bound.bits.Store(math.Float64bits(math.Inf(1)))
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			states[w] = newScanState(k)
			states[w].shared = &g.bound
			bufs := s.getTileBufs()
			s.scanRange(q, kern, lo, hi, &states[w], bufs)
			putTileBufs(bufs)
		}()
	}
	g.wg.Wait()
	return mergeShards(states, k)
}

// mergeShards is the deterministic merge: the union of per-shard
// candidates is re-ranked under the same (distance, index) total order
// regardless of worker completion order. Results are identical run to
// run, but per-shard candidate sets now depend on timing: how much of its
// shard a worker prunes depends on when the others published their
// bounds.
func mergeShards(states []scanState, k int) []Result {
	merged := newScanState(k)
	for w := range states {
		for _, r := range states[w].items {
			if r.Distance <= merged.bound2 {
				merged.offer(r.Index, r.Distance)
			}
		}
	}
	return finishSquared(merged.items, k)
}

// scanRange accumulates rows [lo, hi) into st in *squared* space: the
// state holds squared distances, whose (value, index) order matches the
// true-distance order because x ↦ √x is monotone. Dimensionality 32 (the
// paper's histogram width, the only one with a head slab) runs the phased
// cascade tile by tile through bufs, on tile-aligned boundaries so each
// block lies inside one tile box; other dimensionalities go through the
// canonical vec-backed kernel, so every path produces sums bitwise
// identical to the naive Metric implementations. The two differ only in
// how much of a doomed row is read, never in a surviving sum.
func (s *Scan) scanRange(q []float64, kern distance.Kernel, lo, hi int, st *scanState, bufs *tileBufs) {
	if s.head != nil {
		w := kern.Weights()
		tile := s.tile()
		for blockLo := lo; blockLo < hi; {
			blockHi := min((blockLo/tile+1)*tile, hi)
			s.scanTile32(q, w, blockLo, blockHi, st, bufs)
			blockLo = blockHi
		}
		return
	}
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

// finishSquared converts squared-space candidates into final results: one
// sqrt per result, then the canonical (distance, index) sort.
func finishSquared(items []Result, k int) []Result {
	for i := range items {
		items[i].Distance = math.Sqrt(items[i].Distance)
	}
	SortResults(items)
	if len(items) > k {
		items = items[:k]
	}
	return items
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
// a kernel, or the batch is a singleton (which the sharded Search serves
// with more parallelism), queries fall back to Search one by one.
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
// the four stripe accumulators of every row in the tile, and the
// survivor row lists between phases.
type tileBufs struct {
	s0, s1, s2, s3 []float64
	surv           []int32
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
// allocates nothing per shard beyond its candidate list.
var tileBufPool sync.Pool

// getTileBufs returns scratch for one worker of the D = 32 cascade, or
// nil at other dimensionalities, which need none.
func (s *Scan) getTileBufs() *tileBufs {
	if s.head == nil {
		return nil
	}
	tile := s.tile()
	if b, _ := tileBufPool.Get().(*tileBufs); b != nil && len(b.surv) >= tile {
		return b
	}
	return newTileBufs(tile)
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
			s.scanRange(qs[qi], kerns[qi], blockLo, blockHi, &states[qi-qlo], bufs)
		}
	}
	putTileBufs(bufs)
	for qi := qlo; qi < qhi; qi++ {
		out[qi] = finishSquared(states[qi-qlo].items, k)
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
// table), so it reads the head slab — 64 contiguous bytes per row — and only the survivors'
// later segments are gathered from the 256-byte row-major rows.
// Filtering against the tile-entry bound (always ≥ the live bound) can
// only keep extra candidates, never drop one a sequential scan would
// keep — the final live-bound check restores exactness.
//
// Before phase 1 the whole block is skipped when its tile box is
// provably beyond the live bound: boxBound2 is ≤ every row's kernel sum
// bitwise, so a strictly greater bound means no row in the tile can be
// offered. Equality must not skip: a row on the bound may still win the
// index tie-break against another shard's k-th candidate.
func (s *Scan) scanTile32(q, w []float64, blockLo, blockHi int, st *scanState, b *tileBufs) {
	bound2 := st.live()
	if box := s.tileBox(blockLo, blockHi); box != nil && boxBound2(q, w, box) > bound2 {
		return
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
