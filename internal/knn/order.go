package knn

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"repro/internal/store"
)

// TileOrder returns the scan order NewScanBackend lays a D = 32 matrix's
// tiles out in: position p of the scan holds collection row order[p]. It
// is a k-d partition whose leaves are the tiles: the row ids are split
// recursively on the dimension of highest variance, each cut at the
// multiple of tileRows nearest the median, so every leaf is
// exactly one tile and only the last tile can be partial. Rows that are
// close in every dimension then share a tile, and its bounding box stays
// tight whatever order the collection was stored in. The cuts depend on
// the row count alone, so the scan rebuilds the partition's tree from it
// (tileTree) and gives every node the box of its rows, which a search
// descends best-first. Split keys compare
// as cmp.Compare orders them and ties by row id, so NaN and ±Inf rows
// keep a total order and the result is the same at every GOMAXPROCS.
// Every split is stable, so the ids of a tile ascend and a tile reads the
// matrix in address order. Nil at other dimensionalities, which have no
// tiles.
func TileOrder(m *store.Matrix) []int32 {
	if m.Dim() != 32 {
		return nil
	}
	n := m.Len()
	ids := identityOrder(n)
	kdSplit(m.Slab(0, n), ids, kdBuf{keys: make([]uint64, n), sel: make([]uint64, n), right: make([]int32, n)})
	return ids
}

// minShardRows is the fewest rows worth a goroutine of their own: the
// scan's build halves its work across two goroutines (inHalves) only from
// twice this many.
const minShardRows = 32768

// inHalves runs left and right, which must touch disjoint memory, on two
// goroutines when each of rows' halves is worth one (minShardRows), and
// one after the other otherwise.
func inHalves(rows int, left, right func()) {
	if rows < 2*minShardRows || runtime.GOMAXPROCS(0) == 1 {
		left()
		right()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		left()
	}()
	right()
	wg.Wait()
}

// identityOrder is the scan order of an unordered collection: position p
// holds row p.
func identityOrder(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// kdBuf is the scratch of one subtree, each slice as long as its ids:
// the split keys in id order, a copy the selection reorders, and the ids
// that go right of the cut.
type kdBuf struct {
	keys, sel []uint64
	right     []int32
}

// split returns the scratch of the subtrees either side of cut.
func (b kdBuf) split(cut int) (left, right kdBuf) {
	return kdBuf{b.keys[:cut], b.sel[:cut], b.right[:cut]}, kdBuf{b.keys[cut:], b.sel[cut:], b.right[cut:]}
}

// kdSplit orders ids into tiles. The two subtrees are disjoint, so
// splitting them on two goroutines changes nothing but the wall time.
func kdSplit(slab []float64, ids []int32, buf kdBuf) {
	if len(ids) <= tileRows {
		return
	}
	cut := kdCut(slab, ids, buf)
	left, right := buf.split(cut)
	inHalves(len(ids), func() { kdSplit(slab, ids[:cut], left) }, func() { kdSplit(slab, ids[cut:], right) })
}

// kdCut splits ascending ids, more than one tile of them, at the multiple
// of tileRows nearest their median in the dimension of highest
// variance, and returns the cut: afterwards ids[:cut] are the rows that
// come first in that dimension (ties by id), and both sides still ascend.
func kdCut(slab []float64, ids []int32, buf kdBuf) int {
	n := len(ids)
	d := spreadDim(slab, ids)
	keys := buf.keys[:n]
	for i, id := range ids {
		keys[i] = orderBits(slab[int(id)*32+d])
	}
	cut := kdCutRows(n)
	// The last row left of the cut has key t: the rows with a smaller key
	// go left, and of the rows at t the ones with the lowest ids.
	t := nthKey(append(buf.sel[:0], keys...), cut-1)
	ties := cut
	for _, k := range keys {
		if k < t {
			ties--
		}
	}
	l, right := 0, buf.right[:0]
	for i, id := range ids {
		if k := keys[i]; k < t || k == t && ties > 0 {
			if k == t {
				ties--
			}
			ids[l] = id
			l++
		} else {
			right = append(right, id)
		}
	}
	copy(ids[l:], right)
	return cut
}

// kdCutRows returns where kdCut splits n rows, more than one tile of
// them: the multiple of tileRows nearest n/2, leaving a tile either side.
// It depends on n alone, so the partition's shape is fixed by the row
// count (tileTree).
func kdCutRows(n int) int {
	tiles := (n + tileRows - 1) / tileRows
	return min(max((n/2+tileRows/2)/tileRows, 1), tiles-1) * tileRows
}

// tileTree returns the children of the internal nodes of TileOrder's
// partition of n > 0 rows, in the node numbering of Scan.boxes: tile t
// is node t, and the internal nodes follow in post order, so internal
// node tiles+i has children kids[2i] and kids[2i+1] and the root is node
// 2·tiles−2.
func tileTree(n int) (kids []int32) {
	tiles := (n + tileRows - 1) / tileRows
	kids = make([]int32, 0, 2*(tiles-1))
	var node func(lo, n int) int32
	node = func(lo, n int) int32 {
		if n <= tileRows {
			return int32(lo / tileRows)
		}
		cut := kdCutRows(n)
		l, r := node(lo, cut), node(lo+cut, n-cut)
		kids = append(kids, l, r)
		return int32(tiles + len(kids)/2 - 1)
	}
	node(0, n)
	return kids
}

// orderBits maps x to a uint64 whose unsigned order is cmp.Compare's on
// float64: every NaN first and equal, then −Inf up to +Inf, with −0 equal
// to +0.
func orderBits(x float64) uint64 {
	switch {
	case x != x:
		return 0
	case x == 0:
		return 1 << 63
	}
	b := math.Float64bits(x)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// spreadDim returns the dimension of highest variance over a strided
// sample of at most 256 of ids' rows. A NaN variance (a NaN or ±Inf in
// the sample) never wins; the first of equal variances does.
func spreadDim(slab []float64, ids []int32) int {
	stride := (len(ids) + 255) / 256
	var sum, sq [32]float64
	var m float64
	for i := 0; i < len(ids); i += stride {
		r := int(ids[i]) * 32
		row := (*[32]float64)(slab[r : r+32])
		for j, x := range row {
			sum[j] += x
			sq[j] += x * x
		}
		m++
	}
	best, most := 0, -1.0
	for j := range sum {
		if v := sq[j] - sum[j]*sum[j]/m; v > most {
			best, most = j, v
		}
	}
	return best
}

// nthKey returns the m-th smallest of ks, counting from 0, reordering ks:
// quickselect on a median-of-three pivot with Hoare's partition, which
// splits runs of equal keys evenly, and a sort of the remaining range
// past 2·log₂ n rounds.
func nthKey(ks []uint64, m int) uint64 {
	lo, hi := 0, len(ks)-1
	for rounds := 2 * bits.Len(uint(len(ks))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(ks[lo : hi+1])
			break
		}
		a, b, c := ks[lo], ks[lo+(hi-lo)/2], ks[hi]
		p := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for ks[i] < p {
				i++
			}
			for ks[j] > p {
				j--
			}
			if i <= j {
				ks[i], ks[j] = ks[j], ks[i]
				i++
				j--
			}
		}
		// Now ks[lo:j+1] ≤ p ≤ ks[i:hi+1], and everything between is p.
		switch {
		case m <= j:
			hi = j
		case m >= i:
			lo = i
		default:
			return p
		}
	}
	return ks[m]
}
