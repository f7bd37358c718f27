// Package ann is the approximate retrieval tier: an IVF (inverted-file)
// first stage in front of the exact scan. Build trains k-means coarse
// centroids over the collection (deterministic under a pinned seed),
// groups row ids into per-partition posting lists, and quantizes the
// features into partition-ordered float32 or int8 slabs. A query probes
// the nprobe closest partitions through the quantized slab — 2–8x less
// memory bandwidth than the float64 scan — collects a shortlist, and
// exact-reranks it with the same squared-space early-abandoning kernels
// the flat scan uses, so served distances are bitwise the ones the exact
// path would report. Correctness gates: recall@k against the flat scan
// at the default nprobe, and bit-for-bit reproduction of the exact
// top-k when nprobe = nlist (every partition probed ⇒ every row exact-
// reranked ⇒ identical result lists, because the retained set under the
// canonical (distance, index) order does not depend on visit order).
package ann

import (
	"fmt"
	"math"
	"time"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/vec"
)

// Quant selects the storage format of the probe slabs.
type Quant uint8

const (
	// QuantF32 stores rows as float32: half the bandwidth of the exact
	// scan, and probe sums are exactly the float64 sums of the rounded
	// values (widening is lossless).
	QuantF32 Quant = 0
	// QuantI8 stores rows as int8 with a per-dimension affine
	// (scale, offset) dequantization: an eighth of the bandwidth, at the
	// cost of coarser probe ranking (the exact rerank is unaffected).
	QuantI8 Quant = 1
)

func (q Quant) String() string {
	switch q {
	case QuantF32:
		return "f32"
	case QuantI8:
		return "i8"
	}
	return fmt.Sprintf("quant(%d)", uint8(q))
}

// ParseQuant parses the command-line names "f32" and "i8".
func ParseQuant(s string) (Quant, error) {
	switch s {
	case "f32":
		return QuantF32, nil
	case "i8":
		return QuantI8, nil
	}
	return 0, fmt.Errorf("ann: unknown quantization %q (want f32 or i8)", s)
}

const (
	// kmeansIters bounds Lloyd iterations; k-means on clustered data
	// stabilizes in a handful of rounds.
	kmeansIters = 10
	// trainRows caps the k-means sample: 32k rows keep training
	// O(seconds) at any collection size without hurting centroid quality
	// at the partition counts this tier uses.
	trainRows = 32768
	// rerankFactor sizes the exact-rerank shortlist at rerankFactor×k.
	rerankFactor = 4
)

// Options configures Build. The zero value of every field selects a
// documented default.
type Options struct {
	// NList is the number of coarse partitions; 0 picks 4√n clamped to
	// [1, n].
	NList int
	// NProbe is the default number of partitions probed per query; 0
	// picks max(1, NList/8). Values ≥ NList select the exact path.
	NProbe int
	// Quant selects the probe-slab storage format (QuantF32 default).
	Quant Quant
	// Seed pins k-means training; equal seeds yield bit-identical
	// indexes.
	Seed int64
}

// Index is an IVF index over a fixed collection. It implements
// knn.Searcher; metrics without a squared-space
// kernel fall back to the embedded exact scan. Search is safe for
// concurrent use; SetNProbe is not.
type Index struct {
	b     store.Backend
	exact *knn.Scan

	n, dim int
	nlist  int
	nprobe int
	quant  Quant
	seed   int64
	rerank int

	centroids []float64 // nlist × dim
	counts    []int32   // posting-list lengths, per partition
	starts    []int     // prefix sums of counts, len nlist+1
	ids       []int32   // row ids grouped by partition, ascending within each

	slab32        []float32 // QuantF32: n × dim, posting order
	slab8         []int8    // QuantI8: n × dim, posting order
	scale, offset []float64 // QuantI8 per-dimension dequantization

	close func() error // releases mmap backing, nil when heap-resident

	// Optional instruments (see Observe). All are nil-safe atomics, so
	// the search path stays lock-free; the rerank clock read is skipped
	// entirely while rerankH is nil.
	nprobeH *obsv.Histogram // probe counts per query
	shortH  *obsv.Histogram // shortlist sizes handed to the exact rerank
	rerankH *obsv.Histogram // exact-rerank latency
}

// Observe registers the index's search instruments in reg with the given
// labels: probe counts, shortlist sizes, and exact-rerank latency. Call
// before serving; not safe to call concurrently with searches. A nil
// registry leaves the index uninstrumented (no clock reads on search).
func (x *Index) Observe(reg *obsv.Registry, labels ...obsv.Label) {
	if reg == nil {
		return
	}
	x.nprobeH = reg.Histogram("fb_ann_nprobe", "Partitions probed per ANN query.", obsv.CountBounds(), labels...)
	x.shortH = reg.Histogram("fb_ann_shortlist_size", "Candidates handed to the exact rerank per ANN query.", obsv.CountBounds(), labels...)
	x.rerankH = reg.Histogram("fb_ann_rerank_seconds", "Exact-rerank latency per ANN query.", obsv.LatencyBounds(), labels...)
}

// Build trains an IVF index over the backend's rows.
func Build(b store.Backend, opts Options) (*Index, error) {
	if b == nil || b.Len() == 0 || b.Dim() <= 0 {
		return nil, fmt.Errorf("ann: cannot index an empty collection")
	}
	n, dim := b.Len(), b.Dim()
	if opts.NList == 0 {
		opts.NList = 4 * int(math.Sqrt(float64(n)))
	}
	if opts.NList < 1 {
		opts.NList = 1
	}
	if opts.NList > n {
		return nil, fmt.Errorf("ann: nlist %d exceeds collection size %d", opts.NList, n)
	}
	if opts.NProbe == 0 {
		opts.NProbe = max(1, opts.NList/8)
	}
	if opts.NProbe < 0 {
		return nil, fmt.Errorf("ann: nprobe must be positive, got %d", opts.NProbe)
	}
	if opts.Quant != QuantF32 && opts.Quant != QuantI8 {
		return nil, fmt.Errorf("ann: unknown quantization %d", opts.Quant)
	}

	rng := &splitmix64{s: uint64(opts.Seed)}
	sample := trainSample(n, trainRows, rng)
	centroids := trainKMeans(b, sample, opts.NList, kmeansIters, rng)

	x := &Index{
		n: n, dim: dim,
		nlist:  opts.NList,
		nprobe: opts.NProbe,
		quant:  opts.Quant,
		seed:   opts.Seed,
		rerank: rerankFactor,

		centroids: centroids,
		counts:    make([]int32, opts.NList),
	}
	// Assign every row to its nearest centroid and group ids by
	// partition; ascending iteration keeps ids ascending within each
	// posting list (part of the format contract).
	assign := make([]int32, n)
	for i := 0; i < n; i++ {
		c, _ := nearestCentroid(b.Row(i), centroids, dim)
		assign[i] = int32(c)
		x.counts[c]++
	}
	x.buildStarts()
	cursor := make([]int, opts.NList)
	copy(cursor, x.starts[:opts.NList])
	x.ids = make([]int32, n)
	for i := 0; i < n; i++ {
		c := assign[i]
		x.ids[cursor[c]] = int32(i)
		cursor[c]++
	}
	x.quantize(b)
	if err := x.Bind(b); err != nil {
		return nil, err
	}
	return x, nil
}

// buildStarts derives the posting-list prefix sums from counts.
func (x *Index) buildStarts() {
	x.starts = make([]int, x.nlist+1)
	for c, cnt := range x.counts {
		x.starts[c+1] = x.starts[c] + int(cnt)
	}
}

// quantize fills the probe slab in posting order.
func (x *Index) quantize(b store.Backend) {
	n, dim := x.n, x.dim
	switch x.quant {
	case QuantF32:
		x.slab32 = make([]float32, n*dim)
		for pos, id := range x.ids {
			row := b.Row(int(id))
			out := x.slab32[pos*dim : (pos+1)*dim]
			for j, v := range row {
				out[j] = float32(v)
			}
		}
	case QuantI8:
		lo := make([]float64, dim)
		hi := make([]float64, dim)
		for j := 0; j < dim; j++ {
			lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		}
		for i := 0; i < n; i++ {
			for j, v := range b.Row(i) {
				if v < lo[j] {
					lo[j] = v
				}
				if v > hi[j] {
					hi[j] = v
				}
			}
		}
		x.scale = make([]float64, dim)
		x.offset = make([]float64, dim)
		for j := 0; j < dim; j++ {
			span := hi[j] - lo[j]
			if span > 0 && !math.IsInf(span, 0) {
				x.scale[j] = span / 255
			}
			x.offset[j] = lo[j] + 128*x.scale[j]
		}
		x.slab8 = make([]int8, n*dim)
		for pos, id := range x.ids {
			row := b.Row(int(id))
			out := x.slab8[pos*dim : (pos+1)*dim]
			for j, v := range row {
				if x.scale[j] == 0 {
					out[j] = -128 // dequantizes to lo[j] exactly
					continue
				}
				code := math.Round((v-lo[j])/x.scale[j]) - 128
				if code < -128 {
					code = -128
				}
				if code > 127 {
					code = 127
				}
				out[j] = int8(code)
			}
		}
	}
}

// Bind attaches the index to its feature backend (used by OpenFBIX and
// DecodeFBIX, which carry no collection data of their own). The backend
// must have exactly the shape the index was built over.
func (x *Index) Bind(b store.Backend) error {
	if b == nil || b.Len() != x.n || b.Dim() != x.dim {
		got := "nil"
		if b != nil {
			got = fmt.Sprintf("%dx%d", b.Len(), b.Dim())
		}
		return fmt.Errorf("ann: index over a %dx%d collection cannot bind backend %s", x.n, x.dim, got)
	}
	exact, err := knn.NewScanBackend(b)
	if err != nil {
		return err
	}
	x.b, x.exact = b, exact
	return nil
}

// Close releases any mmap backing. The index must not be used after.
func (x *Index) Close() error {
	if x.close == nil {
		return nil
	}
	c := x.close
	x.close = nil
	return c()
}

// Len implements knn.Searcher.
func (x *Index) Len() int { return x.n }

// Dim returns the collection dimensionality.
func (x *Index) Dim() int { return x.dim }

// SetNProbe tunes the recall/latency trade-off (≥ nlist means every
// partition is probed, reproducing the exact scan bit for bit). Not safe
// to call concurrently with searches.
func (x *Index) SetNProbe(p int) error {
	if p < 1 {
		return fmt.Errorf("ann: nprobe must be positive, got %d", p)
	}
	x.nprobe = p
	return nil
}

// Describe names the retrieval tier for stats surfaces.
func (x *Index) Describe() string {
	return fmt.Sprintf("ivf(nlist=%d,nprobe=%d,quant=%s)", x.nlist, x.nprobe, x.quant)
}

// SlabBytes returns the probe-slab size in bytes — what a full-collection
// probe would stream, against 8×n×dim for the exact scan.
func (x *Index) SlabBytes() int64 {
	switch x.quant {
	case QuantI8:
		return int64(len(x.slab8))
	default:
		return 4 * int64(len(x.slab32))
	}
}

func (x *Index) check(q []float64, k int) error {
	if x.b == nil {
		return fmt.Errorf("ann: index is not bound to a collection")
	}
	if k <= 0 {
		return fmt.Errorf("ann: k must be positive, got %d", k)
	}
	if len(q) != x.dim {
		return fmt.Errorf("ann: query has dimension %d, want %d", len(q), x.dim)
	}
	return nil
}

// Search implements knn.Searcher: probe, shortlist, exact rerank.
// Metrics without a squared-space kernel are answered exactly by the
// embedded flat scan.
func (x *Index) Search(q []float64, k int, m distance.Metric) ([]knn.Result, error) {
	if err := x.check(q, k); err != nil {
		return nil, err
	}
	kern, ok := distance.KernelFor(m)
	if !ok {
		return x.exact.Search(q, k, m)
	}
	return x.searchKern(q, k, kern, x.nprobe), nil
}

func (x *Index) searchKern(q []float64, k int, kern distance.Kernel, nprobe int) []knn.Result {
	x.nprobeH.Observe(float64(nprobe))
	if nprobe >= x.nlist {
		return x.rerankRange(q, k, kern, 0, x.n)
	}
	probes := x.probeCentroids(q, kern, nprobe)
	short := x.shortlist(q, k, kern, probes)
	x.shortH.Observe(float64(len(short)))
	var t0 time.Time
	if x.rerankH != nil {
		// The wall clock never feeds a distance computation or result
		// ordering — it only times the rerank for the metrics plane.
		t0 = time.Now() //fbvet:ok observability: rerank latency histogram, no effect on kernel output
	}
	res := x.rerankShortlist(q, k, kern, short)
	if x.rerankH != nil {
		x.rerankH.ObserveSince(t0)
	}
	return res
}

// probeCentroids returns the nprobe partitions whose centroids are
// closest to q under the query metric, in ascending (squared distance,
// partition) order.
func (x *Index) probeCentroids(q []float64, kern distance.Kernel, nprobe int) []knn.Result {
	t := knn.NewTopK(nprobe)
	bound := math.Inf(1)
	for c := 0; c < x.nlist; c++ {
		s, abandoned := kern.SquaredAbandon(q, x.centroids[c*x.dim:(c+1)*x.dim], bound)
		if abandoned {
			continue
		}
		t.Offer(c, s)
		if b, ok := t.Bound(); ok {
			bound = b
		}
	}
	return t.Results()
}

// shortlist scans the probed partitions' quantized slab and keeps the
// rerankFactor×k best candidates by approximate squared distance. The
// result order — ascending (approximate distance, row id) — is
// deterministic and independent of the kernel dispatch tier (a full sum
// and a surviving abandoning sum are bitwise identical, and an abandoned
// candidate can never belong to the shortlist).
func (x *Index) shortlist(q []float64, k int, kern distance.Kernel, probes []knn.Result) []knn.Result {
	t := knn.NewTopK(x.rerank * k)
	bound := math.Inf(1)
	w := kern.Weights()
	for _, p := range probes {
		lo, hi := x.starts[p.Index], x.starts[p.Index+1]
		switch x.quant {
		case QuantF32:
			for pos := lo; pos < hi; pos++ {
				row := x.slab32[pos*x.dim : (pos+1)*x.dim]
				var s float64
				if w == nil {
					s = vec.SqDist32(q, row)
				} else {
					s = vec.SqDist32W(q, row, w)
				}
				if s <= bound {
					t.Offer(int(x.ids[pos]), s)
					if b, ok := t.Bound(); ok {
						bound = b
					}
				}
			}
		case QuantI8:
			for pos := lo; pos < hi; pos++ {
				row := x.slab8[pos*x.dim : (pos+1)*x.dim]
				var s float64
				var abandoned bool
				if w == nil {
					s, abandoned = sqDistI8(q, row, x.scale, x.offset, bound)
				} else {
					s, abandoned = sqDistI8W(q, row, x.scale, x.offset, w, bound)
				}
				if abandoned {
					continue
				}
				t.Offer(int(x.ids[pos]), s)
				if b, ok := t.Bound(); ok {
					bound = b
				}
			}
		}
	}
	return t.Results()
}

// rerankShortlist computes exact squared distances for the shortlist
// with the canonical early-abandoning kernel and returns the final
// top-k. Visiting candidates in ascending approximate order tightens the
// abandon bound quickly.
func (x *Index) rerankShortlist(q []float64, k int, kern distance.Kernel, short []knn.Result) []knn.Result {
	t := knn.NewTopK(k)
	bound := math.Inf(1)
	for _, cand := range short {
		s, abandoned := kern.SquaredAbandon(q, x.b.Row(cand.Index), bound)
		if abandoned {
			continue
		}
		bound = t.OfferRoot(cand.Index, s)
	}
	return t.Results()
}

// rerankRange exact-reranks every row id in posting positions [lo, hi) —
// with (0, n) this is the nprobe ≥ nlist path: all rows, exact sums,
// canonical order, hence bit-for-bit the flat scan's answer (the
// retained top-k under the (distance, index) total order is independent
// of the permuted visit order, and every surviving sum is the identical
// IEEE value the flat kernels produce).
func (x *Index) rerankRange(q []float64, k int, kern distance.Kernel, lo, hi int) []knn.Result {
	t := knn.NewTopK(k)
	bound := math.Inf(1)
	for pos := lo; pos < hi; pos++ {
		id := int(x.ids[pos])
		s, abandoned := kern.SquaredAbandon(q, x.b.Row(id), bound)
		if abandoned {
			continue
		}
		bound = t.OfferRoot(id, s)
	}
	return t.Results()
}

// sqDistI8 accumulates the squared distance between q and an int8 row
// under the affine dequantization v = offset[j] + scale[j]·code, with
// the canonical 4-stripe order and early abandoning — the int8 twin of
// the float32 abandoning sum in internal/vec.
func sqDistI8(q []float64, codes []int8, scale, offset []float64, bound2 float64) (float64, bool) {
	n := len(q)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		qq := q[i : i+4 : i+4]
		cc := codes[i : i+4 : i+4]
		ss := scale[i : i+4 : i+4]
		oo := offset[i : i+4 : i+4]
		d0 := qq[0] - (oo[0] + ss[0]*float64(cc[0]))
		s0 += d0 * d0
		d1 := qq[1] - (oo[1] + ss[1]*float64(cc[1]))
		s1 += d1 * d1
		d2 := qq[2] - (oo[2] + ss[2]*float64(cc[2]))
		s2 += d2 * d2
		d3 := qq[3] - (oo[3] + ss[3]*float64(cc[3]))
		s3 += d3 * d3
		if (s0+s1)+(s2+s3) > bound2 {
			return (s0 + s1) + (s2 + s3), true
		}
	}
	var st float64
	for ; i < n; i++ {
		d := q[i] - (offset[i] + scale[i]*float64(codes[i]))
		st += d * d
	}
	s := (s0 + s1) + (s2 + s3) + st
	return s, s > bound2
}

// sqDistI8W is the weighted counterpart of sqDistI8.
func sqDistI8W(q []float64, codes []int8, scale, offset, w []float64, bound2 float64) (float64, bool) {
	n := len(q)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		qq := q[i : i+4 : i+4]
		cc := codes[i : i+4 : i+4]
		ss := scale[i : i+4 : i+4]
		oo := offset[i : i+4 : i+4]
		ww := w[i : i+4 : i+4]
		d0 := qq[0] - (oo[0] + ss[0]*float64(cc[0]))
		s0 += ww[0] * d0 * d0
		d1 := qq[1] - (oo[1] + ss[1]*float64(cc[1]))
		s1 += ww[1] * d1 * d1
		d2 := qq[2] - (oo[2] + ss[2]*float64(cc[2]))
		s2 += ww[2] * d2 * d2
		d3 := qq[3] - (oo[3] + ss[3]*float64(cc[3]))
		s3 += ww[3] * d3 * d3
		if (s0+s1)+(s2+s3) > bound2 {
			return (s0 + s1) + (s2 + s3), true
		}
	}
	var st float64
	for ; i < n; i++ {
		d := q[i] - (offset[i] + scale[i]*float64(codes[i]))
		st += w[i] * d * d
	}
	s := (s0 + s1) + (s2 + s3) + st
	return s, s > bound2
}
