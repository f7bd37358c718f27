// Canonical squared-distance primitives. These are the one true
// implementation of Σ wᵢ(aᵢ−bᵢ)² in the codebase — the Euclidean Σ
// (aᵢ−bᵢ)² is its unit-weight case, since (1·d)·d is d·d exactly: the
// naive Metric.Distance implementation and the scan kernels route
// through them, so every layer produces bitwise-identical sums (the knn
// parity tests depend on this).
//
// The accumulation order is fixed: four independent accumulators striped
// over blocks of four elements (breaking the FP-add latency chain that
// serializes a single-accumulator loop), a sequential tail accumulator,
// and the final reduction ((s0+s1)+(s2+s3))+tail. The early-abandoning
// variants materialize the same reduction at block boundaries purely for
// the bound comparison — the accumulators themselves are untouched, so a
// surviving candidate's final sum is identical to the non-abandoning
// computation. Blocks are loaded through fixed-size subslices so the
// compiler drops per-element bounds checks.
package vec

import "math"

// SqDistW returns the weighted squared distance Σ wᵢ(aᵢ−bᵢ)²: the
// abandoning loop under an infinite bound, which never abandons.
func SqDistW(a, b, w []float64) float64 {
	mustSameLen(a, b)
	mustSameLen(a, w)
	s, _ := sqDistWAbandon(a, b, w, math.Inf(1))
	return s
}

// SqDistWAbandon accumulates SqDistW(a, b, w) but gives up once the
// partial sum exceeds bound2, returning the partial sum and
// abandoned=true. When abandoned is false the sum is complete and
// bitwise identical to SqDistW(a, b, w). The comparison is strict
// (> bound2): candidates landing exactly on the bound are fully
// evaluated, leaving ties to the caller's index-ordered tie-break.
func SqDistWAbandon(a, b, w []float64, bound2 float64) (sum float64, abandoned bool) {
	mustSameLen(a, b)
	mustSameLen(a, w)
	return sqDistWAbandon(a, b, w, bound2)
}

func sqDistWAbandon(a, b, w []float64, bound2 float64) (float64, bool) {
	n := len(a)
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		ww := w[i : i+4 : i+4]
		d0 := aa[0] - bb[0]
		s0 += ww[0] * d0 * d0
		d1 := aa[1] - bb[1]
		s1 += ww[1] * d1 * d1
		d2 := aa[2] - bb[2]
		s2 += ww[2] * d2 * d2
		d3 := aa[3] - bb[3]
		s3 += ww[3] * d3 * d3
		if (s0+s1)+(s2+s3) > bound2 {
			return (s0 + s1) + (s2 + s3), true
		}
	}
	var st float64
	for ; i < n; i++ {
		d := a[i] - b[i]
		st += w[i] * d * d
	}
	s := (s0 + s1) + (s2 + s3) + st
	return s, s > bound2
}
