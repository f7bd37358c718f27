// Squared-space distance kernels: the hot inner loops of the retrieval
// core. For metrics of the form d(a,b) = √Σᵢ termᵢ (Euclidean, weighted
// Euclidean) a scan can compare candidates by their squared distance —
// monotone in the true distance — and take one square root per *reported
// result* instead of one per database vector, early-abandoning a
// candidate as soon as its partial sum exceeds the caller's pruning
// bound. The arithmetic lives in vec (SqDist / SqDistW and their Abandon
// variants), which is also what the naive Metric.Distance implementations
// call, so surviving sums are bitwise identical across all paths — the
// parity property tests in package knn rely on this.
package distance

import (
	"math"

	"repro/internal/vec"
)

// Kernel is a specialized squared-distance routine for one metric,
// obtained through KernelFor.
type Kernel struct {
	// w holds per-dimension weights, or nil for the unweighted Euclidean
	// kernel.
	w []float64
}

// KernelFor returns the squared-space kernel for m, or ok=false when m is
// not a kernel-accelerable metric. Euclidean and WeightedEuclidean (the
// two metric classes the paper's feedback loop re-parameterizes) are
// supported.
func KernelFor(m Metric) (Kernel, bool) {
	switch t := m.(type) {
	case Euclidean:
		return Kernel{}, true
	case *WeightedEuclidean:
		return Kernel{w: t.w}, true
	}
	return Kernel{}, false
}

// Weights returns the kernel's per-dimension weights (read-only), or nil
// for the unweighted Euclidean kernel. Exposing the slice lets scan loops
// dispatch to the right vec primitive once per shard instead of once per
// candidate.
func (k Kernel) Weights() []float64 { return k.w }

// Distance returns the true metric distance — √Squared — for callers that
// need one-off true-space values (e.g. index node pivots).
func (k Kernel) Distance(q, row []float64) float64 {
	return math.Sqrt(k.Squared(q, row))
}

// Squared returns the full squared distance between q and row.
func (k Kernel) Squared(q, row []float64) float64 {
	if k.w == nil {
		return vec.SqDist(q, row)
	}
	return vec.SqDistW(q, row, k.w)
}

// SquaredAbandon accumulates the squared distance between q and row,
// giving up once the partial sum exceeds bound2 (a squared-space pruning
// radius). When abandoned is false, sum is the complete squared distance.
func (k Kernel) SquaredAbandon(q, row []float64, bound2 float64) (sum float64, abandoned bool) {
	if k.w == nil {
		return vec.SqDistAbandon(q, row, bound2)
	}
	return vec.SqDistWAbandon(q, row, k.w, bound2)
}
