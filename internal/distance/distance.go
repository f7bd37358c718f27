// Package distance implements the distance function of §2 of the paper
// that the reproduction runs: the weighted Euclidean distance of Eq. (1).
// The paper's default, the Euclidean distance, is its unit-weight case:
// each term (1·d)·d is d·d exactly, so unit weights give the Euclidean
// distance bit for bit.
//
// Retrieval takes any Metric; package knn runs its squared-space kernels
// for a *WeightedEuclidean and the generic per-row path for anything
// else.
package distance

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Metric measures dissimilarity between equal-length feature vectors.
// Implementations must be symmetric, non-negative, and zero on identical
// inputs; all the metrics in this package additionally satisfy the
// triangle inequality for valid parameters.
type Metric interface {
	// Distance returns d(a, b). It panics on dimension mismatch, matching
	// the package vec convention for programmer errors.
	Distance(a, b []float64) float64
	// Name identifies the metric for logging and experiment output.
	Name() string
}

// WeightedEuclidean is Eq. (1) of the paper:
//
//	d(p, q; W) = ( Σ_i w_i (p_i − q_i)² )^½
//
// with non-negative weights. It is the distance class used by the paper's
// experiments (P = D independent parameters once one weight is pinned).
type WeightedEuclidean struct {
	w []float64
}

// NewWeightedEuclidean validates the weights (finite, non-negative, at
// least one positive) and returns the metric. The weight slice is copied.
func NewWeightedEuclidean(w []float64) (*WeightedEuclidean, error) {
	if len(w) == 0 {
		return nil, errors.New("distance: weighted Euclidean needs at least one weight")
	}
	anyPositive := false
	for i, x := range w {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return nil, fmt.Errorf("distance: weight %d is invalid: %v", i, x)
		}
		if x > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		return nil, errors.New("distance: all weights are zero")
	}
	return &WeightedEuclidean{w: vec.Clone(w)}, nil
}

// Distance implements Metric. It is math.Sqrt(vec.SqDistW(a, b, w)), the
// same canonical accumulation the retrieval kernels use, so naive and
// kernelized paths agree bitwise: the scan kernels compare squared sums
// (monotone in the distance), abandon a row once its partial sum passes
// the k-th best, and take one square root per offered candidate.
func (m *WeightedEuclidean) Distance(a, b []float64) float64 {
	if len(a) != len(m.w) || len(b) != len(m.w) {
		panic(fmt.Sprintf("distance: dimension mismatch: %d, %d vs %d weights", len(a), len(b), len(m.w)))
	}
	return math.Sqrt(vec.SqDistW(a, b, m.w))
}

// Name implements Metric.
func (m *WeightedEuclidean) Name() string { return "weighted-euclidean" }

// Weights returns the per-dimension weights (read-only): what package
// knn's kernels scan with.
func (m *WeightedEuclidean) Weights() []float64 { return m.w }
