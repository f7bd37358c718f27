// Package distance implements the distance functions of §2 of the paper
// that the reproduction runs: the Euclidean distance and the weighted
// Euclidean distance of Eq. (1).
//
// Every distance implements Metric; weighted variants additionally expose
// their parameter vector so the FeedbackBypass module can store and predict
// it as part of the optimal query parameters (OQPs).
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

// Euclidean is the unweighted L2 distance — the paper's default distance
// function.
type Euclidean struct{}

// Distance implements Metric.
func (Euclidean) Distance(a, b []float64) float64 { return vec.Dist(a, b) }

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

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
// kernelized paths agree bitwise.
func (m *WeightedEuclidean) Distance(a, b []float64) float64 {
	if len(a) != len(m.w) || len(b) != len(m.w) {
		panic(fmt.Sprintf("distance: dimension mismatch: %d, %d vs %d weights", len(a), len(b), len(m.w)))
	}
	return math.Sqrt(vec.SqDistW(a, b, m.w))
}

// Name implements Metric.
func (m *WeightedEuclidean) Name() string { return "weighted-euclidean" }

// Dim returns the dimensionality of the metric.
func (m *WeightedEuclidean) Dim() int { return len(m.w) }
