// Package distance implements the parameterized distance-function classes
// of §2 of the paper: Lp norms, the weighted Euclidean distance of Eq. (1),
// quadratic (Mahalanobis) distances, and the Rui–Huang hierarchical model
// that combines per-feature distances with feature-level weights.
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

// Parameterized is a Metric drawn from a parameterized class: its
// parameters are exactly what FeedbackBypass learns (the W of §3).
type Parameterized interface {
	Metric
	// Params returns the parameter vector W characterizing this instance.
	// The slice must be treated as read-only.
	Params() []float64
}

// Euclidean is the unweighted L2 distance — the paper's default distance
// function.
type Euclidean struct{}

// Distance implements Metric.
func (Euclidean) Distance(a, b []float64) float64 { return vec.Dist(a, b) }

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 distance.
type Manhattan struct{}

// Distance implements Metric.
func (Manhattan) Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ distance.
type Chebyshev struct{}

// Distance implements Metric.
func (Chebyshev) Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > s {
			s = d
		}
	}
	return s
}

// Name implements Metric.
func (Chebyshev) Name() string { return "chebyshev" }

// Lp is the Minkowski distance of order P ≥ 1.
type Lp struct{ P float64 }

// NewLp returns the Lp metric, rejecting orders below 1 (which violate the
// triangle inequality).
func NewLp(p float64) (Lp, error) {
	if p < 1 || math.IsNaN(p) || math.IsInf(p, 0) {
		return Lp{}, fmt.Errorf("distance: Lp order must be a finite value ≥ 1, got %v", p)
	}
	return Lp{P: p}, nil
}

// Distance implements Metric.
func (l Lp) Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("distance: dimension mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), l.P)
	}
	return math.Pow(s, 1/l.P)
}

// Name implements Metric.
func (l Lp) Name() string { return fmt.Sprintf("l%g", l.P) }

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

// UniformWeighted returns the weighted Euclidean metric with all weights 1
// over d dimensions — identical to Euclidean, but carrying parameters.
func UniformWeighted(d int) *WeightedEuclidean {
	return &WeightedEuclidean{w: vec.Ones(d)}
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

// Params implements Parameterized.
func (m *WeightedEuclidean) Params() []float64 { return m.w }

// Dim returns the dimensionality of the metric.
func (m *WeightedEuclidean) Dim() int { return len(m.w) }

// MinWeight returns the smallest weight; √MinWeight·L2(a,b) lower-bounds
// the weighted distance, which metric indexes built on plain L2 use to
// prune candidates for re-weighted queries.
func (m *WeightedEuclidean) MinWeight() float64 {
	min := math.Inf(1)
	for _, w := range m.w {
		if w < min {
			min = w
		}
	}
	return min
}

// MaxWeight returns the largest weight; √MaxWeight·L2(a,b) upper-bounds
// the weighted distance.
func (m *WeightedEuclidean) MaxWeight() float64 {
	max := math.Inf(-1)
	for _, w := range m.w {
		if w > max {
			max = w
		}
	}
	return max
}

// Quadratic is the generalized (Mahalanobis-style) quadratic distance of
// §2: d²(p, q; W) = (p−q)ᵀ W (p−q) with W symmetric positive semidefinite.
type Quadratic struct {
	w *vec.Matrix
}

// NewQuadratic validates that w is square and symmetric and returns the
// metric. Positive semidefiniteness is the caller's responsibility for
// performance reasons; Validate checks it explicitly.
func NewQuadratic(w *vec.Matrix) (*Quadratic, error) {
	if w.Rows != w.Cols {
		return nil, fmt.Errorf("distance: quadratic weight matrix must be square, got %dx%d", w.Rows, w.Cols)
	}
	for i := 0; i < w.Rows; i++ {
		for j := i + 1; j < w.Cols; j++ {
			if math.Abs(w.At(i, j)-w.At(j, i)) > 1e-9 {
				return nil, fmt.Errorf("distance: weight matrix asymmetric at (%d,%d)", i, j)
			}
		}
	}
	return &Quadratic{w: w.Clone()}, nil
}

// Validate confirms the weight matrix is positive semidefinite (within
// tol), so the quadratic form is a valid squared distance.
func (m *Quadratic) Validate(tol float64) error {
	e, err := vec.SymmetricEigen(m.w, 1e-9)
	if err != nil {
		return err
	}
	for _, v := range e.Values {
		if v < -tol {
			return fmt.Errorf("distance: weight matrix has negative eigenvalue %v", v)
		}
	}
	return nil
}

// Distance implements Metric.
func (m *Quadratic) Distance(a, b []float64) float64 {
	n := m.w.Rows
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("distance: dimension mismatch: %d, %d vs %dx%d matrix", len(a), len(b), n, n))
	}
	diff := vec.Sub(a, b)
	wd := m.w.MulVec(diff)
	d2 := vec.Dot(diff, wd)
	if d2 < 0 {
		// Guard tiny negative values from floating-point noise on PSD
		// matrices.
		d2 = 0
	}
	return math.Sqrt(d2)
}

// Name implements Metric.
func (m *Quadratic) Name() string { return "quadratic" }

// Params implements Parameterized: the row-major flattening of W.
func (m *Quadratic) Params() []float64 { return m.w.Data }

// Matrix returns the weight matrix (read-only).
func (m *Quadratic) Matrix() *vec.Matrix { return m.w }

// Hierarchical implements the Rui–Huang model [RH00] discussed in §2:
// objects are represented by F features (contiguous slices of the full
// vector); the distance is a weighted sum of per-feature distances,
//
//	d(p, q) = Σ_f u_f · d_f(p_f, q_f)
//
// where each d_f is itself a parameterized metric (typically weighted
// Euclidean) and u_f are non-negative feature weights.
type Hierarchical struct {
	bounds  []int // feature f spans [bounds[f], bounds[f+1])
	metrics []Parameterized
	u       []float64
}

// NewHierarchical builds the model from feature lengths, per-feature
// metrics, and feature weights. Each metric must accept vectors of its
// feature's length.
func NewHierarchical(featureLens []int, metrics []Parameterized, u []float64) (*Hierarchical, error) {
	if len(featureLens) == 0 {
		return nil, errors.New("distance: hierarchical model needs at least one feature")
	}
	if len(metrics) != len(featureLens) || len(u) != len(featureLens) {
		return nil, fmt.Errorf("distance: got %d features, %d metrics, %d weights", len(featureLens), len(metrics), len(u))
	}
	bounds := make([]int, len(featureLens)+1)
	for f, l := range featureLens {
		if l <= 0 {
			return nil, fmt.Errorf("distance: feature %d has non-positive length %d", f, l)
		}
		bounds[f+1] = bounds[f] + l
	}
	for f, w := range u {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("distance: feature weight %d is invalid: %v", f, w)
		}
	}
	return &Hierarchical{bounds: bounds, metrics: metrics, u: vec.Clone(u)}, nil
}

// Dim returns the total vector length the model expects.
func (m *Hierarchical) Dim() int { return m.bounds[len(m.bounds)-1] }

// Distance implements Metric.
func (m *Hierarchical) Distance(a, b []float64) float64 {
	if len(a) != m.Dim() || len(b) != m.Dim() {
		panic(fmt.Sprintf("distance: dimension mismatch: %d, %d vs %d", len(a), len(b), m.Dim()))
	}
	var s float64
	for f := range m.metrics {
		lo, hi := m.bounds[f], m.bounds[f+1]
		s += m.u[f] * m.metrics[f].Distance(a[lo:hi], b[lo:hi])
	}
	return s
}

// Name implements Metric.
func (m *Hierarchical) Name() string { return "hierarchical" }

// Params implements Parameterized: feature weights followed by each
// feature metric's parameters, concatenated.
func (m *Hierarchical) Params() []float64 {
	out := vec.Clone(m.u)
	for _, fm := range m.metrics {
		out = append(out, fm.Params()...)
	}
	return out
}

// FeatureWeights returns the feature-level weights (read-only).
func (m *Hierarchical) FeatureWeights() []float64 { return m.u }
