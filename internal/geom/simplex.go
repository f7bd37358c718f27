// Package geom implements the simplex geometry underlying the Simplex Tree
// of FeedbackBypass (§4 of the paper): barycentric coordinates, the
// containment test on them, and the O(D) incremental barycentric descent
// that makes tree lookups cheap.
package geom

import (
	"errors"
	"fmt"

	"repro/internal/vec"
)

// DefaultTol is the geometric tolerance used for containment and
// degeneracy decisions when callers have no better choice. Query points in
// this reproduction are normalized histograms with components in [0,1], so
// an absolute tolerance near 1e-9 comfortably absorbs the rounding of the
// barycentric solves without ever misclassifying interior points.
const DefaultTol = 1e-9

// ErrDegenerate is returned when an operation meets a simplex with (near-)
// zero volume.
var ErrDegenerate = errors.New("geom: degenerate simplex")

// Simplex is a D-dimensional simplex described by its D+1 vertices, each a
// point in R^D. The vertex slices are owned by the simplex; callers must
// not mutate them after construction.
type Simplex struct {
	verts [][]float64
}

// NewSimplex builds a simplex from D+1 vertices of dimension D. The
// vertices are used directly (not copied).
func NewSimplex(vertices [][]float64) (*Simplex, error) {
	if len(vertices) == 0 {
		return nil, errors.New("geom: simplex needs at least one vertex")
	}
	d := len(vertices) - 1
	for i, v := range vertices {
		if len(v) != d {
			return nil, fmt.Errorf("geom: vertex %d has dimension %d, want %d (for %d vertices)", i, len(v), d, len(vertices))
		}
	}
	return &Simplex{verts: vertices}, nil
}

// StandardSimplex returns the standard simplex in R^d with vertices
// 0, e1, …, ed. When features are normalized histograms with the last bin
// dropped (§4.1 of the paper), this simplex IS the entire query domain.
func StandardSimplex(d int) *Simplex {
	verts := make([][]float64, d+1)
	verts[0] = make([]float64, d)
	for i := 1; i <= d; i++ {
		v := make([]float64, d)
		v[i-1] = 1
		verts[i] = v
	}
	return &Simplex{verts: verts}
}

// Dim returns the dimensionality D of the simplex.
func (s *Simplex) Dim() int { return len(s.verts) - 1 }

// Vertex returns the i-th vertex. The returned slice must not be mutated.
func (s *Simplex) Vertex(i int) []float64 { return s.verts[i] }

// Barycentric computes the barycentric coordinates λ of q with respect to
// the simplex: the unique vector with Σλ_i = 1 and Σλ_i·v_i = q. It solves
// a (D+1)×(D+1) linear system (O(D³)); the Simplex Tree descends with the
// O(D) ChildBarycentricInto update instead and calls this only on its
// fallback and reference paths.
func (s *Simplex) Barycentric(q []float64) ([]float64, error) {
	d := s.Dim()
	if len(q) != d {
		return nil, fmt.Errorf("geom: point has dimension %d, want %d", len(q), d)
	}
	n := d + 1
	a := vec.NewMatrix(n, n)
	b := make([]float64, n)
	// First row encodes Σλ_i = 1.
	for j := 0; j < n; j++ {
		a.Set(0, j, 1)
	}
	b[0] = 1
	// Remaining rows encode Σλ_j·v_j[i] = q[i].
	for i := 0; i < d; i++ {
		for j := 0; j < n; j++ {
			a.Set(i+1, j, s.verts[j][i])
		}
		b[i+1] = q[i]
	}
	lam, err := vec.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	return lam, nil
}

// AllNonNegative reports whether every coordinate is ≥ -tol.
func AllNonNegative(lam []float64, tol float64) bool {
	for _, l := range lam {
		if l < -tol {
			return false
		}
	}
	return true
}

// ChildBarycentricInto converts the barycentric coordinates lam of a point
// q with respect to a parent simplex into its coordinates with respect to
// child h of a split at a point with parent-coordinates mu. Vertex h of
// the child is the split point; all other vertices are shared with the
// parent. The update costs O(D):
//
//	ν_h = λ_h / μ_h        (weight on the split point)
//	ν_j = λ_j − ν_h·μ_j    (j ≠ h)
//
// It writes the child coordinates into nu, which must have length
// len(lam) and must not alias lam or mu. ok is false when the child is
// degenerate (μ_h ≤ tol) or the inputs are malformed, in which case nu is
// untouched.
//
// The product is rounded on its own (the float64 conversion forbids
// fusing it into an FMA), so a caller that computes one ν_j with the same
// expression gets the same bits on every architecture.
func ChildBarycentricInto(nu, lam, mu []float64, h int, tol float64) bool {
	if h < 0 || h >= len(mu) || len(lam) != len(mu) || len(nu) != len(lam) {
		return false
	}
	if mu[h] <= tol {
		return false
	}
	w := lam[h] / mu[h]
	for j := range lam {
		if j == h {
			nu[j] = w
		} else {
			nu[j] = lam[j] - float64(w*mu[j])
		}
	}
	return true
}
