package vec

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds the eigendecomposition of a symmetric matrix: A = V·diag(λ)·Vᵀ
// with eigenvalues sorted in descending order and eigenvectors stored as the
// columns of V.
type Eigen struct {
	Values  []float64
	Vectors *Matrix // column j is the eigenvector for Values[j]
}

// SymmetricEigen computes the eigendecomposition of the symmetric matrix a
// using the cyclic Jacobi rotation method. It is used by the Mahalanobis
// distance (to validate positive definiteness) and by the PCA
// dimensionality-reduction extension. The input must be symmetric within
// tolerance symTol; pass 0 for an exact symmetry requirement.
func SymmetricEigen(a *Matrix, symTol float64) (*Eigen, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: eigendecomposition requires a square matrix, got %dx%d", ErrDimensionMismatch, a.Rows, a.Cols)
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > symTol {
				return nil, fmt.Errorf("vec: matrix is not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}
	w := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-14 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				// Compute the Jacobi rotation that annihilates w[p][q].
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobi(w, v, p, q, c, s)
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool { return vals[idx[x]] > vals[idx[y]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for j, k := range idx {
		sortedVals[j] = vals[k]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, j, v.At(i, k))
		}
	}
	return &Eigen{Values: sortedVals, Vectors: sortedVecs}, nil
}

// applyJacobi applies a Jacobi rotation in the (p, q) plane with cosine c
// and sine s to the working matrix w (two-sided) and accumulates it into
// the eigenvector matrix v (one-sided).
func applyJacobi(w, v *Matrix, p, q int, c, s float64) {
	n := w.Rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}

func offDiagNorm(m *Matrix) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if i != j {
				s += m.At(i, j) * m.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

// PCA computes the principal components of the row-sample matrix x
// (rows are observations, columns are features). It returns the eigen
// decomposition of the sample covariance matrix and the column means.
// This implements the dimensionality-reduction hook the paper leaves as
// future work (§3).
func PCA(x *Matrix) (*Eigen, []float64, error) {
	if x.Rows < 2 {
		return nil, nil, fmt.Errorf("vec: PCA requires at least 2 samples, got %d", x.Rows)
	}
	n, d := x.Rows, x.Cols
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	cov := NewMatrix(d, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			da := row[a] - means[a]
			if da == 0 {
				continue
			}
			covRow := cov.Row(a)
			for b := 0; b < d; b++ {
				covRow[b] += da * (row[b] - means[b])
			}
		}
	}
	inv := 1 / float64(n-1)
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
	e, err := SymmetricEigen(cov, 1e-9)
	if err != nil {
		return nil, nil, err
	}
	return e, means, nil
}

// Project maps v onto the first k principal components of e, after
// subtracting means. The result has length k.
func (e *Eigen) Project(v, means []float64, k int) []float64 {
	if k > len(e.Values) {
		k = len(e.Values)
	}
	centered := Sub(v, means)
	out := make([]float64, k)
	for j := 0; j < k; j++ {
		var s float64
		for i := 0; i < e.Vectors.Rows; i++ {
			s += e.Vectors.At(i, j) * centered[i]
		}
		out[j] = s
	}
	return out
}
