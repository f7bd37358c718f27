// Package vec provides the dense vector and matrix algebra used throughout
// the FeedbackBypass reproduction: element-wise vector operations, LU
// decomposition with partial pivoting, linear solves and determinants.
//
// Everything operates on float64 slices so callers can share storage with
// feature vectors, barycentric coordinates and optimal-query-parameter
// (OQP) vectors without conversion.
package vec

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when two operands have incompatible
// lengths or shapes.
var ErrDimensionMismatch = errors.New("vec: dimension mismatch")

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("vec: singular matrix")

// Clone returns a fresh copy of v.
func Clone(v []float64) []float64 {
	if v == nil {
		return nil
	}
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Zeros returns a zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// Ones returns a vector of length n with every component set to 1.
func Ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// ScaleInPlace sets dst = s * dst and returns dst.
func ScaleInPlace(dst []float64, s float64) []float64 {
	for i := range dst {
		dst[i] *= s
	}
	return dst
}

// Axpy sets dst = dst + s*v and returns dst ("a x plus y").
func Axpy(dst []float64, s float64, v []float64) []float64 {
	mustSameLen(dst, v)
	for i := range dst {
		dst[i] += s * v[i]
	}
	return dst
}

// Equal reports whether a and b have the same length and identical
// components.
func Equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EqualTol reports whether a and b have the same length and agree
// component-wise within absolute tolerance tol.
func EqualTol(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

// IsFinite reports whether every component of v is finite (no NaN or Inf).
func IsFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func mustSameLen(a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dimension mismatch: %d vs %d", len(a), len(b)))
	}
}
