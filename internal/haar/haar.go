// Package haar implements the Haar wavelet machinery referenced by the
// paper (§4, [Kai94], [Swe96]): a lifting-scheme forward/inverse 1-D Haar
// transform, multi-level decomposition, and coefficient thresholding.
//
// Two roles in this reproduction:
//
//  1. The Simplex Tree's interpolation is an *unbalanced Haar wavelet* over
//     the triangulation; package simplextree realizes it as barycentric
//     interpolation. This package supplies the classical (balanced) Haar
//     transform used to reason about and test that construction.
//  2. The paper notes that "storage requirements can be easily traded-off
//     for the accuracy of the prediction"; Compress/Decompress implement
//     that knob for stored OQP vectors by thresholding small detail
//     coefficients.
package haar

import (
	"errors"
	"fmt"
	"math"
)

// ErrLength is returned when an input length is not a positive power of
// two, which the balanced transform requires.
var ErrLength = errors.New("haar: length must be a positive power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two ≥ n (n ≥ 1).
func NextPowerOfTwo(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Forward computes the full multi-level orthonormal Haar transform of xs,
// whose length must be a power of two. The result stores the overall
// average coefficient at index 0 followed by detail coefficients from the
// coarsest to the finest level. The input is not modified.
//
// The implementation uses the lifting scheme [Swe96]:
//
//	predict: d = odd − even
//	update:  s = even + d/2     (so s is the pairwise mean)
//
// followed by per-level orthonormal rescaling so that the transform
// preserves the Euclidean norm (Parseval).
func Forward(xs []float64) ([]float64, error) {
	n := len(xs)
	if !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("%w: got %d", ErrLength, n)
	}
	out := make([]float64, n)
	copy(out, xs)
	buf := make([]float64, n)
	for length := n; length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			even, odd := out[2*i], out[2*i+1]
			d := odd - even              // predict
			s := even + d/2              // update: pairwise mean
			buf[i] = s * math.Sqrt2      // orthonormal smooth coefficient
			buf[half+i] = d / math.Sqrt2 // orthonormal detail coefficient
		}
		copy(out[:length], buf[:length])
	}
	// Each level multiplies the smooth part by √2, so out[0] = √n·mean —
	// exactly the orthonormal Haar basis, making the transform an isometry
	// (Parseval; verified by TestForwardPreservesEnergy).
	return out, nil
}

// Inverse reconstructs the signal from coefficients produced by Forward.
// The input is not modified.
func Inverse(coeffs []float64) ([]float64, error) {
	n := len(coeffs)
	if !IsPowerOfTwo(n) {
		return nil, fmt.Errorf("%w: got %d", ErrLength, n)
	}
	out := make([]float64, n)
	copy(out, coeffs)
	buf := make([]float64, n)
	for length := 2; length <= n; length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			s := out[i] / math.Sqrt2
			d := out[half+i] * math.Sqrt2
			even := s - d/2
			odd := even + d
			buf[2*i] = even
			buf[2*i+1] = odd
		}
		copy(out[:length], buf[:length])
	}
	return out, nil
}

// Threshold zeroes every detail coefficient with absolute value below eps,
// returning the number of coefficients kept (including the average term,
// which is never dropped). The slice is modified in place. This is the
// storage/accuracy trade-off knob of §3.1.
func Threshold(coeffs []float64, eps float64) int {
	kept := 0
	for i, c := range coeffs {
		if i == 0 {
			kept++
			continue
		}
		if math.Abs(c) < eps {
			coeffs[i] = 0
		} else {
			kept++
		}
	}
	return kept
}

// Sparse is a compact representation of a thresholded coefficient vector:
// only nonzero coefficients are stored, with their positions.
type Sparse struct {
	N       int // original length (power of two ≥ the padded signal)
	Orig    int // length before padding
	Indices []int32
	Values  []float64
}

// Compress transforms xs (any positive length; zero-padded to a power of
// two), drops detail coefficients below eps, and returns the sparse
// representation. Decompress inverts it with reconstruction error bounded
// by eps per dropped coefficient (in the orthonormal basis, the L2 error
// equals the L2 norm of the dropped coefficients).
func Compress(xs []float64, eps float64) (*Sparse, error) {
	if len(xs) == 0 {
		return nil, errors.New("haar: cannot compress empty signal")
	}
	n := NextPowerOfTwo(len(xs))
	padded := make([]float64, n)
	copy(padded, xs)
	coeffs, err := Forward(padded)
	if err != nil {
		return nil, err
	}
	Threshold(coeffs, eps)
	s := &Sparse{N: n, Orig: len(xs)}
	for i, c := range coeffs {
		if c != 0 || i == 0 {
			s.Indices = append(s.Indices, int32(i))
			s.Values = append(s.Values, c)
		}
	}
	return s, nil
}

// Decompress reconstructs the (truncated) original signal.
func (s *Sparse) Decompress() ([]float64, error) {
	if s.N < s.Orig || !IsPowerOfTwo(s.N) {
		return nil, fmt.Errorf("haar: corrupt sparse header (N=%d, Orig=%d)", s.N, s.Orig)
	}
	coeffs := make([]float64, s.N)
	for i, idx := range s.Indices {
		if idx < 0 || int(idx) >= s.N {
			return nil, fmt.Errorf("haar: coefficient index %d out of range [0,%d)", idx, s.N)
		}
		coeffs[idx] = s.Values[i]
	}
	full, err := Inverse(coeffs)
	if err != nil {
		return nil, err
	}
	return full[:s.Orig], nil
}

// StorageSize returns the number of stored coefficients.
func (s *Sparse) StorageSize() int { return len(s.Values) }
