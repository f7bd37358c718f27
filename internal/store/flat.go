// Package store provides the contiguous feature storage backing the
// retrieval core. A FlatMatrix keeps every feature vector of a collection
// in one row-major []float64, so sequential scans walk memory linearly
// (one cache-friendly stream instead of a pointer chase through per-row
// allocations) and distance kernels can slice rows without bounds churn.
//
// DESIGN.md ("Flat feature store") describes how the retrieval layers
// (knn, engine, dataset) share one FlatMatrix without copying.
package store

import (
	"errors"
	"fmt"
)

// FlatMatrix is an n×dim row-major matrix of float64 features.
type FlatMatrix struct {
	data []float64
	n    int
	dim  int
}

// NewFlatMatrix allocates a zeroed n×dim matrix.
func NewFlatMatrix(n, dim int) (*FlatMatrix, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("store: invalid matrix shape %dx%d", n, dim)
	}
	return &FlatMatrix{data: make([]float64, n*dim), n: n, dim: dim}, nil
}

// FromRows copies the given rows into a fresh contiguous matrix. Every row
// must have the same length.
func FromRows(rows [][]float64) (*FlatMatrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("store: empty collection")
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, errors.New("store: zero-dimensional rows")
	}
	m := &FlatMatrix{data: make([]float64, len(rows)*dim), n: len(rows), dim: dim}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("store: row %d has dimension %d, want %d", i, len(r), dim)
		}
		copy(m.data[i*dim:(i+1)*dim], r)
	}
	return m, nil
}

// Len returns the number of rows.
func (m *FlatMatrix) Len() int { return m.n }

// Dim returns the row dimensionality.
func (m *FlatMatrix) Dim() int { return m.dim }

// Row returns row i as a full-capacity-clipped view into the backing
// slice. The view aliases the matrix; callers must not append to it.
// Like a slice expression, Row panics on an out-of-range index — it sits
// on the scan kernels' hot path, whose callers derive i from Len.
// Serving-path code holding untrusted indices must use RowChecked, which
// returns ErrOutOfRange instead.
func (m *FlatMatrix) Row(i int) []float64 {
	off := i * m.dim
	return m.data[off : off+m.dim : off+m.dim]
}

// SetRow copies v into row i. Bounds and shape failures return errors
// wrapping ErrOutOfRange so a bad index arriving over a serving path is
// a classifiable client error, not a panic inside a handler.
func (m *FlatMatrix) SetRow(i int, v []float64) error {
	if i < 0 || i >= m.n {
		return fmt.Errorf("%w: row %d of %d", ErrOutOfRange, i, m.n)
	}
	if len(v) != m.dim {
		return fmt.Errorf("%w: row has dimension %d, want %d", ErrOutOfRange, len(v), m.dim)
	}
	copy(m.data[i*m.dim:(i+1)*m.dim], v)
	return nil
}

// Slab returns the half-open row range [lo, hi) as one contiguous slice —
// the unit a scan walks. Panics on out-of-range bounds like a slice
// expression.
func (m *FlatMatrix) Slab(lo, hi int) []float64 {
	return m.data[lo*m.dim : hi*m.dim]
}
