// Package store provides the contiguous feature storage backing the
// retrieval core. A Matrix keeps every feature vector of a collection
// in one row-major []float64, so sequential scans walk memory linearly
// (one cache-friendly stream instead of a pointer chase through per-row
// allocations) and distance kernels can slice rows without bounds churn.
//
// DESIGN.md ("Feature matrix") describes the two places the rows can
// live and how the retrieval layers (knn, engine, dataset) share one
// Matrix without copying.
package store

import (
	"errors"
	"fmt"
	"math"
)

// ErrOutOfRange is wrapped by all bounds failures of RowChecked, so a
// bad index arriving over the serving path surfaces as a classifiable
// client error instead of a slice-bounds panic inside an HTTP handler.
var ErrOutOfRange = errors.New("store: index out of range")

// ErrCorrupt is wrapped by all errors caused by malformed FBMX input, so
// callers (and the fuzzers) can classify parser failures with errors.Is.
var ErrCorrupt = errors.New("store: corrupt file")

// Matrix is an n×dim row-major matrix of float64 features. Its rows
// live either in the heap (NewMatrix, FromRows, DecodeFBMX) or, for a
// collection OpenFBMX opened on a platform with a little-endian mmap, in
// a read-only mapping of the FBMX file: opening then costs no heap
// proportional to the collection, the OS pages rows in on first touch
// and evicts them under memory pressure, and several processes serving
// one file share one physical copy. Only residency differs; every
// accessor behaves the same.
//
// Row and Slab return views that alias the matrix's storage. Callers
// must not append to them, and must not write through them once the
// matrix is shared: Matrix has no mutator, so a matrix that a scan or
// dataset holds is immutable and safe for concurrent readers (a write
// to a mapped row faults, the mapping being PROT_READ). Views of a
// mapped matrix die with Close — close after the last retrieval, never
// while a scan is in flight (cmd/fbserve closes only at shutdown, after
// the HTTP server has drained). Both panic on out-of-range arguments
// exactly like a slice expression; serving-path callers holding
// untrusted indices use RowChecked, which returns ErrOutOfRange instead.
type Matrix struct {
	data   []float64
	n, dim int
	mapped []byte // the file mapping data views; nil in the heap
}

// maxRows bounds the rows of a matrix NewMatrix allocates: the scan
// numbers rows with int32 (knn.TileOrder).
const maxRows = 1<<31 - 1

// maxElems bounds n·dim: make panics beyond an int's byte count, and on
// 64-bit platforms beyond 2⁴⁸ bytes, the most the Go runtime allocates.
const maxElems = min(math.MaxInt, 1<<48) / 8

// NewMatrix allocates a zeroed n×dim heap matrix, for a builder to fill
// through Row before sharing it. A shape with more than maxRows rows, or
// more than make can allocate, is an error, not a panic.
func NewMatrix(n, dim int) (*Matrix, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("store: invalid matrix shape %dx%d", n, dim)
	}
	if n > maxRows {
		return nil, fmt.Errorf("store: %d rows exceed the %d a scan can number", n, maxRows)
	}
	if dim > maxElems/n {
		return nil, fmt.Errorf("store: a %dx%d matrix exceeds the %d float64s make can allocate", n, dim, maxElems)
	}
	return &Matrix{data: make([]float64, n*dim), n: n, dim: dim}, nil
}

// FromRows copies the given rows into a fresh heap matrix. Every row
// must have the same length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("store: empty collection")
	}
	dim := len(rows[0])
	if dim == 0 {
		return nil, errors.New("store: zero-dimensional rows")
	}
	m := &Matrix{data: make([]float64, len(rows)*dim), n: len(rows), dim: dim}
	for i, r := range rows {
		if len(r) != dim {
			return nil, fmt.Errorf("store: row %d has dimension %d, want %d", i, len(r), dim)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Len returns the number of rows.
func (m *Matrix) Len() int { return m.n }

// Dim returns the row dimensionality.
func (m *Matrix) Dim() int { return m.dim }

// Row returns row i as a full-capacity-clipped view into the storage,
// so an accidental append cannot clobber the next row. It sits on the
// scan kernels' hot path, whose callers derive i from Len.
func (m *Matrix) Row(i int) []float64 {
	off := i * m.dim
	return m.data[off : off+m.dim : off+m.dim]
}

// RowChecked returns row i, validating bounds: an out-of-range index
// returns an error wrapping ErrOutOfRange.
func (m *Matrix) RowChecked(i int) ([]float64, error) {
	if i < 0 || i >= m.n {
		return nil, fmt.Errorf("%w: row %d of %d", ErrOutOfRange, i, m.n)
	}
	return m.Row(i), nil
}

// Slab returns the half-open row range [lo, hi) as one contiguous slice
// — the unit a scan walks.
func (m *Matrix) Slab(lo, hi int) []float64 {
	return m.data[lo*m.dim : hi*m.dim]
}

// Mapped reports whether the rows sit in a file mapping rather than the
// heap: true for an open matrix OpenFBMX mapped.
func (m *Matrix) Mapped() bool { return m.mapped != nil }

// Close releases a mapped matrix's mapping; views returned by Row and
// Slab must not be used afterwards. On a heap matrix it does nothing.
// Close is idempotent.
func (m *Matrix) Close() error {
	if m.mapped == nil {
		return nil
	}
	mapped := m.mapped
	m.data, m.mapped = nil, nil
	return munmap(mapped)
}
