package store

import (
	"errors"
	"fmt"
)

// Backend is what the retrieval core needs from a feature collection:
// shape, per-row views, and contiguous slab access for the tiled scan
// kernels. The in-heap FlatMatrix and the mmap-resident MmapMatrix both
// satisfy it; everything above this interface (knn, dataset, engine,
// service) is backend-agnostic, and the mmap parity suite pins the two
// implementations bitwise against each other.
//
// Row and Slab return views that alias the backend's storage — callers
// must not mutate or append to them, and for an MmapMatrix the views die
// with Close (see DESIGN.md, "Multi-backend store"). Both panic on
// out-of-range arguments exactly like a slice expression; serving-path
// callers that hold untrusted indices use the checked wrappers below,
// which return ErrOutOfRange instead.
type Backend interface {
	// Len returns the number of rows.
	Len() int
	// Dim returns the row dimensionality.
	Dim() int
	// Row returns row i as a full-capacity-clipped view.
	Row(i int) []float64
	// Slab returns the half-open row range [lo, hi) as one contiguous
	// slice — the unit a scan walks.
	Slab(lo, hi int) []float64
}

// ErrOutOfRange is wrapped by all bounds failures of the checked
// accessors, so a bad index arriving over the serving path surfaces as a
// classifiable client error instead of a slice-bounds panic inside an
// HTTP handler.
var ErrOutOfRange = errors.New("store: index out of range")

// ErrCorrupt is wrapped by all errors caused by malformed FBMX input, so
// callers (and the fuzzers) can classify parser failures with errors.Is.
var ErrCorrupt = errors.New("store: corrupt file")

// RowChecked returns row i of any backend, validating bounds: an
// out-of-range index returns an error wrapping ErrOutOfRange.
func RowChecked(b Backend, i int) ([]float64, error) {
	if i < 0 || i >= b.Len() {
		return nil, fmt.Errorf("%w: row %d of %d", ErrOutOfRange, i, b.Len())
	}
	return b.Row(i), nil
}
