package store

import (
	"fmt"
	"sync/atomic"
)

// MmapMatrix is a read-only, file-resident feature collection: the
// payload of an FBMX file viewed in place. On platforms with mmap
// support the float64 slab is the mapped file itself — opening a
// collection costs no heap proportional to its size, the OS pages rows
// in on first touch and evicts them under memory pressure, and several
// processes serving the same collection share one physical copy. On
// other platforms OpenMmap falls back to reading the file into the heap
// (mmap_portable.go), with identical semantics except residency.
//
// Lifetime rules: Row and Slab views alias the mapping and become
// invalid at Close — Close after the last retrieval, never while a scan
// is in flight (cmd/fbserve closes collections only at shutdown, after
// the HTTP server has drained). MmapMatrix is immutable and therefore
// trivially safe for concurrent readers.
type MmapMatrix struct {
	data   []float64
	n, dim int
	path   string
	// dataCRC is the header's payload checksum; Verify checks the live
	// mapping against it.
	dataCRC uint32
	labels  Labels
	mapped  []byte // the raw mapping; nil on the portable fallback
	closed  atomic.Bool
}

// Len returns the number of rows.
func (m *MmapMatrix) Len() int { return m.n }

// Dim returns the row dimensionality.
func (m *MmapMatrix) Dim() int { return m.dim }

// Labels returns the labels stored beside the rows; they outlive Close.
func (m *MmapMatrix) Labels() Labels { return m.labels }

// Row returns row i as a full-capacity-clipped view into the mapping.
// The view is read-only: the mapping is PROT_READ, so a write through it
// faults instead of corrupting the collection.
func (m *MmapMatrix) Row(i int) []float64 {
	off := i * m.dim
	return m.data[off : off+m.dim : off+m.dim]
}

// Slab returns the half-open row range [lo, hi) as one contiguous slice.
func (m *MmapMatrix) Slab(lo, hi int) []float64 {
	return m.data[lo*m.dim : hi*m.dim]
}

// Verify re-checks the payload checksum against the live mapping,
// touching every page. OpenMmap validates the header eagerly but defers
// the payload walk to keep cold opens O(1); long-lived servers call
// Verify once at startup, benchmarks measuring cold-page behaviour skip
// it.
func (m *MmapMatrix) Verify() error {
	if m.closed.Load() {
		return fmt.Errorf("store: Verify on closed mapping of %s", m.path)
	}
	return verifyFBMXPayload(floatsAsBytes(m.data), m.dataCRC)
}

// Close releases the mapping. Views returned by Row and Slab must not be
// used afterwards. Close is idempotent.
func (m *MmapMatrix) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.data = nil
	if m.mapped == nil {
		return nil
	}
	mapped := m.mapped
	m.mapped = nil
	return munmap(mapped)
}
