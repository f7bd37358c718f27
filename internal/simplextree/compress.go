package simplextree

import (
	"fmt"

	"repro/internal/haar"
)

// CompressValues applies the storage/accuracy trade-off of §3.1 to the
// stored OQP vectors: each distinct vertex value is passed through the
// Haar transform, detail coefficients below eps are dropped, and the
// vector is reconstructed in place. Predictions afterwards interpolate the
// smoothed values; in the orthonormal Haar basis the per-vertex L2 error
// is bounded by eps·√N' (N' the padded vector length).
//
// It returns the total number of coefficients dropped across all vertices
// — the storage a coefficient-level persistence format would save. The
// in-memory tree keeps dense vectors; the measure (and the persisted
// sparse form in package haar) is what the trade-off buys.
func (t *Tree) CompressValues(eps float64) (dropped int, err error) {
	if eps < 0 {
		return 0, fmt.Errorf("simplextree: negative compression threshold %v", eps)
	}
	if eps == 0 {
		return 0, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for id := range int32(len(t.stamps)) {
		v := t.value(id)
		sparse, err := haar.Compress(v, eps)
		if err != nil {
			return 0, err
		}
		dropped += haar.NextPowerOfTwo(len(v)) - sparse.StorageSize()
		back, err := sparse.Decompress()
		if err != nil {
			return 0, err
		}
		copy(v, back)
	}
	return dropped, nil
}
