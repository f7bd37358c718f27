package simplextree

import (
	"fmt"
	"sync/atomic"
)

// RebuildStats reports what one aged rebuild did.
type RebuildStats struct {
	// Before and After are the distinct vertex counts of the source tree
	// and the rebuilt tree.
	Before, After int
	// Reclaimed = Before − After: vertices dropped by the age cutoff plus
	// survivors absorbed by the ε threshold during re-insertion.
	Reclaimed int
}

// RebuildAged builds a fresh tree containing only the vertices still
// alive under the aging horizon: the domain corners always survive
// (carrying their current values and stamps — they define the root
// simplex), and every other vertex survives iff its stamp is within
// horizon logical ticks of the tree clock. Survivors are re-inserted in
// creation order with their stamps preserved, so the rebuilt tree's
// predictions over surviving regions match the source and its census
// round-trips carry the same ages. A survivor whose value the
// shrunken triangulation already predicts within ε is absorbed — extra
// reclamation the threshold earns back.
//
// horizon = 0 means no age cutoff (every vertex survives the cutoff;
// only ε absorption can shrink the tree). The source tree is not
// modified; the caller swaps the result in. The logical clock, the ε/tol
// thresholds, the quotas and the aging horizon all carry over.
func (t *Tree) RebuildAged(horizon uint64) (*Tree, RebuildStats, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()

	var cutoff uint64
	if horizon > 0 && t.clock > horizon {
		cutoff = t.clock - horizon
	}

	n := t.dim + 1
	nt := &Tree{
		dim:        t.dim,
		oqpDim:     t.oqpDim,
		epsilon:    t.epsilon,
		tol:        t.tol,
		clock:      t.clock,
		maxVerts:   t.maxVerts,
		ageHorizon: t.ageHorizon,
	}
	nt.plant(len(t.stamps))
	nt.points = append(nt.points, t.points[:n*t.dim]...)
	nt.values = append(nt.values, t.values[:n*t.oqpDim]...)
	for id := range n {
		nt.stamps = append(nt.stamps, atomic.LoadUint64(&t.stamps[id]))
	}

	// Re-insert survivors in creation order: the rebuilt triangulation is
	// then deterministic, and earlier vertices recreate the descent
	// structure later ones were inserted into.
	stats := RebuildStats{Before: len(t.stamps)}
	for id := int32(n); id < int32(len(t.stamps)); id++ {
		if stamp := atomic.LoadUint64(&t.stamps[id]); !(cutoff > 0 && stamp < cutoff) {
			// nt is private to this call — no lock needed for its
			// insertLocked (the receiver is unreachable by other
			// goroutines until the caller publishes it).
			if _, err := nt.insertLocked(t.point(id), t.value(id), stamp); err != nil {
				return nil, RebuildStats{}, fmt.Errorf("simplextree: rebuild re-insert: %w", err)
			}
		}
	}
	stats.After = len(nt.stamps)
	stats.Reclaimed = stats.Before - stats.After
	return nt, stats, nil
}
