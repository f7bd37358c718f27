package simplextree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/vec"
)

// Census is a tree written as the sequence it grows from: its thresholds
// and counters, and every vertex in creation order, the D+1 corners of
// the standard simplex first. A split depends only on the points stored
// before it (§4.2), so re-inserting the vertices in this order rebuilds
// the same triangulation; package persist writes a census at the head of
// every log file.
type Census struct {
	Dim     int
	OQPDim  int
	Epsilon float64
	Tol     float64
	Points  int // stored-point counter (Stats().Points)
	// Clock is the logical time of the lifecycle plane: the number of
	// accepted inserts over the tree's whole history (it survives
	// compaction and replay); 0 for a tree that has accepted no insert.
	Clock uint64

	// The vertices, in the tree's own flat layout (see At): vertex i is
	// the point Coords[i·D:(i+1)·D] with the value Values[i·N:(i+1)·N],
	// and Stamps[i] is its last-reinforcement logical time (0 for a
	// vertex no insert has stamped: the domain corners of a fresh tree).
	Coords []float64
	Values []float64
	Stamps []uint64
}

// At returns vertex i's point, value and stamp; the slices are views
// into the census's arrays.
func (c *Census) At(i int) (point, value []float64, stamp uint64) {
	return c.Coords[i*c.Dim : (i+1)*c.Dim], c.Values[i*c.OQPDim : (i+1)*c.OQPDim], c.Stamps[i]
}

// Snapshot is a structural dump of a Simplex Tree: its census, plus every
// node referencing the census vertices by index. Two trees with equal
// snapshots have the same triangulation, values, stamps and counters;
// the tests use it as the oracle of exact recovery.
type Snapshot struct {
	Census
	Root *SnapshotNode
}

// SnapshotNode mirrors one tree node with vertex-table references.
type SnapshotNode struct {
	Verts    []int32 // D+1 vertex ids (Census.At)
	Split    int32   // index of the split vertex; -1 for leaves
	Mu       []float64
	Replaced []int32
	Children []*SnapshotNode
}

// Census captures the tree's vertices and counters (copies, so the result
// stays valid while the tree keeps changing).
func (t *Tree) Census() *Census {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.censusLocked()
}

func (t *Tree) censusLocked() *Census {
	c := &Census{
		Dim:     t.dim,
		OQPDim:  t.oqpDim,
		Epsilon: t.epsilon,
		Tol:     t.tol,
		Points:  t.numPoints,
		Clock:   t.clock,
		Coords:  slices.Clone(t.points),
		Values:  slices.Clone(t.values),
		Stamps:  make([]uint64, len(t.stamps)),
	}
	for i := range t.stamps {
		c.Stamps[i] = atomic.LoadUint64(&t.stamps[i])
	}
	return c
}

// Snapshot captures the tree's full structure.
func (t *Tree) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	// dump takes node n's vertex ids and derives each child's from them.
	var dump func(n int32, ids []int32) *SnapshotNode
	dump = func(n int32, ids []int32) *SnapshotNode {
		nd := t.nodes[n]
		sn := &SnapshotNode{Verts: ids, Split: -1}
		if nd.nchild > 0 {
			sn.Split = nd.split
			sn.Mu = vec.Clone(t.muOf(nd))
			for c := nd.child; c < nd.child+nd.nchild; c++ {
				h := t.nodes[c].replaced
				kid := append([]int32(nil), ids...)
				kid[h] = nd.split
				sn.Replaced = append(sn.Replaced, h)
				sn.Children = append(sn.Children, dump(c, kid))
			}
		}
		return sn
	}
	return &Snapshot{Census: *t.censusLocked(), Root: dump(0, t.rootIDs())}
}

// FromCensus rebuilds the tree a census describes: the D+1 corners,
// which must be the standard simplex's bit for bit, span the root, and
// every later vertex splits the leaf it falls in. Those splits skip the ε
// test and the quota — they are the tree's vertices, not feedback
// outcomes — so the triangulation comes back exactly. The rebuilt tree
// has no quota, aging horizon or observer; its owner applies them.
//
// The tree adopts the census's arrays as its vertex table, so the caller
// must not use c afterwards. The tree's arrays are sized once, for the
// census and for the journal inserts the caller replays next (a log's
// journal tail), so neither the rebuild nor that replay regrows them; a
// census whose arrays already have that room is not copied at all.
func FromCensus(c *Census, journal int) (*Tree, error) {
	if c == nil {
		return nil, errors.New("simplextree: nil census")
	}
	if c.Dim <= 0 || c.OQPDim <= 0 {
		return nil, fmt.Errorf("simplextree: invalid census dims D=%d N=%d", c.Dim, c.OQPDim)
	}
	if !(c.Epsilon >= 0) || math.IsInf(c.Epsilon, 1) || !(c.Tol > 0) || math.IsInf(c.Tol, 1) {
		return nil, fmt.Errorf("simplextree: invalid census thresholds ε=%v tol=%v", c.Epsilon, c.Tol)
	}
	if c.Points < 0 || journal < 0 {
		return nil, fmt.Errorf("simplextree: negative point count %d or journal %d", c.Points, journal)
	}
	nv, n := len(c.Stamps), c.Dim+1
	if nv < n {
		return nil, fmt.Errorf("simplextree: census holds %d vertices, fewer than the %d domain corners", nv, n)
	}
	if len(c.Coords) != nv*c.Dim || len(c.Values) != nv*c.OQPDim {
		return nil, fmt.Errorf("simplextree: census holds %d coordinates and %d values for %d vertices, want %d and %d", len(c.Coords), len(c.Values), nv, nv*c.Dim, nv*c.OQPDim)
	}
	if !vec.IsFinite(c.Coords) || !vec.IsFinite(c.Values) {
		return nil, errors.New("simplextree: census contains non-finite values")
	}
	domain := geom.StandardSimplex(c.Dim)
	for i := 0; i < n; i++ {
		p, _, _ := c.At(i)
		for k, x := range domain.Vertex(i) {
			if math.Float64bits(p[k]) != math.Float64bits(x) {
				return nil, fmt.Errorf("simplextree: census corner %d is %v, not the standard simplex's %v", i, p, domain.Vertex(i))
			}
		}
	}
	clock := c.Clock // it covers every stamp
	for _, s := range c.Stamps {
		clock = max(clock, s)
	}
	t := &Tree{
		dim:     c.Dim,
		oqpDim:  c.OQPDim,
		epsilon: c.Epsilon,
		tol:     c.Tol,
		clock:   clock,
		points:  c.Coords,
		values:  c.Values,
		stamps:  c.Stamps,
	}
	t.plant(nv + journal)
	sc := t.scratch.Get().(*scratch)
	defer t.scratch.Put(sc)
	// t is private to this call, so no lock is needed.
	for id := int32(n); id < int32(nv); id++ {
		q := t.point(id)
		leaf, lam, depth, err := t.lookup(q, sc)
		if err == nil {
			for _, l := range lam {
				if l >= 1-t.tol {
					err = errors.New("it coincides with an earlier vertex")
				}
			}
		}
		if err == nil {
			err = t.checkSplit(lam, q)
		}
		if err != nil {
			return nil, fmt.Errorf("simplextree: census vertex %d: %w", id, err)
		}
		t.splitLeaf(leaf, depth, lam, id)
	}
	t.numPoints = c.Points
	return t, nil
}
