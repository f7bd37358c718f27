package simplextree

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/vec"
)

// Census is a tree written as the sequence it grows from: its thresholds
// and counters, and every vertex in creation order, the D+1 domain
// corners first. A split depends only on the points stored before it
// (§4.2), so re-inserting the vertices in this order rebuilds the same
// triangulation; package persist writes a census at the head of every
// log file.
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

	Vertices []CensusVertex // creation order; index = vertex id
}

// CensusVertex is one vertex of a census.
type CensusVertex struct {
	Point []float64
	Value []float64
	// Stamp is the vertex's last-reinforcement logical time (0 for a
	// vertex no insert has stamped: the domain corners of a fresh tree).
	Stamp uint64
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
	Verts    []int32 // D+1 indices into Census.Vertices
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
		Dim:      t.dim,
		OQPDim:   t.oqpDim,
		Epsilon:  t.epsilon,
		Tol:      t.tol,
		Points:   t.numPoints,
		Clock:    t.clock,
		Vertices: make([]CensusVertex, len(t.verts)),
	}
	for i, v := range t.verts {
		c.Vertices[i] = CensusVertex{Point: vec.Clone(v.Point), Value: vec.Clone(v.Value), Stamp: v.stamp.Load()}
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

// FromCensus rebuilds the tree a census describes: the D+1 corners span
// the root simplex, and every later vertex splits the leaf it falls in.
// Those splits skip the ε test and the quota — they are the tree's
// vertices, not feedback outcomes — so the triangulation comes back
// exactly. The rebuilt tree has no quota, aging horizon or observer;
// its owner applies them. The tree's arrays are sized once, for the
// census and for the journal inserts the caller replays next (a log's
// journal tail), so neither the rebuild nor that replay regrows them.
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
	if len(c.Vertices) < c.Dim+1 {
		return nil, fmt.Errorf("simplextree: census holds %d vertices, fewer than the %d domain corners", len(c.Vertices), c.Dim+1)
	}
	for i, v := range c.Vertices {
		if len(v.Point) != c.Dim || len(v.Value) != c.OQPDim {
			return nil, fmt.Errorf("simplextree: census vertex %d has dimensions %d/%d, want %d/%d", i, len(v.Point), len(v.Value), c.Dim, c.OQPDim)
		}
		if !vec.IsFinite(v.Point) || !vec.IsFinite(v.Value) {
			return nil, fmt.Errorf("simplextree: census vertex %d contains non-finite values", i)
		}
	}
	corners := make([]*Vertex, c.Dim+1)
	clock := c.Clock
	for i, v := range c.Vertices[:c.Dim+1] {
		corners[i] = &Vertex{Point: vec.Clone(v.Point), Value: vec.Clone(v.Value)}
		corners[i].stamp.Store(v.Stamp)
		clock = max(clock, v.Stamp) // the clock covers every stamp; splits below advance it too
	}
	t := &Tree{
		dim:     c.Dim,
		oqpDim:  c.OQPDim,
		epsilon: c.Epsilon,
		tol:     c.Tol,
		clock:   clock,
	}
	if err := t.plant(corners, len(c.Vertices)+journal); err != nil {
		return nil, fmt.Errorf("simplextree: census corners are degenerate: %w", err)
	}
	sc := t.scratch.Get().(*scratch)
	defer t.scratch.Put(sc)
	for i := c.Dim + 1; i < len(c.Vertices); i++ {
		v := c.Vertices[i]
		leaf, lam, _, err := t.lookup(v.Point, sc)
		if err == nil {
			for _, l := range lam {
				if l >= 1-t.tol {
					err = errors.New("it coincides with an earlier vertex")
				}
			}
		}
		if err == nil {
			// t is private to this call, so no lock is needed.
			err = t.splitLocked(leaf, lam, v.Point, v.Value, v.Stamp)
		}
		if err != nil {
			return nil, fmt.Errorf("simplextree: census vertex %d: %w", i, err)
		}
	}
	t.numPoints = c.Points
	return t, nil
}
