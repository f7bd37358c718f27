package simplextree

import (
	"errors"
	"fmt"

	"repro/internal/vec"
)

// Snapshot is a structural dump of a Simplex Tree suitable for
// serialization: vertices are deduplicated into a table and nodes
// reference them by index. Package persist encodes snapshots in a
// versioned binary format.
type Snapshot struct {
	Dim     int
	OQPDim  int
	Epsilon float64
	Tol     float64
	Points  int // stored-point counter (NumPoints)
	// Clock is the logical time of the lifecycle plane (see Tree.Clock);
	// 0 for a tree that has accepted no insert.
	Clock uint64

	Vertices []SnapshotVertex
	Root     *SnapshotNode
}

// SnapshotVertex is a vertex row of the snapshot table.
type SnapshotVertex struct {
	Point []float64
	Value []float64
	// Stamp is the vertex's last-reinforcement logical time (0 for a
	// vertex no insert has stamped: the domain corners of a fresh tree).
	Stamp uint64
}

// SnapshotNode mirrors one tree node with vertex-table references.
type SnapshotNode struct {
	Verts    []int32 // D+1 indices into Snapshot.Vertices
	Split    int32   // index of the split vertex; -1 for leaves
	Mu       []float64
	Replaced []int32
	Children []*SnapshotNode
}

// Snapshot captures the tree's full structure.
func (t *Tree) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &Snapshot{
		Dim:     t.dim,
		OQPDim:  t.oqpDim,
		Epsilon: t.epsilon,
		Tol:     t.tol,
		Points:  t.numPoints,
		Clock:   t.clock,
	}
	index := make(map[*Vertex]int32)
	var vertexID func(v *Vertex) int32
	vertexID = func(v *Vertex) int32 {
		if id, ok := index[v]; ok {
			return id
		}
		id := int32(len(s.Vertices))
		index[v] = id
		s.Vertices = append(s.Vertices, SnapshotVertex{
			Point: vec.Clone(v.Point),
			Value: vec.Clone(v.Value),
			Stamp: v.stamp.Load(),
		})
		return id
	}
	var dump func(n *node) *SnapshotNode
	dump = func(n *node) *SnapshotNode {
		sn := &SnapshotNode{Split: -1}
		for _, v := range n.verts {
			sn.Verts = append(sn.Verts, vertexID(v))
		}
		if !n.leaf() {
			sn.Split = vertexID(n.split)
			sn.Mu = vec.Clone(n.mu)
			for i, c := range n.children {
				sn.Replaced = append(sn.Replaced, int32(n.replaced[i]))
				sn.Children = append(sn.Children, dump(c))
			}
		}
		return sn
	}
	s.Root = dump(t.root)
	return s
}

// FromSnapshot reconstructs a tree, validating structural integrity: index
// bounds, dimension consistency, child/replaced parity, and that children
// reference their parent's vertices correctly.
func FromSnapshot(s *Snapshot) (*Tree, error) {
	if s == nil || s.Root == nil {
		return nil, errors.New("simplextree: nil snapshot")
	}
	if s.Dim <= 0 || s.OQPDim <= 0 {
		return nil, fmt.Errorf("simplextree: invalid snapshot dims D=%d N=%d", s.Dim, s.OQPDim)
	}
	if s.Epsilon < 0 || s.Tol <= 0 {
		return nil, fmt.Errorf("simplextree: invalid snapshot thresholds ε=%v tol=%v", s.Epsilon, s.Tol)
	}
	if s.Points < 0 {
		return nil, fmt.Errorf("simplextree: negative point count %d", s.Points)
	}
	verts := make([]*Vertex, len(s.Vertices))
	for i, sv := range s.Vertices {
		if len(sv.Point) != s.Dim {
			return nil, fmt.Errorf("simplextree: vertex %d point has dimension %d, want %d", i, len(sv.Point), s.Dim)
		}
		if len(sv.Value) != s.OQPDim {
			return nil, fmt.Errorf("simplextree: vertex %d value has dimension %d, want %d", i, len(sv.Value), s.OQPDim)
		}
		if !vec.IsFinite(sv.Point) || !vec.IsFinite(sv.Value) {
			return nil, fmt.Errorf("simplextree: vertex %d contains non-finite values", i)
		}
		v := &Vertex{Point: vec.Clone(sv.Point), Value: vec.Clone(sv.Value), id: int32(i)}
		v.stamp.Store(sv.Stamp)
		verts[i] = v
	}
	lookupVert := func(id int32) (*Vertex, error) {
		if id < 0 || int(id) >= len(verts) {
			return nil, fmt.Errorf("simplextree: vertex index %d out of range [0,%d)", id, len(verts))
		}
		return verts[id], nil
	}
	leaves := 0
	var build func(sn *SnapshotNode) (*node, error)
	build = func(sn *SnapshotNode) (*node, error) {
		if len(sn.Verts) != s.Dim+1 {
			return nil, fmt.Errorf("simplextree: node has %d vertices, want %d", len(sn.Verts), s.Dim+1)
		}
		n := &node{}
		for _, id := range sn.Verts {
			v, err := lookupVert(id)
			if err != nil {
				return nil, err
			}
			n.verts = append(n.verts, v)
		}
		if len(sn.Children) == 0 {
			if sn.Split != -1 || len(sn.Mu) != 0 || len(sn.Replaced) != 0 {
				return nil, errors.New("simplextree: leaf node carries split metadata")
			}
			leaves++
			return n, nil
		}
		if len(sn.Children) != len(sn.Replaced) {
			return nil, fmt.Errorf("simplextree: %d children but %d replaced entries", len(sn.Children), len(sn.Replaced))
		}
		if len(sn.Children) < 2 {
			return nil, fmt.Errorf("simplextree: inner node with %d children", len(sn.Children))
		}
		if len(sn.Mu) != s.Dim+1 {
			return nil, fmt.Errorf("simplextree: split coordinates have length %d, want %d", len(sn.Mu), s.Dim+1)
		}
		split, err := lookupVert(sn.Split)
		if err != nil {
			return nil, err
		}
		n.split = split
		n.mu = vec.Clone(sn.Mu)
		for i, sc := range sn.Children {
			h := int(sn.Replaced[i])
			if h < 0 || h > s.Dim {
				return nil, fmt.Errorf("simplextree: replaced index %d out of range", h)
			}
			child, err := build(sc)
			if err != nil {
				return nil, err
			}
			// Structural consistency: the child must equal the parent with
			// vertex h swapped for the split vertex.
			if child.verts[h] != split {
				return nil, fmt.Errorf("simplextree: child %d does not reference the split vertex at position %d", i, h)
			}
			for j := range child.verts {
				if j != h && child.verts[j] != n.verts[j] {
					return nil, fmt.Errorf("simplextree: child %d vertex %d does not match parent", i, j)
				}
			}
			n.children = append(n.children, child)
			n.replaced = append(n.replaced, h)
		}
		return n, nil
	}
	root, err := build(s.Root)
	if err != nil {
		return nil, err
	}
	clock := s.Clock
	for _, v := range verts {
		// A hand-assembled snapshot may carry a clock behind its stamps;
		// the clock must cover every stamp for aging arithmetic to stay
		// monotone.
		if st := v.stamp.Load(); st > clock {
			clock = st
		}
	}
	t := &Tree{
		dim:       s.Dim,
		oqpDim:    s.OQPDim,
		epsilon:   s.Epsilon,
		tol:       s.Tol,
		root:      root,
		numPoints: s.Points,
		numLeaves: leaves,
		numVerts:  int32(len(verts)),
		clock:     clock,
	}
	if err := t.initDerived(); err != nil {
		return nil, fmt.Errorf("simplextree: snapshot root simplex is degenerate: %w", err)
	}
	return t, nil
}
