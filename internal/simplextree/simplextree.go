// Package simplextree implements the Simplex Tree of §4 — the wavelet-
// based data structure at the core of FeedbackBypass. It organizes the
// query domain as an incremental triangulation: every node is a simplex
// of D+1 vertices; inserting a query point splits its enclosing leaf into
// up to D+1 children around the point; every stored vertex carries its
// N-dimensional vector of optimal query parameters (OQPs). The domain is
// the paper's (§4.1): normalized histograms with the last bin dropped,
// the standard simplex spanned by 0, e₁ … e_D.
//
// Prediction evaluates the unbalanced Haar wavelet the triangulation
// defines: a linear interpolation of the vertex OQPs of the enclosing
// simplex at the query's barycentric coordinates, which is algebraically
// the determinant equation of §4.2 (tests verify the equivalence).
// Insertion is ε-thresholded: a point whose actual OQPs are already
// predicted within ε is not stored, so resource usage tracks the intrinsic
// complexity of the optimal query mapping, not the number of queries.
//
// # Concurrency model
//
// The tree is split into a read plane and a write plane. The read plane —
// Predict, PredictInto, PredictNaive, Stats, Census, Snapshot and
// the accessors — is pure: it runs under the shared read lock, never mutates
// the tree, and reports per-call traversal counts through PredictStats
// instead of storing them. Every prediction runs on its caller's
// goroutine, and any number of readers proceed in parallel. The write
// plane — Insert, InsertStamped, SetObserver — takes the exclusive
// lock. Lookups are allocation-free after warm-up: a point's
// coordinates in the root, the standard simplex, have a closed form
// (rootCoordsInto), and per-call buffers come from a scratch pool; see
// DESIGN.md ("Concurrent prediction plane").
//
// # Descent and storage
//
// A lookup costs O(D) per level: one ratio test over a node's children
// finds the child the point must lie in and rejects the others from one
// coordinate each, and only the survivors get the O(D) incremental child
// update (geom.ChildBarycentricInto). The choice is bitwise the one a full
// scan of the children makes (DESIGN.md, "Incremental barycentric
// descent"). The triangulation lives in two flat arrays — the nodes, with
// each split's children side by side, and the split coordinates — beside
// the vertex table, three flat arrays of points, values and stamps indexed
// by creation order. A split appends to them instead of allocating, and
// the tree holds no Go pointer per node or vertex for the garbage
// collector to scan. No node lists its vertices: a child keeps D of its
// parent's D+1 and takes the split point in the slot it replaced, so a
// lookup derives the leaf's vertex ids on the way down from the corners
// 0…D, one assignment per level.
package simplextree

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/vec"
)

// ErrOutOfDomain is returned for query points outside the root simplex.
// Every lookup failure caused by a point's position (outside the domain,
// or unresolvable numerical boundary) wraps it, so callers can classify
// with errors.Is.
var ErrOutOfDomain = errors.New("simplextree: query point outside the root simplex")

// ErrQuotaExceeded is wrapped by inserts that would grow the tree past
// its vertex quota (Options.MaxVertices). It is a resource-governance
// rejection, not a failure: the tree is unchanged, predictions keep
// working, and vertex-value updates (which store no new vertex) are still
// accepted.
var ErrQuotaExceeded = errors.New("simplextree: tree quota exceeded")

// boundarySlack widens the containment band used while descending:
// a child accepts a point when every barycentric coordinate is
// ≥ -boundarySlack·tol. Descent multiplies the rounding of the root
// coordinates by up to 1/μ_h per level (geom.ChildBarycentricInto), so
// coordinates of points genuinely on a facet drift below -tol after a
// few levels; the slack absorbs that drift. Both the incremental fast
// path and the re-solving fallback use this one constant so they accept
// the same points (the fallback used to be 10x looser than the fast
// path, which made the two paths disagree exactly on the boundary
// queries the fallback exists for).
const boundarySlack = 10

// node is one simplex of the triangulation. Nodes refer to their
// children and split point by index into the tree's flat arrays, so the
// node storage holds no Go pointer for the GC to scan. A node stores no
// vertex ids: the root's are the corners 0…D, and a child's are its
// parent's with slot replaced set to the parent's split.
type node struct {
	child    int32 // index in Tree.nodes of the first child; a split's children are contiguous
	nchild   int32 // number of children; 0 for a leaf
	split    int32 // vertex id of the split point (inner nodes); its coordinates are Tree.mus[(split−D−1)·(D+1):]
	replaced int32 // the parent's vertex slot this child's split point took (-1 at the root)
}

// Observer is the write-path hook: it is invoked, while the exclusive
// lock is held, for every insert the tree has decided to store — after
// the ε check and the structural validation, immediately before the tree
// mutates. Returning an error aborts the insert with the tree unchanged,
// which gives the hook write-ahead semantics (package persist journals
// accepted inserts to a WAL through it). stamp is the logical timestamp
// the stored vertex will carry, so a journaling observer persists
// exactly what replay must restore. The slices are the caller's;
// implementations must not retain them past the call.
type Observer func(q, value []float64, stamp uint64) error

// PredictStats reports per-call measurements of one lookup.
type PredictStats struct {
	// Traversed is the number of simplices visited — the "no. of
	// simplices traversed" series of Figure 16.
	Traversed int
}

// scratch holds the per-call buffers of one lookup, recycled through the
// tree's pool so warmed-up predictions allocate nothing.
type scratch struct {
	lam  []float64 // barycentric coordinates at the current node
	bufA []float64 // candidate/best child coordinates (descent juggles
	bufB []float64 // three equal-size buffers without copying)
	ids  []int32   // vertex ids of the current node, derived on the way down
	pred []float64 // an insert's ε-test prediction (length N)
}

// Tree is a Simplex Tree mapping points of the D-dimensional standard
// simplex to N-dimensional OQP vectors. It is safe for concurrent use:
// predictions run in parallel under a read lock, inserts serialize under
// the write lock (see the package comment).
type Tree struct {
	mu sync.RWMutex

	dim     int     // D
	oqpDim  int     // N
	epsilon float64 // insert threshold ε of §4.2
	tol     float64 // geometric tolerance

	// The triangulation in flat arrays: nodes[0] is the root simplex, and
	// mus holds each split's barycentric coordinates. The vertex table is
	// indexed by id in creation order, the D+1 domain corners first:
	// vertex id is the point points[id·D:(id+1)·D] with the value
	// values[id·N:(id+1)·N], last stored or reinforced at the logical
	// time stamps[id] (see Census.Clock). Stamps are read and written
	// through sync/atomic, because predictions touch them under the
	// shared read lock when aging is enabled; everything else mutates
	// under the exclusive lock. They are a plain []uint64, not
	// []atomic.Uint64, so that FromCensus can adopt a census's stamps
	// without a copy. A split appends one vertex and its D+1
	// coordinates in lockstep, so split vertex id D+1+k owns
	// mus[k·(D+1):(k+1)·(D+1)].
	nodes  []node
	mus    []float64
	points []float64
	values []float64
	stamps []uint64

	// Shape tallies, kept by splitLeaf so Stats visits no node:
	// numPoints counts stored (split or updated) query points, and the
	// rest describe the leaves, the root at depth 1.
	numPoints    int
	numLeaves    int
	sumLeafDepth int // Σ depth over the leaves
	maxDepth     int // depth of the deepest leaf

	// clock is the monotonic logical time of the lifecycle plane: it
	// advances on every accepted insert, and the accepting vertex is
	// stamped with the new value. Mutated only under the exclusive lock;
	// read under either lock mode (readers copy it into vertex stamps).
	clock uint64

	maxVerts int // vertex quota; 0 = unbounded

	// ageHorizon > 0 enables aging: predictions reinforce the enclosing
	// leaf's vertex stamps, and RebuildAged reclaims vertices whose stamp
	// trails the clock by more than the horizon. 0 disables aging — the
	// read path then never writes a stamp, keeping it bitwise identical
	// to the pre-lifecycle tree.
	ageHorizon uint64

	observer Observer

	scratch sync.Pool // *scratch
}

// Options configures a Tree.
type Options struct {
	// Epsilon is the insert threshold ε: a new point is stored only when
	// max_i |m_i(q) − v̂_i| > ε. Zero stores every point with a prediction
	// mismatch; larger values trade accuracy for storage (§4.2).
	Epsilon float64
	// MaxVertices bounds the number of distinct vertices the tree may
	// hold, counting the D+1 domain corners. Zero means unbounded. An
	// insert that would create a vertex past the bound is rejected with
	// ErrQuotaExceeded; vertex-value updates stay accepted. Every vertex
	// costs the same 8·(D+N) bytes of point and value, so the bound is a
	// byte bound too.
	MaxVertices int
	// AgeHorizon, when positive, enables OQP aging: vertices whose stamp
	// trails the logical clock by more than the horizon become
	// reclaimable by RebuildAged, and predictions reinforce the stamps of
	// the enclosing simplex's vertices. Zero disables aging entirely.
	AgeHorizon uint64
}

// New builds a Simplex Tree over the D-dimensional standard simplex.
// Every corner of the domain is seeded with defaultOQP, so an empty tree
// predicts exactly the default parameters everywhere (the paper's limit
// case in which nothing is ever stored).
func New(d int, defaultOQP []float64, opts Options) (*Tree, error) {
	if d <= 0 {
		return nil, fmt.Errorf("simplextree: invalid dimension D=%d", d)
	}
	if len(defaultOQP) == 0 {
		return nil, errors.New("simplextree: empty default OQP vector")
	}
	if opts.Epsilon < 0 {
		return nil, fmt.Errorf("simplextree: negative epsilon %v", opts.Epsilon)
	}
	if opts.MaxVertices < 0 {
		return nil, fmt.Errorf("simplextree: negative quota MaxVertices=%d", opts.MaxVertices)
	}
	t := &Tree{
		dim:        d,
		oqpDim:     len(defaultOQP),
		epsilon:    opts.Epsilon,
		tol:        geom.DefaultTol,
		maxVerts:   opts.MaxVertices,
		ageHorizon: opts.AgeHorizon,
	}
	t.plant(d + 1)
	domain := geom.StandardSimplex(d)
	for i := 0; i <= d; i++ {
		t.points = append(t.points, domain.Vertex(i)...)
		t.values = append(t.values, defaultOQP...)
		t.stamps = append(t.stamps, 0)
	}
	return t, nil
}

// plant makes the corners 0…D the root simplex, with array capacity for
// nverts vertices (each split adds one vertex and at most D+1 children),
// and makes the scratch pool. The vertex arrays keep what they hold: the
// corners, already in place or appended next, and any later vertices
// FromCensus splits in. Called by New, FromCensus and RebuildAged.
func (t *Tree) plant(nverts int) {
	n := t.dim + 1
	splits := max(nverts-n, 0)
	t.nodes = append(make([]node, 0, 1+splits*n), node{replaced: -1})
	t.mus = make([]float64, 0, splits*n)
	t.points = reserve(t.points, nverts*t.dim)
	t.values = reserve(t.values, nverts*t.oqpDim)
	t.stamps = reserve(t.stamps, nverts)
	t.numLeaves, t.sumLeafDepth, t.maxDepth = 1, 1, 1
	t.scratch.New = func() interface{} {
		return &scratch{
			lam:  make([]float64, n),
			bufA: make([]float64, n),
			bufB: make([]float64, n),
			ids:  make([]int32, n),
			pred: make([]float64, t.oqpDim),
		}
	}
}

// reserve returns s with capacity for n elements in all.
func reserve[E any](s []E, n int) []E { return slices.Grow(s, max(n-len(s), 0)) }

// rootIDs returns the root simplex's vertex ids: the corners 0…D.
func (t *Tree) rootIDs() []int32 {
	ids := make([]int32, t.dim+1)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// point returns vertex id's coordinates and value returns its OQP
// vector, both views into the vertex table.
func (t *Tree) point(id int32) []float64 {
	off := int(id) * t.dim
	return t.points[off : off+t.dim]
}

func (t *Tree) value(id int32) []float64 {
	off := int(id) * t.oqpDim
	return t.values[off : off+t.oqpDim]
}

// muOf returns inner node nd's split coordinates: the barycentric
// coordinates of its split point with respect to nd.
func (t *Tree) muOf(nd node) []float64 {
	d1 := int32(t.dim + 1)
	off := (nd.split - d1) * d1
	return t.mus[off : off+d1]
}

// Dim returns the query-domain dimensionality D.
func (t *Tree) Dim() int { return t.dim }

// OQPDim returns the stored vector dimensionality N.
func (t *Tree) OQPDim() int { return t.oqpDim }

// SetQuota installs (or clears, with zero) the vertex bound after
// construction. Recovery paths use it to apply the quota only once the
// persisted state is replayed: a tree already past a newly lowered bound
// keeps serving reads and rejects further growth, rather than failing to
// open.
func (t *Tree) SetQuota(maxVertices int) {
	t.mu.Lock()
	t.maxVerts = maxVertices
	t.mu.Unlock()
}

// Epsilon returns the insert threshold.
func (t *Tree) Epsilon() float64 { return t.epsilon }

// AgeHorizon returns the configured aging horizon (0 = aging disabled).
func (t *Tree) AgeHorizon() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ageHorizon
}

// SetAgeHorizon installs (or disables, with 0) the aging horizon after
// construction. Recovery paths use it the way they use SetQuota: a tree
// rebuilt from a census carries data (stamps, clock) but not policy,
// which the owning configuration re-applies once the tree is live.
func (t *Tree) SetAgeHorizon(horizon uint64) {
	t.mu.Lock()
	t.ageHorizon = horizon
	t.mu.Unlock()
}

// SetObserver installs the write-path hook invoked for every accepted
// insert (nil removes it). See Observer for the exact contract.
func (t *Tree) SetObserver(fn Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observer = fn
}

// lookup descends to the leaf containing q, maintaining barycentric
// coordinates incrementally in the scratch buffers. It returns the leaf,
// the coordinates of q with respect to it (aliasing one of the scratch
// buffers), and the number of simplices traversed; sc.ids then holds the
// leaf's vertex ids, in the order of the coordinates. The caller must
// hold the lock (either mode) and own sc.
func (t *Tree) lookup(q []float64, sc *scratch) (int32, []float64, int, error) {
	if err := t.checkQuery(q); err != nil {
		return 0, nil, 0, err
	}
	rootCoordsInto(sc.lam, q)
	if !geom.AllNonNegative(sc.lam, t.tol) {
		return 0, nil, 0, ErrOutOfDomain
	}
	n := int32(0)
	lam, ids := sc.lam, sc.ids
	for i := range ids {
		ids[i] = int32(i)
	}
	spareA, spareB := sc.bufA, sc.bufB
	traversed := 1
	for t.nodes[n].nchild > 0 {
		next, nextLam := t.descendOnce(n, lam, spareA, spareB)
		if next < 0 {
			// Numerically ambiguous boundary point: no child accepted it.
			// Resolve by a fresh solve against each child (robust path).
			next, nextLam = t.descendSolve(n, ids, q)
			if next < 0 {
				return 0, nil, traversed, fmt.Errorf("simplextree: no child contains point %v (numerical boundary): %w", q, ErrOutOfDomain)
			}
		}
		// Rotate buffers: nextLam took one of the spares (or is freshly
		// allocated by the fallback); the buffer holding the old lam is
		// free again. Slices are compared by backing array since all
		// buffers share one length.
		if &nextLam[0] == &spareA[0] {
			spareA = lam
		} else if &nextLam[0] == &spareB[0] {
			spareB = lam
		}
		ids[t.nodes[next].replaced] = t.nodes[n].split
		n, lam = next, nextLam
		traversed++
	}
	return n, lam, traversed, nil
}

// rootCoordsInto writes q's barycentric coordinates in the root simplex
// into lam (length D+1). The root is the standard simplex 0, e₁ … e_D, so
// they have a closed form: λᵢ = qᵢ for i ≥ 1, and
// λ₀ = ((1 − q₁) − q₂) − … − q_D. The bits are those of
// geom.Simplex.Barycentric, whose LU back substitution computes each λᵢ
// (i ≥ 1) as qᵢ − Σ_{j>i} 0·λⱼ: that turns a −0 into +0 once some later
// λⱼ has its sign bit set (−0 − (−0) = +0), and the closed form keeps
// that one rule (TestRootCoordsMatchBarycentric).
func rootCoordsInto(lam, q []float64) {
	signed := false // some λⱼ with j > i has its sign bit set
	for i := len(q); i >= 1; i-- {
		x := q[i-1]
		if x == 0 && signed {
			x = 0
		}
		signed = signed || math.Signbit(x)
		lam[i] = x
	}
	s := 1.0
	for _, x := range lam[1:] {
		s -= x
	}
	lam[0] = s
}

// checkQuery refuses a query point of the wrong dimension or with a
// non-finite coordinate. NaN would pass every containment test (its
// comparisons are false) and come back as a NaN prediction, or as an
// insert "absorbed" by ε; ±Inf lies outside every simplex.
func (t *Tree) checkQuery(q []float64) error {
	if len(q) != t.dim {
		return fmt.Errorf("simplextree: query has dimension %d, want %d", len(q), t.dim)
	}
	if !vec.IsFinite(q) {
		return fmt.Errorf("simplextree: query point has a non-finite coordinate: %w", ErrOutOfDomain)
	}
	return nil
}

// descendOnce picks the child of n containing the point with coordinates
// lam, writing candidate coordinates into the two spare buffers (no
// allocation); it returns -1 when no child accepts the point. Among
// children accepting the point (boundary points may be accepted by
// several), the one whose minimum coordinate is largest is chosen, which
// is stable under rounding.
//
// The point lies in the child whose slot h* minimizes λ_h/μ_h. In the
// child that replaced slot h ≠ h*, the coordinate at h* is
// λ_h* − w·μ_h* with w = λ_h/μ_h ≥ λ_h*/μ_h*, so it is negative unless
// the two ratios tie.
// Computing that one coordinate first, with ChildBarycentricInto's exact
// expression, rejects a child in O(1): if it is below the acceptance
// floor, so is the child's minimum. Only the survivors pay the O(D)
// update, and the choice and its coordinates are bitwise those of
// evaluating every child.
func (t *Tree) descendOnce(n int32, lam, spareA, spareB []float64) (int32, []float64) {
	nd := t.nodes[n]
	mu := t.muOf(nd)
	kids := t.nodes[nd.child : nd.child+nd.nchild]
	hs := kids[0].replaced
	ws := lam[hs] / mu[hs]
	for _, c := range kids[1:] {
		if w := lam[c.replaced] / mu[c.replaced]; w < ws {
			hs, ws = c.replaced, w
		}
	}
	floor := -boundarySlack * t.tol
	best := int32(-1)
	var bestLam []float64
	cand := spareA
	bestMin := math.Inf(-1)
	for i, c := range kids {
		if h := c.replaced; h != hs {
			w := lam[h] / mu[h]
			if lam[hs]-float64(w*mu[hs]) < floor {
				continue
			}
		}
		if !geom.ChildBarycentricInto(cand, lam, mu, int(c.replaced), t.tol) {
			continue
		}
		min := math.Inf(1)
		for _, x := range cand {
			if x < min {
				min = x
			}
		}
		if min >= floor && min > bestMin {
			best, bestLam, bestMin = nd.child+int32(i), cand, min
			if &cand[0] == &spareA[0] {
				cand = spareB
			} else {
				cand = spareA
			}
		}
	}
	return best, bestLam
}

// descendSolve is the slow fallback: solve the barycentric system directly
// for each child of n, whose vertex ids are ids. It allocates, but runs
// only for numerically ambiguous boundary points. It returns -1 when no
// child accepts q.
func (t *Tree) descendSolve(n int32, ids []int32, q []float64) (int32, []float64) {
	best := int32(-1)
	var bestLam []float64
	bestMin := math.Inf(-1)
	nd := t.nodes[n]
	kid := append([]int32(nil), ids...)
	for c := nd.child; c < nd.child+nd.nchild; c++ {
		h := t.nodes[c].replaced
		kid[h] = nd.split
		s, err := t.simplexOf(kid)
		kid[h] = ids[h]
		if err != nil {
			continue
		}
		nu, err := s.Barycentric(q)
		if err != nil {
			continue
		}
		min := math.Inf(1)
		for _, x := range nu {
			if x < min {
				min = x
			}
		}
		if min >= -boundarySlack*t.tol && min > bestMin {
			best, bestLam, bestMin = c, nu, min
		}
	}
	return best, bestLam
}

// simplexOf builds the simplex whose vertices are ids.
func (t *Tree) simplexOf(ids []int32) (*geom.Simplex, error) {
	pts := make([][]float64, len(ids))
	for i, id := range ids {
		pts[i] = t.point(id)
	}
	return geom.NewSimplex(pts)
}

// interpolateInto evaluates the piecewise-linear wavelet at barycentric
// coordinates lam over the simplex with vertex ids into dst:
// v̂ = Σ_j λ_j · Value(s_j).
func (t *Tree) interpolateInto(dst []float64, ids []int32, lam []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for j, id := range ids {
		vec.Axpy(dst, lam[j], t.value(id))
	}
}

// Predict returns the interpolated OQP vector for q — the Mopt method of
// Figure 5. An empty tree returns the default OQPs everywhere inside the
// domain. Predict is pure: it takes only the read lock, so any number of
// predictions run in parallel. The single allocation is the result
// vector; use PredictInto to avoid it.
func (t *Tree) Predict(q []float64) ([]float64, error) {
	out := make([]float64, t.oqpDim)
	if _, err := t.PredictInto(out, q); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictInto interpolates the OQP vector for q into dst (length N) and
// reports per-call traversal statistics. It is the allocation-free read
// path: after the scratch pool is warm, a call performs zero heap
// allocations (asserted by TestPredictIntoAllocationFree).
func (t *Tree) PredictInto(dst, q []float64) (PredictStats, error) {
	if len(dst) != t.oqpDim {
		return PredictStats{}, fmt.Errorf("simplextree: dst has dimension %d, want %d", len(dst), t.oqpDim)
	}
	sc := t.scratch.Get().(*scratch)
	t.mu.RLock()
	_, lam, traversed, err := t.lookup(q, sc)
	st := PredictStats{Traversed: traversed}
	if err == nil {
		t.interpolateInto(dst, sc.ids, lam)
		t.touchLeaf(sc.ids)
	}
	t.mu.RUnlock()
	t.scratch.Put(sc)
	return st, err
}

// touchLeaf reinforces the stamps of the served simplex's vertices (ids): a
// prediction read from them means they still describe live traffic, so
// aging must not reclaim them. Atomic stores keep this legal under the
// shared read lock (the clock is frozen while any reader holds it, so
// stamps only ever move forward). With aging disabled this is a no-op —
// the read path stays bitwise identical to the pre-lifecycle tree.
func (t *Tree) touchLeaf(ids []int32) {
	if t.ageHorizon == 0 {
		return
	}
	now := t.clock
	for _, id := range ids {
		atomic.StoreUint64(&t.stamps[id], now)
	}
}

// Insert stores the OQP vector observed for q — the Insert method of
// Figure 5. Following §4.2, the point is stored only when the prediction
// error max_i |value_i − v̂_i| exceeds ε; the return value reports whether
// the tree changed. A q coinciding with an already-stored vertex updates
// that vertex's value in place (the mapping changed for a re-seen query).
// Accepted inserts are announced to the observer before the tree mutates.
func (t *Tree) Insert(q, value []float64) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(q, value, t.clock+1)
}

// InsertStamped is Insert with an explicit logical timestamp: the
// accepted vertex is stamped with stamp and the tree clock advances to
// at least stamp. It is the replay path — re-applying a journaled
// (q, value, stamp) record restores exactly the vertex the original
// insert created, including its age. Replay is idempotent: a record
// whose effect is already present leaves the tree's structure unchanged
// (stamps may be refreshed, which replaying cannot make older).
func (t *Tree) InsertStamped(q, value []float64, stamp uint64) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(q, value, stamp)
}

// insertLocked implements Insert under the already-held exclusive lock.
// The observer is invoked only once the insert is certain to succeed and
// before any mutation, so a journaling observer achieves write-ahead
// semantics and an observer error leaves the tree unchanged. stamp is
// the logical time the accepted vertex will carry; accepted inserts
// advance the clock to at least stamp (ε-skips and no-ops do not).
func (t *Tree) insertLocked(q, value []float64, stamp uint64) (bool, error) {
	if len(value) != t.oqpDim {
		return false, fmt.Errorf("simplextree: OQP vector has dimension %d, want %d", len(value), t.oqpDim)
	}
	sc := t.scratch.Get().(*scratch)
	defer t.scratch.Put(sc)
	leaf, lam, depth, err := t.lookup(q, sc)
	if err != nil {
		return false, err
	}
	t.interpolateInto(sc.pred, sc.ids, lam)
	if maxAbsDiff(sc.pred, value) <= t.epsilon {
		return false, nil
	}
	// A point (numerically) equal to a vertex cannot split the simplex;
	// update the vertex value instead. Re-asserting the exact stored
	// value is a no-op (not observed, not counted): replay of a journal
	// record the census already covers lands here when ε = 0, where
	// interpolation rounding defeats the ε skip above, and must leave
	// the tree untouched for recovery to be idempotent.
	for j, l := range lam {
		if l >= 1-t.tol {
			id := sc.ids[j]
			if vec.Equal(t.value(id), value) {
				return false, nil
			}
			if err := t.notifyObserver(q, value, stamp); err != nil {
				return false, err
			}
			copy(t.value(id), value)
			t.stampVertex(id, stamp)
			t.numPoints++
			return true, nil
		}
	}
	// Quota gate: only the split path below creates a vertex, so it alone
	// is subject to the bound. The check precedes the observer (nothing
	// rejected here ever reaches a journal) and the rejection leaves the
	// tree untouched — reads keep serving the existing state.
	if nv := len(t.stamps); t.maxVerts > 0 && nv+1 > t.maxVerts {
		return false, fmt.Errorf("%w: %d vertices stored, limit %d", ErrQuotaExceeded, nv, t.maxVerts)
	}
	if err := t.splitLocked(leaf, depth, lam, q, value, stamp); err != nil {
		return false, err
	}
	return true, nil
}

// splitLocked stores q as a new vertex and splits leaf, at depth, around
// it (see splitLeaf); lam is q's barycentric coordinates in leaf. The
// observer hears of the split before the tree changes, and an observer
// error leaves the tree unchanged.
func (t *Tree) splitLocked(leaf int32, depth int, lam, q, value []float64, stamp uint64) error {
	if err := t.checkSplit(lam, q); err != nil {
		return err
	}
	if err := t.notifyObserver(q, value, stamp); err != nil {
		return err
	}
	id := int32(len(t.stamps))
	t.points = append(t.points, q...)
	t.values = append(t.values, value...)
	t.stamps = append(t.stamps, 0)
	t.stampVertex(id, stamp)
	t.splitLeaf(leaf, depth, lam, id)
	t.numPoints++
	return nil
}

// checkSplit refuses a split at coordinates lam (of point q) that would
// make fewer than two children: one child per coordinate above tol, since
// a coordinate at or below it puts the point on the facet opposite that
// vertex. Such a point is effectively a vertex; the callers' vertex
// check should have caught it, but this guards tolerance corner cases.
func (t *Tree) checkSplit(lam, q []float64) error {
	kids := 0
	for _, l := range lam {
		if l > t.tol {
			kids++
		}
	}
	if kids < 2 {
		return fmt.Errorf("simplextree: split of %v produced %d children", q, kids)
	}
	return nil
}

// splitLeaf makes vertex id, already in the vertex table, the split point
// of leaf, where its barycentric coordinates are lam. The children are
// appended to the node array side by side, child h taking the leaf's
// vertices with slot h replaced by the split point; lam is appended to
// mus (see Tree.mus). depth is the leaf's, as lookup counts it: the
// leaf tallies trade the leaf for its children one level down.
func (t *Tree) splitLeaf(leaf int32, depth int, lam []float64, id int32) {
	first := int32(len(t.nodes))
	for h, l := range lam {
		if l > t.tol {
			t.nodes = append(t.nodes, node{replaced: int32(h)})
		}
	}
	kids := int32(len(t.nodes)) - first
	t.nodes[leaf] = node{child: first, nchild: kids, split: id, replaced: t.nodes[leaf].replaced}
	// lam aliases a scratch buffer; mus keeps the split's copy.
	t.mus = append(t.mus, lam...)
	t.numLeaves += int(kids) - 1
	t.sumLeafDepth += int(kids)*(depth+1) - depth
	t.maxDepth = max(t.maxDepth, depth+1)
}

// stampVertex records an accepted insert's logical time on vertex id and
// advances the clock to cover it. Replaying an old record (stamp ≤
// clock) never rewinds the clock, and a vertex's stamp never moves
// backwards, so replaying a record twice stays idempotent.
func (t *Tree) stampVertex(id int32, stamp uint64) {
	if stamp > atomic.LoadUint64(&t.stamps[id]) {
		atomic.StoreUint64(&t.stamps[id], stamp)
	}
	if stamp > t.clock {
		t.clock = stamp
	}
}

func (t *Tree) notifyObserver(q, value []float64, stamp uint64) error {
	if t.observer == nil {
		return nil
	}
	if err := t.observer(q, value, stamp); err != nil {
		return fmt.Errorf("simplextree: insert observer: %w", err)
	}
	return nil
}

// Stats summarizes the tree shape.
type Stats struct {
	Dim              int     `json:"dim"`
	OQPDim           int     `json:"oqp_dim"`
	Points           int     `json:"points"` // stored query points
	Leaves           int     `json:"leaves"`
	Depth            int     `json:"depth"`
	Nodes            int     `json:"nodes"`
	AvgLeafDepth     float64 `json:"avg_leaf_depth"`
	DistinctVertices int     `json:"distinct_vertices"`
	// Bytes is the capacity of the tree's flat arrays (nodes, split
	// coordinates, vertex points, values and stamps): the heap they
	// hold, grown ahead of use.
	Bytes int `json:"bytes"`
}

// Stats reports the shape from the tallies splitLeaf keeps, in O(1):
// it visits no node.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{
		Dim:              t.dim,
		OQPDim:           t.oqpDim,
		Points:           t.numPoints,
		Leaves:           t.numLeaves,
		Depth:            t.maxDepth,
		Nodes:            len(t.nodes),
		AvgLeafDepth:     float64(t.sumLeafDepth) / float64(t.numLeaves),
		DistinctVertices: len(t.stamps),
		Bytes: cap(t.nodes)*int(unsafe.Sizeof(node{})) +
			8*(cap(t.mus)+cap(t.points)+cap(t.values)+cap(t.stamps)),
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// PredictNaive is the reference implementation of Predict that re-solves
// the full (D+1)×(D+1) barycentric system at every node instead of using
// the incremental O(D) update. It exists for the ablation benchmark and
// for cross-checking the fast path in tests. Like Predict it is pure and
// runs under the read lock.
func (t *Tree) PredictNaive(q []float64) ([]float64, error) {
	if err := t.checkQuery(q); err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := int32(0)
	ids := t.rootIDs()
	s, err := t.simplexOf(ids)
	if err != nil {
		return nil, err
	}
	lam, err := s.Barycentric(q)
	if err != nil {
		return nil, err
	}
	if !geom.AllNonNegative(lam, t.tol) {
		return nil, ErrOutOfDomain
	}
	for t.nodes[n].nchild > 0 {
		next, nextLam := t.descendSolve(n, ids, q)
		if next < 0 {
			return nil, fmt.Errorf("simplextree: no child contains point %v: %w", q, ErrOutOfDomain)
		}
		ids[t.nodes[next].replaced] = t.nodes[n].split
		n, lam = next, nextLam
	}
	out := make([]float64, t.oqpDim)
	t.interpolateInto(out, ids, lam)
	return out, nil
}
