// Package simplextree implements the Simplex Tree of §4 — the wavelet-
// based data structure at the core of FeedbackBypass. It organizes the
// query domain Q ⊆ R^D as an incremental triangulation: every node is a
// simplex of D+1 vertices; inserting a query point splits its enclosing
// leaf into up to D+1 children around the point; every stored vertex
// carries its N-dimensional vector of optimal query parameters (OQPs).
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
// Predict, PredictInto, PredictBatch, PredictNaive, Walk, Stats, Snapshot
// and the accessors — is pure: it runs under the shared read lock, never
// mutates the tree, and reports per-call traversal counts through
// PredictStats instead of storing them. Any number of readers proceed in
// parallel. The write plane — Insert, InsertBatch, SetObserver,
// CompressValues — takes the exclusive lock. Lookups are allocation-free
// after warm-up: the root barycentric system is LU-factorized once at
// construction (the root simplex never changes), descent uses the O(D)
// incremental child update (geom.ChildBarycentricInto), and per-call
// buffers come from a scratch pool; see DESIGN.md ("Concurrent prediction
// plane").
package simplextree

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/vec"
)

// ErrOutOfDomain is returned for query points outside the root simplex.
// Every lookup failure caused by a point's position (outside the domain,
// or unresolvable numerical boundary) wraps it, so callers can classify
// with errors.Is.
var ErrOutOfDomain = errors.New("simplextree: query point outside the root simplex")

// ErrQuotaExceeded is wrapped by inserts that would grow the tree past a
// configured vertex or byte quota (Options.MaxVertices / MaxBytes). It
// is a resource-governance rejection, not a failure: the tree is
// unchanged, predictions keep working, and vertex-value updates (which
// store no new vertex) are still accepted.
var ErrQuotaExceeded = errors.New("simplextree: tree quota exceeded")

// boundarySlack widens the containment band used while descending:
// a child accepts a point when every barycentric coordinate is
// ≥ -boundarySlack·tol. Descent multiplies the rounding of the root solve
// by up to 1/μ_h per level (geom.ChildBarycentric), so coordinates of
// points genuinely on a facet drift below -tol after a few levels; the
// slack absorbs that drift. Both the incremental fast path and the
// re-solving fallback use this one constant so they accept the same
// points (the fallback used to be 10x looser than the fast path, which
// made the two paths disagree exactly on the boundary queries the
// fallback exists for).
const boundarySlack = 10

// Vertex is a stored query point with its OQP vector. Vertices are shared
// by every simplex they delimit, so updating a vertex's value is visible
// tree-wide.
type Vertex struct {
	Point []float64
	Value []float64

	id int32 // creation-order index; keys the mark slices of Walk/Stats

	// stamp is the logical time the vertex was last stored or reinforced
	// (see Tree.Clock). It is atomic because predictions touch it under
	// the shared read lock when aging is enabled; all other mutation
	// happens under the exclusive lock. Vertices are always shared by
	// pointer, never copied, so the atomic is safe to embed.
	stamp atomic.Uint64
}

// Stamp reports the logical time the vertex was last stored or
// reinforced; 0 for a vertex no insert has stamped (the domain corners
// of a fresh tree).
func (v *Vertex) Stamp() uint64 { return v.stamp.Load() }

type node struct {
	verts    []*Vertex // D+1 vertices spanning this simplex
	split    *Vertex   // the point this node was split at (inner nodes)
	mu       []float64 // barycentric coordinates of split.Point w.r.t. verts
	children []*node   // one per non-degenerate child
	replaced []int     // children[i] replaces vertex replaced[i] with split
}

func (n *node) leaf() bool { return len(n.children) == 0 }

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
	rhs  []float64 // right-hand side of the root barycentric solve
	lam  []float64 // barycentric coordinates at the current node
	bufA []float64 // candidate/best child coordinates (descent juggles
	bufB []float64 // three equal-size buffers without copying)
}

// Tree is a Simplex Tree mapping points of a D-dimensional query domain to
// N-dimensional OQP vectors. It is safe for concurrent use: predictions
// run in parallel under a read lock, inserts serialize under the write
// lock (see the package comment).
type Tree struct {
	mu sync.RWMutex

	dim     int     // D
	oqpDim  int     // N
	epsilon float64 // insert threshold ε of §4.2
	tol     float64 // geometric tolerance

	root       *node
	rootSolver *geom.BarycentricSolver // LU of the fixed root system
	numPoints  int                     // stored (split or updated) query points
	numLeaves  int
	numVerts   int32 // distinct vertices ever created (next Vertex.id)

	// clock is the monotonic logical time of the lifecycle plane: it
	// advances on every accepted insert, and the accepting vertex is
	// stamped with the new value. Mutated only under the exclusive lock;
	// read under either lock mode (readers copy it into vertex stamps).
	clock uint64

	maxVerts int   // vertex quota; 0 = unbounded
	maxBytes int64 // approximate byte quota; 0 = unbounded

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
	// Tol is the geometric tolerance for containment and degeneracy
	// decisions; geom.DefaultTol when zero.
	Tol float64
	// MaxVertices bounds the number of distinct vertices the tree may
	// hold, counting the D+1 domain corners. Zero means unbounded. An
	// insert that would create a vertex past the bound is rejected with
	// ErrQuotaExceeded; vertex-value updates stay accepted.
	MaxVertices int
	// MaxBytes bounds the tree's approximate heap footprint (see
	// SizeBytes). Zero means unbounded; enforcement matches MaxVertices.
	MaxBytes int64
	// AgeHorizon, when positive, enables OQP aging: vertices whose stamp
	// trails the logical clock by more than the horizon become
	// reclaimable by RebuildAged, and predictions reinforce the stamps of
	// the enclosing simplex's vertices. Zero disables aging entirely.
	AgeHorizon uint64
}

// New builds a Simplex Tree over the given root domain simplex. Every
// corner of the domain is seeded with defaultOQP, so an empty tree
// predicts exactly the default parameters everywhere (the paper's limit
// case in which nothing is ever stored).
func New(domain *geom.Simplex, defaultOQP []float64, opts Options) (*Tree, error) {
	if domain == nil {
		return nil, errors.New("simplextree: nil domain")
	}
	if len(defaultOQP) == 0 {
		return nil, errors.New("simplextree: empty default OQP vector")
	}
	if opts.Epsilon < 0 {
		return nil, fmt.Errorf("simplextree: negative epsilon %v", opts.Epsilon)
	}
	if opts.Tol == 0 {
		opts.Tol = geom.DefaultTol
	}
	if opts.Tol < 0 {
		return nil, fmt.Errorf("simplextree: negative tolerance %v", opts.Tol)
	}
	if opts.MaxVertices < 0 || opts.MaxBytes < 0 {
		return nil, fmt.Errorf("simplextree: negative quota (MaxVertices=%d, MaxBytes=%d)", opts.MaxVertices, opts.MaxBytes)
	}
	d := domain.Dim()
	verts := make([]*Vertex, d+1)
	for i := range verts {
		verts[i] = &Vertex{
			Point: vec.Clone(domain.Vertex(i)),
			Value: vec.Clone(defaultOQP),
			id:    int32(i),
		}
	}
	t := &Tree{
		dim:        d,
		oqpDim:     len(defaultOQP),
		epsilon:    opts.Epsilon,
		tol:        opts.Tol,
		root:       &node{verts: verts},
		numLeaves:  1,
		numVerts:   int32(d + 1),
		maxVerts:   opts.MaxVertices,
		maxBytes:   opts.MaxBytes,
		ageHorizon: opts.AgeHorizon,
	}
	if err := t.initDerived(); err != nil {
		// Degeneracy check: the barycentric system must be solvable. (A
		// volume threshold would wrongly reject high-dimensional domains,
		// whose volume 1/D! underflows any fixed tolerance.)
		return nil, fmt.Errorf("simplextree: domain is degenerate: %w", err)
	}
	return t, nil
}

// initDerived builds the state derived from the root simplex: the
// once-per-tree LU factorization of the root barycentric system and the
// scratch pool. Called by New and FromSnapshot.
func (t *Tree) initDerived() error {
	rootSimplex, err := t.simplexOf(t.root)
	if err != nil {
		return err
	}
	solver, err := rootSimplex.Solver()
	if err != nil {
		return err
	}
	t.rootSolver = solver
	n := t.dim + 1
	t.scratch.New = func() interface{} {
		return &scratch{
			rhs:  make([]float64, n),
			lam:  make([]float64, n),
			bufA: make([]float64, n),
			bufB: make([]float64, n),
		}
	}
	return nil
}

// Dim returns the query-domain dimensionality D.
func (t *Tree) Dim() int { return t.dim }

// OQPDim returns the stored vector dimensionality N.
func (t *Tree) OQPDim() int { return t.oqpDim }

// SetQuota installs (or clears, with zeros) the vertex and byte bounds
// after construction. Recovery paths use it to apply quotas only once
// the persisted state is replayed: a tree already past a newly lowered
// bound keeps serving reads and rejects further growth, rather than
// failing to open.
func (t *Tree) SetQuota(maxVertices int, maxBytes int64) {
	t.mu.Lock()
	t.maxVerts = maxVertices
	t.maxBytes = maxBytes
	t.mu.Unlock()
}

// perVertexBytes approximates the heap cost of one stored vertex: its
// point and value float64 slices plus struct, pointer and node-sharing
// overhead. A constant per-vertex model keeps the byte quota monotone
// and cheap to enforce.
func (t *Tree) perVertexBytes() int64 { return int64(8*(t.dim+t.oqpDim)) + 128 }

// SizeBytes reports the tree's approximate heap footprint — the
// quantity Options.MaxBytes bounds.
func (t *Tree) SizeBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sizeBytesLocked()
}

func (t *Tree) sizeBytesLocked() int64 { return int64(t.numVerts) * t.perVertexBytes() }

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
// rebuilt from a snapshot carries data (stamps, clock) but not policy,
// which the owning configuration re-applies once the tree is live.
func (t *Tree) SetAgeHorizon(horizon uint64) {
	t.mu.Lock()
	t.ageHorizon = horizon
	t.mu.Unlock()
}

// Clock returns the tree's logical time: the number of accepted inserts
// observed over its whole history (it survives snapshots and replay).
func (t *Tree) Clock() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.clock
}

// NumPoints returns the number of query points stored (inserted splits
// plus vertex-value updates of re-seen points).
func (t *Tree) NumPoints() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numPoints
}

// NumLeaves returns the number of leaf simplices.
func (t *Tree) NumLeaves() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.numLeaves
}

// SetObserver installs the write-path hook invoked for every accepted
// insert (nil removes it). See Observer for the exact contract.
func (t *Tree) SetObserver(fn Observer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observer = fn
}

// Depth returns the maximum node depth (1 = root only) — the "Depth of
// Simplex Tree" series of Figure 16.
func (t *Tree) Depth() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return maxDepth(t.root)
}

func maxDepth(n *node) int {
	if n == nil {
		return 0
	}
	best := 0
	for _, c := range n.children {
		if d := maxDepth(c); d > best {
			best = d
		}
	}
	return 1 + best
}

// lookup descends to the leaf containing q, maintaining barycentric
// coordinates incrementally in the scratch buffers. It returns the leaf,
// the coordinates of q with respect to it (aliasing one of the scratch
// buffers), and the number of simplices traversed. The caller must hold
// the lock (either mode) and own sc.
func (t *Tree) lookup(q []float64, sc *scratch) (*node, []float64, int, error) {
	if len(q) != t.dim {
		return nil, nil, 0, fmt.Errorf("simplextree: query has dimension %d, want %d", len(q), t.dim)
	}
	if err := t.rootSolver.BarycentricInto(sc.lam, sc.rhs, q); err != nil {
		return nil, nil, 0, err
	}
	if !geom.AllNonNegative(sc.lam, t.tol) {
		return nil, nil, 0, ErrOutOfDomain
	}
	n := t.root
	lam := sc.lam
	spareA, spareB := sc.bufA, sc.bufB
	traversed := 1
	for !n.leaf() {
		next, nextLam := t.descendOnce(n, lam, spareA, spareB)
		if next == nil {
			// Numerically ambiguous boundary point: no child accepted it.
			// Resolve by a fresh solve against each child (robust path).
			next, nextLam = t.descendSolve(n, q)
			if next == nil {
				return nil, nil, traversed, fmt.Errorf("simplextree: no child contains point %v (numerical boundary): %w", q, ErrOutOfDomain)
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
		n, lam = next, nextLam
		traversed++
	}
	return n, lam, traversed, nil
}

// descendOnce picks the child containing the point with coordinates lam
// using the O(D)-per-child incremental update, writing candidate
// coordinates into the two spare buffers (no allocation). Among children
// accepting the point (boundary points may be accepted by several), the
// one whose minimum coordinate is largest is chosen, which is stable
// under rounding.
func (t *Tree) descendOnce(n *node, lam, spareA, spareB []float64) (*node, []float64) {
	var best *node
	var bestLam []float64
	cand := spareA
	bestMin := math.Inf(-1)
	for i, c := range n.children {
		if !geom.ChildBarycentricInto(cand, lam, n.mu, n.replaced[i], t.tol) {
			continue
		}
		min := math.Inf(1)
		for _, x := range cand {
			if x < min {
				min = x
			}
		}
		if min >= -boundarySlack*t.tol && min > bestMin {
			best, bestLam, bestMin = c, cand, min
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
// for each child. It allocates, but runs only for numerically ambiguous
// boundary points.
func (t *Tree) descendSolve(n *node, q []float64) (*node, []float64) {
	var best *node
	var bestLam []float64
	bestMin := math.Inf(-1)
	for _, c := range n.children {
		s, err := t.simplexOf(c)
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

func (t *Tree) simplexOf(n *node) (*geom.Simplex, error) {
	pts := make([][]float64, len(n.verts))
	for i, v := range n.verts {
		pts[i] = v.Point
	}
	return geom.NewSimplex(pts)
}

// interpolateInto evaluates the piecewise-linear wavelet at barycentric
// coordinates lam over the leaf's vertices into dst:
// v̂ = Σ_j λ_j · Value(s_j).
func interpolateInto(dst []float64, n *node, lam []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for j, v := range n.verts {
		vec.Axpy(dst, lam[j], v.Value)
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
	leaf, lam, traversed, err := t.lookup(q, sc)
	st := PredictStats{Traversed: traversed}
	if err == nil {
		interpolateInto(dst, leaf, lam)
		t.touchLeaf(leaf)
	}
	t.mu.RUnlock()
	t.scratch.Put(sc)
	return st, err
}

// touchLeaf reinforces the stamps of a served simplex's vertices: a
// prediction read from them means they still describe live traffic, so
// aging must not reclaim them. Atomic stores keep this legal under the
// shared read lock (the clock is frozen while any reader holds it, so
// stamps only ever move forward). With aging disabled this is a no-op —
// the read path stays bitwise identical to the pre-lifecycle tree.
func (t *Tree) touchLeaf(leaf *node) {
	if t.ageHorizon == 0 {
		return
	}
	now := t.clock
	for _, v := range leaf.verts {
		v.stamp.Store(now)
	}
}

// PredictBatch predicts OQP vectors for every query under one read-lock
// acquisition, sharding the batch across GOMAXPROCS goroutines (each with
// its own scratch). Results are bitwise identical to serial Predict calls
// — descent is deterministic and readers share no mutable state. On
// failure it returns the error of the lowest-indexed failing query of the
// lowest-indexed failing shard; out[i] is nil for failed queries and the
// remaining queries are still predicted.
func (t *Tree) PredictBatch(qs [][]float64) (out [][]float64, stats []PredictStats, err error) {
	out = make([][]float64, len(qs))
	stats = make([]PredictStats, len(qs))
	if len(qs) == 0 {
		return out, stats, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	chunk := (len(qs) + workers - 1) / workers
	errs := make([]error, workers)

	t.mu.RLock()
	defer t.mu.RUnlock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(qs) {
			hi = len(qs)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			sc := t.scratch.Get().(*scratch)
			defer t.scratch.Put(sc)
			for i := lo; i < hi; i++ {
				leaf, lam, traversed, lerr := t.lookup(qs[i], sc)
				stats[i] = PredictStats{Traversed: traversed}
				if lerr != nil {
					if errs[w] == nil {
						errs[w] = fmt.Errorf("simplextree: batch query %d: %w", i, lerr)
					}
					continue
				}
				dst := make([]float64, t.oqpDim)
				interpolateInto(dst, leaf, lam)
				t.touchLeaf(leaf)
				out[i] = dst
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return out, stats, e
		}
	}
	return out, stats, nil
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

// InsertBatch stores many (q, value) pairs under one exclusive-lock
// acquisition, applying them in order with identical semantics to
// repeated Insert calls (each accepted insert is announced to the
// observer). It returns the number of pairs that changed the tree; on
// error it stops at the failing pair, with earlier pairs applied.
func (t *Tree) InsertBatch(qs, values [][]float64) (stored int, err error) {
	if len(qs) != len(values) {
		return 0, fmt.Errorf("simplextree: batch has %d points but %d values", len(qs), len(values))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range qs {
		changed, err := t.insertLocked(qs[i], values[i], t.clock+1)
		if changed {
			stored++
		}
		if err != nil {
			return stored, fmt.Errorf("simplextree: batch insert %d: %w", i, err)
		}
	}
	return stored, nil
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
	leaf, lam, _, err := t.lookup(q, sc)
	if err != nil {
		return false, err
	}
	pred := make([]float64, t.oqpDim)
	interpolateInto(pred, leaf, lam)
	if maxAbsDiff(pred, value) <= t.epsilon {
		return false, nil
	}
	// A point (numerically) equal to a vertex cannot split the simplex;
	// update the vertex value instead. Re-asserting the exact stored
	// value is a no-op (not observed, not counted): WAL replay of a
	// record already covered by a snapshot lands here when ε = 0, where
	// interpolation rounding defeats the ε skip above, and must leave
	// the tree untouched for recovery to be idempotent.
	for j, l := range lam {
		if l >= 1-t.tol {
			if vec.Equal(leaf.verts[j].Value, value) {
				return false, nil
			}
			if err := t.notifyObserver(q, value, stamp); err != nil {
				return false, err
			}
			leaf.verts[j].Value = vec.Clone(value)
			t.stampVertex(leaf.verts[j], stamp)
			t.numPoints++
			return true, nil
		}
	}
	// Quota gate: only the split path below creates a vertex, so it alone
	// is subject to the resource bounds. The check precedes the observer
	// (nothing rejected here ever reaches a journal) and the rejection
	// leaves the tree untouched — reads keep serving the existing state.
	if t.maxVerts > 0 && int(t.numVerts)+1 > t.maxVerts {
		return false, fmt.Errorf("%w: %d vertices stored, limit %d", ErrQuotaExceeded, t.numVerts, t.maxVerts)
	}
	if t.maxBytes > 0 && (int64(t.numVerts)+1)*t.perVertexBytes() > t.maxBytes {
		return false, fmt.Errorf("%w: ~%d bytes stored of %d-byte limit", ErrQuotaExceeded, t.sizeBytesLocked(), t.maxBytes)
	}
	newVert := &Vertex{Point: vec.Clone(q), Value: vec.Clone(value), id: t.numVerts}
	var children []*node
	var replaced []int
	for h, l := range lam {
		if l <= t.tol {
			continue // degenerate child: q lies on the facet opposite vertex h
		}
		childVerts := make([]*Vertex, len(leaf.verts))
		copy(childVerts, leaf.verts)
		childVerts[h] = newVert
		children = append(children, &node{verts: childVerts})
		replaced = append(replaced, h)
	}
	if len(children) < 2 {
		// q is effectively a vertex (all mass on one coordinate); the
		// loop above should have caught it, but guard against tolerance
		// corner cases.
		return false, fmt.Errorf("simplextree: split of %v produced %d children", q, len(children))
	}
	if err := t.notifyObserver(q, value, stamp); err != nil {
		return false, err
	}
	// The split's mu must outlive the scratch buffers lam aliases.
	leaf.split = newVert
	leaf.mu = vec.Clone(lam)
	leaf.children = children
	leaf.replaced = replaced
	t.stampVertex(newVert, stamp)
	t.numVerts++
	t.numPoints++
	t.numLeaves += len(children) - 1
	return true, nil
}

// stampVertex records an accepted insert's logical time on its vertex
// and advances the clock to cover it. Replaying an old record (stamp ≤
// clock) never rewinds the clock, and a vertex's stamp never moves
// backwards, so replay after a partial snapshot stays idempotent.
func (t *Tree) stampVertex(v *Vertex, stamp uint64) {
	if stamp > v.stamp.Load() {
		v.stamp.Store(stamp)
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

// Walk visits every stored vertex exactly once (root corners included),
// in an unspecified order. It is the traversal used by persistence and by
// statistics. Walk is a read operation: concurrent walks are safe, and fn
// must not mutate the vertices.
func (t *Tree) Walk(fn func(v *Vertex)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.walkLocked(fn)
}

// walkLocked visits each distinct vertex once under an already-held lock.
// Visited vertices are marked in a slice keyed by the creation-order
// vertex id — one allocation per walk instead of a hash insert per node
// visit.
func (t *Tree) walkLocked(fn func(v *Vertex)) {
	seen := make([]bool, t.numVerts)
	var rec func(n *node)
	rec = func(n *node) {
		for _, v := range n.verts {
			if !seen[v.id] {
				seen[v.id] = true
				fn(v)
			}
		}
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(t.root)
}

// Stats summarizes the tree shape.
type Stats struct {
	Dim, OQPDim      int
	Points           int // stored query points
	Leaves           int
	Depth            int
	Nodes            int
	AvgLeafDepth     float64
	DistinctVertices int
}

// Stats computes shape statistics in one traversal.
func (t *Tree) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := Stats{Dim: t.dim, OQPDim: t.oqpDim, Points: t.numPoints, Leaves: t.numLeaves}
	var sumLeafDepth, leaves int
	seen := make([]bool, t.numVerts)
	var rec func(n *node, depth int)
	rec = func(n *node, depth int) {
		s.Nodes++
		if depth > s.Depth {
			s.Depth = depth
		}
		for _, v := range n.verts {
			if !seen[v.id] {
				seen[v.id] = true
				s.DistinctVertices++
			}
		}
		if n.leaf() {
			leaves++
			sumLeafDepth += depth
			return
		}
		for _, c := range n.children {
			rec(c, depth+1)
		}
	}
	rec(t.root, 1)
	if leaves > 0 {
		s.AvgLeafDepth = float64(sumLeafDepth) / float64(leaves)
	}
	return s
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
	if len(q) != t.dim {
		return nil, fmt.Errorf("simplextree: query has dimension %d, want %d", len(q), t.dim)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	s, err := t.simplexOf(n)
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
	for !n.leaf() {
		next, nextLam := t.descendSolve(n, q)
		if next == nil {
			return nil, fmt.Errorf("simplextree: no child contains point %v: %w", q, ErrOutOfDomain)
		}
		n, lam = next, nextLam
	}
	out := make([]float64, t.oqpDim)
	interpolateInto(out, n, lam)
	return out, nil
}
