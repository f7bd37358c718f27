package simplextree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/vec"
)

func newTestTree(t *testing.T, d int, oqp []float64, eps float64) *Tree {
	t.Helper()
	tr, err := New(d, oqp, Options{Epsilon: eps})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randomInterior returns a strictly interior point of the standard simplex.
func randomInterior(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d+1)
	var sum float64
	for i := range w {
		w[i] = 0.05 + rng.Float64()
		sum += w[i]
	}
	q := make([]float64, d)
	for i := 0; i < d; i++ {
		q[i] = w[i+1] / sum
	}
	return q
}

func TestNewValidation(t *testing.T) {
	for _, d := range []int{0, -1} {
		if _, err := New(d, []float64{1}, Options{}); err == nil {
			t.Errorf("dimension %d should error", d)
		}
	}
	if _, err := New(2, nil, Options{}); err == nil {
		t.Error("empty OQP should error")
	}
	if _, err := New(2, []float64{1}, Options{Epsilon: -1}); err == nil {
		t.Error("negative epsilon should error")
	}
	if _, err := New(2, []float64{1}, Options{Tol: -1}); err == nil {
		t.Error("negative tol should error")
	}
	if _, err := New(2, []float64{1}, Options{MaxVertices: -1}); err == nil {
		t.Error("negative quota should error")
	}
}

func TestEmptyTreePredictsDefault(t *testing.T) {
	def := []float64{0.5, -1, 2}
	tr := newTestTree(t, 3, def, 0)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		q := randomInterior(rng, 3)
		got, err := tr.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.EqualTol(got, def, 1e-9) {
			t.Fatalf("empty tree predicted %v, want default %v", got, def)
		}
	}
	if tr.Stats().Points != 0 || tr.Stats().Leaves != 1 || tr.Stats().Depth != 1 {
		t.Errorf("empty tree shape: points=%d leaves=%d depth=%d", tr.Stats().Points, tr.Stats().Leaves, tr.Stats().Depth)
	}
}

func TestPredictOutOfDomain(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0}, 0)
	if _, err := tr.Predict([]float64{0.9, 0.9}); !errors.Is(err, ErrOutOfDomain) {
		t.Errorf("err = %v", err)
	}
	if _, err := tr.Predict([]float64{0.1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestInsertThenPredictExact(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0, 0}, 0)
	q := []float64{0.3, 0.3}
	val := []float64{1.5, -2}
	changed, err := tr.Insert(q, val)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("insert should have stored the point")
	}
	got, err := tr.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, val, 1e-9) {
		t.Errorf("prediction at stored point = %v, want %v", got, val)
	}
	if tr.Stats().Points != 1 {
		t.Errorf("NumPoints = %d", tr.Stats().Points)
	}
	if tr.Stats().Leaves != 3 {
		t.Errorf("NumLeaves = %d, want 3 (interior split in 2D)", tr.Stats().Leaves)
	}
	if tr.Stats().Depth != 2 {
		t.Errorf("Depth = %d", tr.Stats().Depth)
	}
}

func TestInsertDimensionMismatch(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0}, 0)
	if _, err := tr.Insert([]float64{0.3, 0.3}, []float64{1, 2}); err == nil {
		t.Error("OQP dimension mismatch should error")
	}
	if _, err := tr.Insert([]float64{0.3}, []float64{1}); err == nil {
		t.Error("query dimension mismatch should error")
	}
	if _, err := tr.Insert([]float64{0.9, 0.9}, []float64{1}); !errors.Is(err, ErrOutOfDomain) {
		t.Error("out of domain insert should error")
	}
}

func TestEpsilonSuppressesRedundantInserts(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0}, 0.5)
	// Value within ε of the default prediction: not stored.
	changed, err := tr.Insert([]float64{0.2, 0.2}, []float64{0.4})
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("insert within epsilon should be suppressed")
	}
	if tr.Stats().Points != 0 {
		t.Errorf("NumPoints = %d", tr.Stats().Points)
	}
	// Value beyond ε: stored.
	changed, err = tr.Insert([]float64{0.2, 0.2}, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("insert beyond epsilon should be stored")
	}
}

func TestInsertAtVertexUpdatesValue(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0}, 0)
	q := []float64{0.25, 0.25}
	if _, err := tr.Insert(q, []float64{1}); err != nil {
		t.Fatal(err)
	}
	leavesBefore := tr.Stats().Leaves
	// Re-inserting the same point with a new value must update, not split.
	changed, err := tr.Insert(q, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("vertex update should report change")
	}
	if tr.Stats().Leaves != leavesBefore {
		t.Errorf("vertex update changed leaf count: %d -> %d", leavesBefore, tr.Stats().Leaves)
	}
	got, err := tr.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, []float64{2}, 1e-9) {
		t.Errorf("updated prediction = %v", got)
	}
	// And re-inserting the same value is suppressed by epsilon=0 exact match.
	changed, err = tr.Insert(q, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("identical re-insert should be suppressed")
	}
}

func TestPredictionIsExactAtAllStoredPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := 4
	tr := newTestTree(t, d, vec.Zeros(6), 0)
	type stored struct{ q, v []float64 }
	var pts []stored
	for i := 0; i < 40; i++ {
		q := randomInterior(rng, d)
		v := make([]float64, 6)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		changed, err := tr.Insert(q, v)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if changed {
			pts = append(pts, stored{q, v})
		}
	}
	for i, p := range pts {
		got, err := tr.Predict(p.q)
		if err != nil {
			t.Fatalf("predict %d: %v", i, err)
		}
		if !vec.EqualTol(got, p.v, 1e-7) {
			t.Fatalf("stored point %d: predicted %v, want %v", i, got, p.v)
		}
	}
}

func TestPredictMatchesNaiveDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := 3
	tr := newTestTree(t, d, vec.Zeros(2), 0)
	for i := 0; i < 30; i++ {
		q := randomInterior(rng, d)
		v := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if _, err := tr.Insert(q, v); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 50; trial++ {
		q := randomInterior(rng, d)
		fast, err := tr.Predict(q)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := tr.PredictNaive(q)
		if err != nil {
			t.Fatal(err)
		}
		if !vec.EqualTol(fast, naive, 1e-6) {
			t.Fatalf("trial %d: fast %v vs naive %v", trial, fast, naive)
		}
	}
}

// detInterpolate solves the determinant equation of §4.2 directly for a
// single OQP component: the matrix is linear in v̂, so the root of
// det(M(v̂)) = 0 is found from evaluations at v̂ = 0 and v̂ = 1.
func detInterpolate(s *geom.Simplex, vals []float64, q []float64) float64 {
	d := s.Dim()
	build := func(vhat float64) *vec.Matrix {
		m := vec.NewMatrix(d+1, d+1)
		for j := 0; j < d; j++ {
			m.Set(0, j, q[j]-s.Vertex(0)[j])
		}
		m.Set(0, d, vhat-vals[0])
		for r := 1; r <= d; r++ {
			for j := 0; j < d; j++ {
				m.Set(r, j, s.Vertex(r)[j]-s.Vertex(0)[j])
			}
			m.Set(r, d, vals[r]-vals[0])
		}
		return m
	}
	d0 := vec.Det(build(0))
	d1 := vec.Det(build(1))
	return -d0 / (d1 - d0)
}

func TestInterpolationEqualsDeterminantFormulation(t *testing.T) {
	// The paper defines interpolation via a vanishing determinant; our
	// barycentric evaluation must agree with it.
	rng := rand.New(rand.NewSource(4))
	for _, d := range []int{2, 3, 5} {
		s := geom.StandardSimplex(d)
		vals := make([]float64, d+1)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		for trial := 0; trial < 10; trial++ {
			q := randomInterior(rng, d)
			lam, err := s.Barycentric(q)
			if err != nil {
				t.Fatal(err)
			}
			var bary float64
			for j, l := range lam {
				bary += l * vals[j]
			}
			det := detInterpolate(s, vals, q)
			if math.Abs(bary-det) > 1e-8 {
				t.Fatalf("d=%d: barycentric %v vs determinant %v", d, bary, det)
			}
		}
	}
}

func TestPredictionIsContinuousAcrossSplits(t *testing.T) {
	// Linear interpolation over a triangulation is continuous: predictions
	// at points on shared facets must agree no matter which child claims
	// them. Probe near the split point where three children meet.
	tr := newTestTree(t, 2, []float64{0}, 0)
	if _, err := tr.Insert([]float64{0.3, 0.3}, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert([]float64{0.2, 0.25}, []float64{-1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		base := randomInterior(rng, 2)
		jit := 1e-9 * (rng.Float64() - 0.5)
		q1 := []float64{base[0] + jit, base[1]}
		q2 := []float64{base[0] - jit, base[1]}
		p1, err1 := tr.Predict(q1)
		p2, err2 := tr.Predict(q2)
		if err1 != nil || err2 != nil {
			continue // a jitter may step outside the domain near the boundary
		}
		if math.Abs(p1[0]-p2[0]) > 1e-5 {
			t.Fatalf("discontinuity at %v: %v vs %v", base, p1[0], p2[0])
		}
	}
}

func TestLocalityOfInserts(t *testing.T) {
	// Wavelet locality (§3): inserting far from a stored point must not
	// change predictions in the stored point's neighbourhood.
	tr := newTestTree(t, 2, []float64{0}, 0)
	if _, err := tr.Insert([]float64{0.1, 0.1}, []float64{5}); err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.11, 0.1}
	before, err := tr.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	// Insert in a different leaf: the probe lives in the child spanned by
	// {(0.1,0.1), (1,0), (0,1)}, while (0.05, 0.3) lies in the child that
	// excludes the (1,0) corner.
	if _, err := tr.Insert([]float64{0.05, 0.3}, []float64{-9}); err != nil {
		t.Fatal(err)
	}
	after, err := tr.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(before, after, 1e-9) {
		t.Errorf("far insert changed local prediction: %v -> %v", before, after)
	}
}

func TestBoundaryFacetInsert(t *testing.T) {
	// A point on a facet of the domain (one barycentric coordinate zero)
	// must produce a valid split with fewer children.
	tr := newTestTree(t, 2, []float64{0}, 0)
	changed, err := tr.Insert([]float64{0.5, 0}, []float64{1}) // on the edge y=0
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("facet insert should store")
	}
	if tr.Stats().Leaves != 2 {
		t.Errorf("facet split leaves = %d, want 2", tr.Stats().Leaves)
	}
	got, err := tr.Predict([]float64{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.EqualTol(got, []float64{1}, 1e-9) {
		t.Errorf("prediction at facet point = %v", got)
	}
	// Interior predictions still work on both sides.
	for _, q := range [][]float64{{0.2, 0.1}, {0.7, 0.1}} {
		if _, err := tr.Predict(q); err != nil {
			t.Errorf("predict %v: %v", q, err)
		}
	}
}

func TestHighDimensionalTreeD31(t *testing.T) {
	// The paper's operating point: D=31, N=62.
	rng := rand.New(rand.NewSource(6))
	d := 31
	def := vec.Zeros(62)
	for i := 31; i < 62; i++ {
		def[i] = 1 // default weights
	}
	tr := newTestTree(t, d, def, 0)
	var insertedQ [][]float64
	var insertedV [][]float64
	for i := 0; i < 20; i++ {
		q := randomInterior(rng, d)
		v := make([]float64, 62)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		changed, err := tr.Insert(q, v)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if changed {
			insertedQ = append(insertedQ, q)
			insertedV = append(insertedV, v)
		}
	}
	for i := range insertedQ {
		got, err := tr.Predict(insertedQ[i])
		if err != nil {
			t.Fatal(err)
		}
		if !vec.EqualTol(got, insertedV[i], 1e-6) {
			t.Fatalf("stored point %d mispredicted", i)
		}
	}
	st := tr.Stats()
	if st.Dim != 31 || st.OQPDim != 62 {
		t.Errorf("stats dims: %+v", st)
	}
	if st.Points != len(insertedQ) {
		t.Errorf("stats points = %d, want %d", st.Points, len(insertedQ))
	}
}

// shape returns the leaf count and maximum depth (1 = a lone leaf) of
// the subtree at n by plain recursion, independent of Stats' counters.
func shape(tr *Tree, n int32) (leaves, depth int) {
	nd := tr.nodes[n]
	if nd.nchild == 0 {
		return 1, 1
	}
	for c := nd.child; c < nd.child+nd.nchild; c++ {
		l, d := shape(tr, c)
		leaves += l
		depth = max(depth, d)
	}
	return leaves, depth + 1
}

func TestStatsAndWalk(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0}, 0)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if _, err := tr.Insert(randomInterior(rng, 2), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if leaves, depth := shape(tr, 0); st.Leaves != leaves || st.Depth != depth {
		t.Errorf("stats leaves/depth %d/%d, recursion says %d/%d", st.Leaves, st.Depth, leaves, depth)
	}
	if st.AvgLeafDepth > float64(st.Depth) || st.AvgLeafDepth < 1 {
		t.Errorf("avg leaf depth %v out of range", st.AvgLeafDepth)
	}
	// Distinct vertices: 3 root corners + stored points.
	if st.DistinctVertices != 3+st.Points {
		t.Errorf("distinct vertices = %d, want %d", st.DistinctVertices, 3+st.Points)
	}
	if count := len(tr.Census().Stamps); count != st.DistinctVertices {
		t.Errorf("census holds %d vertices, want %d", count, st.DistinctVertices)
	}
}

func TestTraversedStatsGrowWithDepth(t *testing.T) {
	tr := newTestTree(t, 2, []float64{0}, 0)
	q := []float64{0.31, 0.32}
	dst := make([]float64, 1)
	st, err := tr.PredictInto(dst, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traversed != 1 {
		t.Errorf("empty tree traversal = %d", st.Traversed)
	}
	// Insert nested points around q to deepen its leaf.
	pts := [][]float64{{0.3, 0.3}, {0.305, 0.31}, {0.308, 0.315}}
	for _, p := range pts {
		changed, err := tr.Insert(p, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Errorf("insert at %v did not split its leaf", p)
		}
	}
	st, err = tr.PredictInto(dst, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traversed < 3 {
		t.Errorf("deep traversal = %d, want ≥ 3", st.Traversed)
	}
	if st.Traversed > tr.Stats().Depth {
		t.Errorf("traversed %d exceeds depth %d", st.Traversed, tr.Stats().Depth)
	}
	// Stats are per call, not stored: a repeated PredictInto reports the
	// same traversal, and Predict the same value.
	again := make([]float64, 1)
	st2, err := tr.PredictInto(again, q)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Errorf("repeated PredictInto stats = %+v, want %+v", st2, st)
	}
	out, err := tr.Predict(q)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != dst[0] || again[0] != dst[0] {
		t.Errorf("Predict %v and repeated PredictInto %v differ from PredictInto %v", out, again, dst)
	}
}

func TestConcurrentPredict(t *testing.T) {
	tr := newTestTree(t, 3, []float64{0}, 0)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		if _, err := tr.Insert(randomInterior(rng, 3), []float64{rng.NormFloat64()}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				if _, err := tr.Predict(randomInterior(r, 3)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(int64(g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestAccessors(t *testing.T) {
	tr := newTestTree(t, 5, vec.Zeros(7), 0.25)
	if tr.Dim() != 5 || tr.OQPDim() != 7 || tr.Epsilon() != 0.25 {
		t.Errorf("accessors: %d %d %v", tr.Dim(), tr.OQPDim(), tr.Epsilon())
	}
}

func TestManyInsertsPartitionInvariant(t *testing.T) {
	// After many inserts, every interior point must still land in exactly
	// one leaf and predictions must be finite.
	rng := rand.New(rand.NewSource(9))
	tr := newTestTree(t, 3, []float64{0, 0}, 0)
	for i := 0; i < 120; i++ {
		v := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if _, err := tr.Insert(randomInterior(rng, 3), v); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for trial := 0; trial < 300; trial++ {
		q := randomInterior(rng, 3)
		got, err := tr.Predict(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !vec.IsFinite(got) {
			t.Fatalf("trial %d: non-finite prediction %v", trial, got)
		}
	}
}
