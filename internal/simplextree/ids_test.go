package simplextree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/vec"
)

// idRecorder keeps every node's vertex ids the way the tree stored them
// before it derived them: when a split appends children, each child
// copies its parent's ids and puts the new vertex, the last one in the
// vertex table, in the slot it replaced. It is the reference the derived
// ids are checked against.
type idRecorder struct {
	tr  *Tree
	ids [][]int32 // indexed like tr.nodes
}

func newIDRecorder(tr *Tree) *idRecorder {
	return &idRecorder{tr: tr, ids: [][]int32{tr.rootIDs()}}
}

// insert is tr.Insert, recording the ids of the children a split adds.
func (r *idRecorder) insert(t *testing.T, q, value []float64) {
	t.Helper()
	if _, err := r.tr.Insert(q, value); err != nil {
		t.Fatal(err)
	}
	first := int32(len(r.ids))
	if int(first) == len(r.tr.nodes) {
		return // ε-skip or vertex update: no new node
	}
	parent := int32(-1)
	for n, nd := range r.tr.nodes {
		if nd.nchild > 0 && nd.child == first {
			parent = int32(n)
		}
	}
	if parent < 0 {
		t.Fatalf("no node owns the children appended at %d", first)
	}
	id := int32(len(r.tr.stamps) - 1)
	for c := first; c < int32(len(r.tr.nodes)); c++ {
		kid := append([]int32(nil), r.ids[parent]...)
		kid[r.tr.nodes[c].replaced] = id
		r.ids = append(r.ids, kid)
	}
}

// split returns the vertex id inner node n was split at, read from the
// recorded ids of its first child.
func (r *idRecorder) split(n int32) int32 {
	c := r.tr.nodes[n].child
	return r.ids[c][r.tr.nodes[c].replaced]
}

// buildRecorded grows a D-dimensional tree from 80 inserts, every fifth
// on the domain's boundary, recording its ids.
func buildRecorded(t *testing.T, rng *rand.Rand, d int) (*Tree, *idRecorder) {
	t.Helper()
	tr := newTestTree(t, d, make([]float64, 2), 0)
	rec := newIDRecorder(tr)
	for i := 0; i < 80; i++ {
		q := randomInterior(rng, d)
		if i%5 == 4 {
			q = boundaryPoint(rng, d)
		}
		rec.insert(t, q, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	return tr, rec
}

// sharedFacePoints returns count points on the faces children share: the
// split point s of a random inner node combined with a proper subset of
// that node's vertices (one vertex: an edge through s).
func sharedFacePoints(rng *rand.Rand, tr *Tree, rec *idRecorder, count int) [][]float64 {
	d := tr.dim
	var shared [][]float64
	for len(shared) < count {
		n := int32(rng.Intn(len(tr.nodes)))
		if tr.nodes[n].nchild == 0 {
			continue
		}
		p := append([]float64(nil), tr.point(rec.split(n))...)
		ids := rec.ids[n]
		a := 0.1 + rng.Float64()
		for i := range p {
			p[i] *= a
		}
		sum := a
		for k := 1 + rng.Intn(d); k > 0; k-- { // at most D of the D+1 vertices
			b := rng.Float64()
			for i, x := range tr.point(ids[rng.Intn(d+1)]) {
				p[i] += b * x
			}
			sum += b
		}
		for i := range p {
			p[i] /= sum
		}
		shared = append(shared, p)
	}
	return shared
}

// splitPoints returns every stored vertex's point, the corners included.
func splitPoints(tr *Tree) [][]float64 {
	var pts [][]float64
	for id := range int32(len(tr.stamps)) {
		pts = append(pts, tr.point(id))
	}
	return pts
}

// TestDerivedIDsMatchReference holds the ids the tree derives on the way
// down to the ids recorded as the tree grew, over interior points, points
// on the faces children share and the split points themselves: lookup's
// leaf ids; the child simplex descendSolve solves against at every level
// (the coordinates it returns are those of the recorded simplex, bit for
// bit); PredictNaive, to a reference interpolation over the recorded
// leaf; every node of Snapshot; and lookup again with every level forced
// onto the descendSolve fallback.
func TestDerivedIDsMatchReference(t *testing.T) {
	for _, d := range []int{2, 3, 8, 31} {
		t.Run(fmt.Sprintf("D=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(200 + d)))
			tr, rec := buildRecorded(t, rng, d)
			if len(rec.ids) != len(tr.nodes) {
				t.Fatalf("recorded %d nodes, the tree holds %d", len(rec.ids), len(tr.nodes))
			}
			for n, nd := range tr.nodes {
				if nd.nchild > 0 && nd.split != rec.split(int32(n)) {
					t.Fatalf("node %d: split %d, recorded %d", n, nd.split, rec.split(int32(n)))
				}
			}
			var interior [][]float64
			for i := 0; i < 300; i++ {
				interior = append(interior, randomInterior(rng, d))
			}
			sets := map[string][][]float64{
				"interior":     interior,
				"shared faces": sharedFacePoints(rng, tr, rec, 300),
				"split points": splitPoints(tr),
			}
			sc := tr.scratch.Get().(*scratch)
			defer tr.scratch.Put(sc)
			checkLookup := func(name string, q []float64) {
				t.Helper()
				leaf, _, _, err := tr.lookup(q, sc)
				if err != nil {
					t.Fatalf("%s: lookup(%v): %v", name, q, err)
				}
				if !reflect.DeepEqual(sc.ids, rec.ids[leaf]) {
					t.Fatalf("%s: lookup(%v) derived leaf %d's ids %v, recorded %v", name, q, leaf, sc.ids, rec.ids[leaf])
				}
			}
			// Every descendSolve level re-solves D+1 children: the two
			// checks that run it take every fourth point.
			for name, pts := range sets {
				solved := 0
				for i, q := range pts {
					checkLookup(name, q)
					if i%4 == 0 {
						solved += checkSolvePath(t, tr, rec, q)
					}
				}
				t.Logf("%s: %d points, %d levels solved by descendSolve", name, len(pts), solved)
			}
			checkSnapshotIDs(t, tr, rec, tr.Snapshot().Root, 0)

			// With every split coordinate zeroed, descendOnce finds each
			// child degenerate (μ_h ≤ tol) and accepts none, so every level
			// of every lookup below derives its ids after the descendSolve
			// fallback. The tree is private to this test.
			clear(tr.mus)
			for name, pts := range sets {
				for i := 0; i < len(pts); i += 4 {
					checkLookup(name+" (fallback)", pts[i])
				}
			}
		})
	}
}

// checkSolvePath walks q down the tree through descendSolve alone, the
// path PredictNaive takes, handing it each node's recorded ids: the child
// it picks must come back with q's coordinates in that child's recorded
// simplex. At the leaf, PredictNaive must equal the interpolation over
// the recorded ids bit for bit. It returns the number of levels walked.
func checkSolvePath(t *testing.T, tr *Tree, rec *idRecorder, q []float64) (levels int) {
	t.Helper()
	n := int32(0)
	s, err := tr.simplexOf(rec.ids[0])
	if err != nil {
		t.Fatal(err)
	}
	lam, err := s.Barycentric(q)
	if err != nil {
		t.Fatal(err)
	}
	for ; tr.nodes[n].nchild > 0; levels++ {
		next, nextLam := tr.descendSolve(n, rec.ids[n], q)
		if next < 0 {
			t.Fatalf("descendSolve found no child of node %d for %v", n, q)
		}
		pts := make([][]float64, len(lam))
		for j, id := range rec.ids[next] {
			pts[j] = tr.point(id)
		}
		s, err := geom.NewSimplex(pts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Barycentric(q)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(nextLam[j]) != math.Float64bits(want[j]) {
				t.Fatalf("node %d → %d, point %v: coordinate %d is %v, %v in the recorded simplex", n, next, q, j, nextLam[j], want[j])
			}
		}
		n, lam = next, nextLam
	}
	want := make([]float64, tr.oqpDim)
	for j, id := range rec.ids[n] {
		vec.Axpy(want, lam[j], tr.value(id))
	}
	got, err := tr.PredictNaive(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("PredictNaive(%v)[%d] = %v, %v over the recorded leaf %d", q, i, got[i], want[i], n)
		}
	}
	return levels
}

// checkSnapshotIDs walks a snapshot beside the node array: every node's
// Verts and Split must be the recorded ones.
func checkSnapshotIDs(t *testing.T, tr *Tree, rec *idRecorder, sn *SnapshotNode, n int32) {
	t.Helper()
	if !reflect.DeepEqual(sn.Verts, rec.ids[n]) {
		t.Fatalf("snapshot node %d: Verts %v, recorded %v", n, sn.Verts, rec.ids[n])
	}
	nd := tr.nodes[n]
	if nd.nchild == 0 {
		if sn.Split != -1 || len(sn.Children) != 0 {
			t.Fatalf("snapshot leaf %d: Split %d and %d children", n, sn.Split, len(sn.Children))
		}
		return
	}
	if sn.Split != rec.split(n) || len(sn.Children) != int(nd.nchild) {
		t.Fatalf("snapshot node %d: Split %d and %d children, recorded %d and %d", n, sn.Split, len(sn.Children), rec.split(n), nd.nchild)
	}
	for i, kid := range sn.Children {
		checkSnapshotIDs(t, tr, rec, kid, nd.child+int32(i))
	}
}

// TestJournalReplayGrowsNoArray: a tree rebuilt by FromCensus with room
// for a journal of inserts replays that journal without regrowing an
// array, and ends Snapshot-equal to the tree that wrote the journal.
func TestJournalReplayGrowsNoArray(t *testing.T) {
	const d, censusAt, stored = 31, 90, 100
	tr := newTestTree(t, d, make([]float64, 2*d), 0.05)
	type record struct {
		q, value []float64
		stamp    uint64
	}
	var journal []record
	rng := rand.New(rand.NewSource(73))
	var census *Census
	for tr.Stats().Points < stored {
		if census == nil && tr.Stats().Points == censusAt {
			census = tr.Census()
			tr.SetObserver(func(q, value []float64, stamp uint64) error {
				journal = append(journal, record{vec.Clone(q), vec.Clone(value), stamp})
				return nil
			})
		}
		v := make([]float64, 2*d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tr.Insert(randomInterior(rng, d), v); err != nil {
			t.Fatal(err)
		}
	}
	back, err := FromCensus(census, len(journal))
	if err != nil {
		t.Fatal(err)
	}
	caps := func() [5]int {
		return [...]int{cap(back.nodes), cap(back.mus), cap(back.points), cap(back.values), cap(back.stamps)}
	}
	reserved := caps()
	for _, r := range journal {
		if _, err := back.InsertStamped(r.q, r.value, r.stamp); err != nil {
			t.Fatal(err)
		}
	}
	if caps() != reserved {
		t.Errorf("array capacities moved from %v to %v replaying %d journal records", reserved, caps(), len(journal))
	}
	if !reflect.DeepEqual(back.Snapshot(), tr.Snapshot()) {
		t.Error("census + journal replay is not Snapshot-equal to the tree that wrote them")
	}
}
