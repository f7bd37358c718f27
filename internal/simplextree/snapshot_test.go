package simplextree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/vec"
)

// TestSnapshotRoundTrip: a tree rebuilt from its census is Snapshot-equal
// to the original — triangulation, split coordinates, values, stamps,
// clock and point counter — with vertex updates and an aged rebuild in
// its history, and it predicts the same bits. The "absorbable" tree holds
// a vertex that a replay running the ε test would drop: B was stored
// while its neighbour A held 10, and A's later update to 20 makes the
// interpolation at B equal B's own value.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := newTestTree(t, 3, vec.Zeros(5), 0.01)
	var pts [][]float64
	for i := 0; i < 40; i++ {
		q := randomInterior(rng, 3)
		if i%7 == 6 {
			q = pts[rng.Intn(len(pts))] // a value update of a stored vertex
		}
		v := make([]float64, 5)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		if _, err := tr.Insert(q, v); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, q)
	}
	aged, _, err := tr.RebuildAged(20)
	if err != nil {
		t.Fatal(err)
	}
	absorbable := newTestTree(t, 2, []float64{0}, 0.5)
	pA, pB := []float64{0.25, 0.25}, []float64{0.3, 0.2}
	unit := newTestTree(t, 2, []float64{0}, 0)
	if _, err := unit.Insert(pA, []float64{1}); err != nil {
		t.Fatal(err)
	}
	lamA, err := unit.Predict(pB) // A's barycentric weight at B
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range []struct {
		q []float64
		v float64
	}{{pA, 10}, {pB, 20 * lamA[0]}, {pA, 20}} {
		if changed, err := absorbable.Insert(in.q, []float64{in.v}); err != nil || !changed {
			t.Fatalf("absorbable insert %d: changed=%v err=%v", i, changed, err)
		}
	}
	for name, src := range map[string]*Tree{"grown": tr, "aged": aged, "absorbable": absorbable} {
		snap := src.Snapshot()
		if snap.Dim != src.Dim() || snap.OQPDim != src.OQPDim() || snap.Epsilon != src.Epsilon() || snap.Points != src.Stats().Points || snap.Clock == 0 {
			t.Errorf("%s: snapshot header: %+v", name, snap.Census)
		}
		back, err := FromCensus(src.Census(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back.Snapshot(), snap) {
			t.Fatalf("%s: the tree rebuilt from its census is not Snapshot-equal to it", name)
		}
		got, want := back.Stats(), src.Stats()
		got.Bytes, want.Bytes = 0, 0 // array capacity: FromCensus sizes to fit
		if got != want {
			t.Errorf("%s: stats %+v, want %+v", name, got, want)
		}
		for trial := 0; trial < 30; trial++ {
			q := randomInterior(rng, src.Dim())
			want, err1 := src.Predict(q)
			got, err2 := back.Predict(q)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !vec.Equal(got, want) {
				t.Fatalf("%s: prediction %v, want %v", name, got, want)
			}
		}
	}
}

// TestFromCensusValidation: a census that cannot describe a tree is
// refused with an error, never a panic or a half-built tree. The census
// is of a D = 2, N = 1 tree of five vertices: vertex i's point is
// Coords[2i:2i+2] and its value Values[i]. Its corners must be the
// standard simplex's bit for bit, so an origin of (−0, 0) is refused
// although it compares equal to (0, 0).
func TestFromCensusValidation(t *testing.T) {
	tr := newTestTree(t, 2, []float64{1}, 0)
	for _, q := range [][]float64{{0.3, 0.3}, {0.1, 0.2}} {
		if _, err := tr.Insert(q, []float64{2}); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		mutate func(*Census)
	}{
		{"zero dim", func(c *Census) { c.Dim = 0 }},
		{"zero oqp dim", func(c *Census) { c.OQPDim = 0 }},
		{"negative epsilon", func(c *Census) { c.Epsilon = -1 }},
		{"NaN epsilon", func(c *Census) { c.Epsilon = math.NaN() }},
		{"zero tol", func(c *Census) { c.Tol = 0 }},
		{"infinite tol", func(c *Census) { c.Tol = math.Inf(1) }},
		{"negative points", func(c *Census) { c.Points = -1 }},
		{"wrong vertex count", func(c *Census) { c.Coords, c.Values, c.Stamps = c.Coords[:4], c.Values[:2], c.Stamps[:2] }},
		{"bad vertex point dim", func(c *Census) { c.Coords = c.Coords[:len(c.Coords)-1] }},
		{"bad vertex value dim", func(c *Census) { c.Values = append(c.Values, 2) }},
		{"non-finite value", func(c *Census) { c.Values[3] = math.Inf(-1) }},
		{"degenerate corners", func(c *Census) { copy(c.Coords[4:6], c.Coords[2:4]) }},
		{"corner off the standard simplex", func(c *Census) { c.Coords[5] = 2 }},
		{"negative zero corner coordinate", func(c *Census) { c.Coords[0] = math.Copysign(0, -1) }},
		{"vertex outside the domain", func(c *Census) { copy(c.Coords[6:8], []float64{2, 2}) }},
		{"duplicate vertex", func(c *Census) { copy(c.Coords[8:10], c.Coords[6:8]) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			census := tr.Census()
			c.mutate(census)
			if back, err := FromCensus(census, 0); err == nil {
				t.Errorf("accepted, rebuilt %+v", back.Stats())
			}
		})
	}
	if _, err := FromCensus(nil, 0); err == nil {
		t.Error("nil census accepted")
	}
	if _, err := FromCensus(tr.Census(), -1); err == nil {
		t.Error("negative journal reservation accepted")
	}
	// The unmutated census still rebuilds (each case mutated a copy).
	if _, err := FromCensus(tr.Census(), 0); err != nil {
		t.Fatal(err)
	}
}
