package simplextree

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// fullScanDescend is the descent rule before pruning, kept as the
// reference: evaluate every child's coordinates and keep the accepted
// child whose minimum coordinate is largest (the first one on ties). It
// also reports how many children accepted the point.
func fullScanDescend(tr *Tree, n int32, lam []float64) (best int32, bestLam []float64, accepted int) {
	nd := tr.nodes[n]
	mu := tr.muOf(nd)
	best = -1
	bestMin := math.Inf(-1)
	for c := nd.child; c < nd.child+nd.nchild; c++ {
		cand := make([]float64, len(lam))
		if !geom.ChildBarycentricInto(cand, lam, mu, int(tr.nodes[c].replaced), tr.tol) {
			continue
		}
		min := math.Inf(1)
		for _, x := range cand {
			min = math.Min(min, x)
		}
		if min < -boundarySlack*tr.tol {
			continue
		}
		accepted++
		if min > bestMin {
			best, bestLam, bestMin = c, cand, min
		}
	}
	return best, bestLam, accepted
}

// checkDescent walks q down the tree, comparing descendOnce with the full
// scan at every level: the same child, and coordinates equal bit for
// bit. It returns the number of levels at which several children
// accepted q (a boundary point).
func checkDescent(t *testing.T, tr *Tree, q []float64) (ties int) {
	t.Helper()
	n1 := tr.dim + 1
	lam, rhs := make([]float64, n1), make([]float64, n1)
	if err := tr.rootSolver.BarycentricInto(lam, rhs, q); err != nil {
		t.Fatal(err)
	}
	if !geom.AllNonNegative(lam, tr.tol) {
		t.Fatalf("test point %v is outside the domain", q)
	}
	n, ids := int32(0), tr.rootIDs()
	for level := 0; tr.nodes[n].nchild > 0; level++ {
		want, wantLam, accepted := fullScanDescend(tr, n, lam)
		got, gotLam := tr.descendOnce(n, lam, make([]float64, n1), make([]float64, n1))
		if got != want {
			t.Fatalf("point %v, level %d: descendOnce chose node %d, the full scan %d", q, level, got, want)
		}
		if want < 0 {
			// The fallback's business (and no better under either rule).
			next, nextLam := tr.descendSolve(n, ids, q)
			if next < 0 {
				return ties
			}
			ids[tr.nodes[next].replaced] = tr.nodes[n].split
			n, lam = next, nextLam
			continue
		}
		for j := range wantLam {
			if math.Float64bits(gotLam[j]) != math.Float64bits(wantLam[j]) {
				t.Fatalf("point %v, level %d: coordinate %d is %v, the full scan's %v", q, level, j, gotLam[j], wantLam[j])
			}
		}
		if accepted > 1 {
			ties++
		}
		ids[tr.nodes[want].replaced] = tr.nodes[n].split
		n, lam = want, wantLam
	}
	return ties
}

// domainPoint maps barycentric weights w (length D+1, any non-negative
// scale) to a point of the standard simplex.
func domainPoint(w []float64) []float64 {
	var sum float64
	for _, x := range w {
		sum += x
	}
	q := make([]float64, len(w)-1)
	for i := range q {
		q[i] = w[i+1] / sum
	}
	return q
}

// boundaryPoint is a random point of the domain's boundary: up to half
// of its barycentric weights are zero, at least one stays positive.
func boundaryPoint(rng *rand.Rand, d int) []float64 {
	w := make([]float64, d+1)
	for i := range w {
		w[i] = 0.05 + rng.Float64()
	}
	for z := 1 + rng.Intn((d+1)/2); z > 0; z-- {
		w[rng.Intn(d)] = 0 // never the last slot, so one weight stays positive
	}
	return domainPoint(w)
}

// TestPrunedDescentIsFullScan holds the pruned descent to the rule it
// replaced: at every level of every lookup, over interior points, points
// on the facets and edges children share, the split points themselves
// and points on the domain's boundary, descendOnce picks the child the
// full scan picks, with the same coordinate bits.
func TestPrunedDescentIsFullScan(t *testing.T) {
	for _, d := range []int{2, 3, 8, 31} {
		t.Run(fmt.Sprintf("D=%d", d), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100 + d)))
			tr, rec := buildRecorded(t, rng, d)
			sets := []struct {
				name     string
				pts      [][]float64
				wantTies bool
			}{
				{"interior", nil, false},
				{"shared faces", sharedFacePoints(rng, tr, rec, 300), true},
				{"split points", splitPoints(tr), true},
				{"domain boundary", nil, d > 2},
			}
			for i := 0; i < 300; i++ {
				sets[0].pts = append(sets[0].pts, randomInterior(rng, d))
				sets[3].pts = append(sets[3].pts, boundaryPoint(rng, d))
			}
			for _, set := range sets {
				ties := 0
				for _, q := range set.pts {
					ties += checkDescent(t, tr, q)
				}
				t.Logf("%s: %d points, %d levels where several children accept", set.name, len(set.pts), ties)
				if set.wantTies && ties == 0 {
					t.Errorf("%s: no level accepted the point in several children; the set tests nothing the interior does not", set.name)
				}
			}
		})
	}
}

// TestNonFiniteQueryRefused: a NaN coordinate passes every containment
// test (its comparisons are false), so without a check it comes back as
// a NaN prediction, or as an insert that ε seems to absorb. Every lookup
// refuses NaN and ±Inf before the root solve, as outside the domain,
// and leaves the tree as it was.
func TestNonFiniteQueryRefused(t *testing.T) {
	tr, _ := buildTrainedTree(t, 3, 20, 0, 61)
	before := tr.Snapshot()
	val := make([]float64, tr.OQPDim())
	dst := make([]float64, tr.OQPDim())
	paths := map[string]func(q []float64) error{
		"Predict":      func(q []float64) error { _, err := tr.Predict(q); return err },
		"PredictInto":  func(q []float64) error { _, err := tr.PredictInto(dst, q); return err },
		"PredictNaive": func(q []float64) error { _, err := tr.PredictNaive(q); return err },
		"Insert":       func(q []float64) error { _, err := tr.Insert(q, val); return err },
		"InsertStamped": func(q []float64) error {
			_, err := tr.InsertStamped(q, val, 1000)
			return err
		},
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := []float64{0.2, x, 0.1}
		for name, call := range paths {
			if err := call(q); !errors.Is(err, ErrOutOfDomain) {
				t.Errorf("%s(%v) error %v, want ErrOutOfDomain", name, q, err)
			}
		}
	}
	if !reflect.DeepEqual(tr.Snapshot(), before) {
		t.Error("a refused insert changed the tree")
	}
}

// TestSplitAllocationBudget: a storing Insert at D = 31, into a tree
// whose arrays have room, allocates the ε-test prediction, the vertex,
// and its point and value clones; the split itself only appends to the
// flat arrays.
func TestSplitAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; allocation count is meaningless")
	}
	const d, runs = 31, 100
	tr := newTestTree(t, d, make([]float64, 2*d), 0)
	if err := tr.plant(tr.verts, d+1+runs+1); err != nil {
		t.Fatal(err)
	}
	caps := func() [3]int { return [...]int{cap(tr.nodes), cap(tr.mus), cap(tr.verts)} }
	reserved := caps()
	rng := rand.New(rand.NewSource(67))
	pts := make([][]float64, runs+1)
	vals := make([][]float64, runs+1)
	for i := range pts {
		pts[i] = randomInterior(rng, d)
		vals[i] = make([]float64, 2*d)
		vals[i][0] = 1 + float64(i)
	}
	i, missed := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if changed, err := tr.Insert(pts[i], vals[i]); !changed || err != nil {
			missed++
		}
		i++
	})
	if missed > 0 {
		t.Fatalf("%d of %d inserts did not store", missed, i)
	}
	if caps() != reserved {
		t.Errorf("array capacities moved from %v to %v: an append outgrew the reservation", reserved, caps())
	}
	if allocs > 4 {
		t.Errorf("a storing Insert allocates %v objects, want ≤ 4", allocs)
	}
}

// TestNodeHoldsNoPointers: the node array is invisible to the garbage
// collector's scan; only the vertex table holds pointers.
func TestNodeHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(node{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() != reflect.Int32 {
			t.Errorf("node.%s is a %s; node fields must be int32 indices", f.Name, f.Type)
		}
	}
}
