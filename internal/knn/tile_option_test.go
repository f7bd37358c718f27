package knn

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/distance"
)

// TestBatchTileParity asserts Search and SearchBatchMulti results are
// identical for every tile size — including tiles larger than the
// collection, non-powers of two, and 1 — at both the D=32 cascade and a
// generic dimensionality — and equal to SearchNaive on the
// category-ordered collection, where block boundaries that are not the
// box tiles' exercise the superset-box and no-box cases of the skip.
// Nothing outside these tests sets the tile.
func TestBatchTileParity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, dim := range []int{32, 7} {
		n := 1200
		rows := make([][]float64, n)
		for i := range rows {
			r := make([]float64, dim)
			for j := range r {
				r[j] = float64(rng.Intn(40)) / 4
			}
			rows[i] = r
		}
		qs := make([][]float64, 9)
		ms := make([]distance.Metric, len(qs))
		for qi := range qs {
			q := make([]float64, dim)
			w := make([]float64, dim)
			for j := range q {
				q[j] = float64(rng.Intn(40)) / 4
				w[j] = float64(rng.Intn(5))
			}
			qs[qi] = q
			if qi%2 == 0 {
				ms[qi] = distance.Euclidean{}
			} else {
				wm, err := distance.NewWeightedEuclidean(w)
				if err != nil {
					t.Fatal(err)
				}
				ms[qi] = wm
			}
		}
		ref, err := NewScan(rows)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.SearchBatchMulti(qs, 10, ms)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range []int{1, 3, 64, 100, 511, 512, 513, 5000} {
			s, err := NewScan(rows)
			if err != nil {
				t.Fatal(err)
			}
			s.batchTile = tile
			got, err := s.SearchBatchMulti(qs, 10, ms)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("dim %d tile %d: batch results differ from default tile", dim, tile)
			}
			for qi, q := range qs {
				lone, err := s.Search(q, 10, ms[qi])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lone, want[qi]) {
					t.Fatalf("dim %d tile %d query %d: lone Search differs from default-tile batch", dim, tile, qi)
				}
			}
		}
	}
	for _, tile := range []int{1, 3, 64, 100, 511, 512, 513, 5000} {
		categoryBatchParity(t, rng, tile)
	}
}
