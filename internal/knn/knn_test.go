package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/distance"
	"repro/internal/store"
)

// newScan builds a scan over a copy of data.
func newScan(data [][]float64) (*Scan, error) {
	mat, err := store.FromRows(data)
	if err != nil {
		return nil, err
	}
	return NewScanBackend(mat)
}

func TestNewScanValidation(t *testing.T) {
	if _, err := NewScanBackend(nil); err == nil {
		t.Error("nil backend should error")
	}
	if _, err := newScan(nil); err == nil {
		t.Error("empty collection should error")
	}
	if _, err := newScan([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged collection should error")
	}
	if _, err := newScan([][]float64{{1, 2}, {3, math.Inf(-1)}}); err == nil {
		t.Error("non-finite collection should error")
	}
}

func TestScanBasics(t *testing.T) {
	data := [][]float64{{0, 0}, {1, 0}, {2, 0}, {10, 0}}
	s, err := newScan(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
	rs, err := s.Search([]float64{0.1, 0}, 2, distance.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].Index != 0 || rs[1].Index != 1 {
		t.Errorf("results = %+v", rs)
	}
	if rs[0].Distance > rs[1].Distance {
		t.Error("results not sorted")
	}
}

func TestScanKLargerThanCollection(t *testing.T) {
	s, _ := newScan([][]float64{{0}, {1}})
	rs, err := s.Search([]float64{0}, 10, distance.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Errorf("got %d results", len(rs))
	}
}

func TestScanErrors(t *testing.T) {
	s, _ := newScan([][]float64{{0, 0}})
	if _, err := s.Search([]float64{0, 0}, 0, distance.Euclidean{}); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := s.Search([]float64{0}, 1, distance.Euclidean{}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, err := s.Search([]float64{0, math.NaN()}, 1, distance.Euclidean{}); err == nil {
		t.Error("non-finite query should error")
	}
}

func TestScanTieBreaksByIndex(t *testing.T) {
	data := [][]float64{{1}, {1}, {1}, {0}}
	s, _ := newScan(data)
	rs, err := s.Search([]float64{1}, 3, distance.Euclidean{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i, r := range rs {
		if r.Index != want[i] {
			t.Fatalf("results = %+v, want indices %v", rs, want)
		}
	}
}

func TestScanMatchesBruteForceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, 200)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	s, _ := newScan(data)
	m := distance.Euclidean{}
	for trial := 0; trial < 20; trial++ {
		q := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		k := 1 + rng.Intn(20)
		got, err := s.Search(q, k, m)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force by full sort.
		type di struct {
			i int
			d float64
		}
		all := make([]di, len(data))
		for i, v := range data {
			all[i] = di{i, m.Distance(q, v)}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].i < all[b].i
		})
		for i := 0; i < k; i++ {
			if got[i].Index != all[i].i {
				t.Fatalf("trial %d: result %d = %d, want %d", trial, i, got[i].Index, all[i].i)
			}
		}
	}
}

// TestTopKOffer checks that the accumulator keeps the k nearest offers,
// replaces its worst on a closer one, and ignores a farther one.
func TestTopKOffer(t *testing.T) {
	top := NewTopK(2)
	top.Offer(0, 5)
	top.Offer(1, 3)
	if rs := top.Results(); len(rs) != 2 || rs[0].Index != 1 || rs[1].Index != 0 {
		t.Errorf("results after two offers = %+v", rs)
	}
	top.Offer(2, 1)
	top.Offer(3, 100)
	rs := top.Results()
	if len(rs) != 2 || rs[0].Index != 2 || rs[1].Index != 1 {
		t.Errorf("results = %+v", rs)
	}
}

func TestIndices(t *testing.T) {
	rs := []Result{{Index: 3}, {Index: 1}}
	got := Indices(rs)
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("Indices = %v", got)
	}
}

func TestSameIndexSet(t *testing.T) {
	a := []Result{{Index: 1}, {Index: 2}}
	b := []Result{{Index: 1}, {Index: 2}}
	c := []Result{{Index: 2}, {Index: 1}}
	d := []Result{{Index: 1}}
	if !SameIndexSet(a, b) {
		t.Error("equal lists should match")
	}
	if SameIndexSet(a, c) {
		t.Error("order matters")
	}
	if SameIndexSet(a, d) {
		t.Error("length matters")
	}
}
