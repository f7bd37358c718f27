//go:build !race

// sync.Pool deliberately drops items under the race detector, so an
// allocation count taken there says nothing about the pooled tile buffers.

package knn

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/distance"
)

// TestSearchAllocationBudget is the retrieval layer's exact work counter:
// what one lone Search at D = 32 allocates, with no clock involved. On
// one goroutine that is the candidate list it returns, at GOMAXPROCS 1
// and 4 alike; the cascade's tile buffers and the best-first order come
// from tileBufPool and must not show, and the sort must not allocate.
// The helper path is pinned on rows with no locality, where every tile
// box contains the query: at GOMAXPROCS 4, 2·minShardRows such rows take
// one helper, and the search allocates the state slice, the tile queue,
// the helper's closure, two candidate lists and the merged list.
// testing.AllocsPerRun pins GOMAXPROCS to 1, so the GOMAXPROCS 4 counts
// are taken the same way (mallocs over runs, floored) without that pin.
func TestSearchAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	uniform := func(n int) *Scan {
		data := make([][]float64, n)
		for i := range data {
			v := make([]float64, 32)
			for j := range v {
				v[j] = rng.Float64()
			}
			data[i] = v
		}
		scan, err := NewScan(data)
		if err != nil {
			t.Fatal(err)
		}
		return scan
	}
	ordered, shuffled := uniform(4096), uniform(2*minShardRows)
	centre := make([]float64, 32)
	w := make([]float64, 32)
	for j := range w {
		centre[j] = 0.5
		w[j] = 0.5 + rng.Float64()
	}
	wm, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, m := range []distance.Metric{distance.Euclidean{}, wm} {
		search := func(scan *Scan) func() {
			return func() {
				if _, err := scan.Search(centre, 10, m); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := testing.AllocsPerRun(200, search(ordered)); got != 1 {
			t.Errorf("%s: %v allocs per Search at GOMAXPROCS 1, budget 1", m.Name(), got)
		}
		for _, c := range []struct {
			scan   *Scan
			what   string
			budget uint64
		}{{ordered, "on one goroutine", 1}, {shuffled, "with a helper", 6}} {
			const runs = 200
			s := search(c.scan)
			for i := 0; i < 20; i++ {
				s() // warm every P's pool and goroutine free list
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				s()
			}
			runtime.ReadMemStats(&after)
			if got := (after.Mallocs - before.Mallocs) / runs; got != c.budget {
				t.Errorf("%s: %d allocs per Search %s at GOMAXPROCS 4, budget %d", m.Name(), got, c.what, c.budget)
			}
		}
	}
}
