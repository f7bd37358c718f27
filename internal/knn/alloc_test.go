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
// what one lone Search allocates, with no clock involved. That is the
// candidate list it returns, at GOMAXPROCS 1 and 4 alike, on a small
// D = 32 collection, on 2·minShardRows uniform D = 32 rows, where nearly
// every tile box contains the query, and on 2·minShardRows uniform
// D = 33 rows, which the row loop scans: a lone search runs on its
// caller whatever the rows and the dimensionality. The cascade's tile
// buffers and the best-first order come from tileBufPool and must not
// show, and the sort must not allocate.
// testing.AllocsPerRun pins GOMAXPROCS to 1, so the GOMAXPROCS 4 counts
// are taken the same way (mallocs over runs, floored) without that pin.
func TestSearchAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	uniform := func(n, dim int) *Scan {
		data := make([][]float64, n)
		for i := range data {
			v := make([]float64, dim)
			for j := range v {
				v[j] = rng.Float64()
			}
			data[i] = v
		}
		scan, err := newScan(data)
		if err != nil {
			t.Fatal(err)
		}
		return scan
	}
	centre := make([]float64, 33)
	w := make([]float64, 33)
	for j := range w {
		centre[j] = 0.5
		w[j] = 0.5 + rng.Float64()
	}
	cases := []struct {
		scan *Scan
		what string
	}{
		{uniform(4096, 32), "4096 rows"},
		{uniform(2*minShardRows, 32), "2·minShardRows rows"},
		{uniform(2*minShardRows, 33), "2·minShardRows D = 33 rows"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range cases {
		dim := c.scan.dim
		wm, err := distance.NewWeightedEuclidean(w[:dim])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []distance.Metric{euclidean(dim), wm} {
			search := func() {
				if _, err := c.scan.Search(centre[:dim], 10, m); err != nil {
					t.Fatal(err)
				}
			}
			if got := testing.AllocsPerRun(200, search); got != 1 {
				t.Errorf("%s %s: %v allocs per Search at GOMAXPROCS 1, budget 1", m.Name(), c.what, got)
			}
			const runs = 200
			for i := 0; i < 20; i++ {
				search() // warm every P's pool
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				search()
			}
			runtime.ReadMemStats(&after)
			if got := (after.Mallocs - before.Mallocs) / runs; got != 1 {
				t.Errorf("%s %s: %d allocs per Search at GOMAXPROCS 4, budget 1", m.Name(), c.what, got)
			}
		}
	}
}
