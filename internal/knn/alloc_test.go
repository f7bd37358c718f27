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
// one shard that is the candidate list it returns; on four (n = 4096
// under GOMAXPROCS 4) it is the shard-state slice, one candidate list and
// one goroutine closure per shard, the WaitGroup and the merged list. The
// cascade's tile buffers come from tileBufPool and must not show.
// testing.AllocsPerRun pins GOMAXPROCS to 1, so the sharded count is
// taken the same way (mallocs over runs, floored) without that pin.
func TestSearchAllocationBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([][]float64, 4096)
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
	w := make([]float64, 32)
	for j := range w {
		w[j] = 0.5 + rng.Float64()
	}
	wm, err := distance.NewWeightedEuclidean(w)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, m := range []distance.Metric{distance.Euclidean{}, wm} {
		search := func() {
			if _, err := scan.Search(data[7], 10, m); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, search); got != 1 {
			t.Errorf("%s: %v allocs per single-shard Search, budget 1", m.Name(), got)
		}
		const runs = 200
		search() // warm the pool and the goroutine free list
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			search()
		}
		runtime.ReadMemStats(&after)
		if got := (after.Mallocs - before.Mallocs) / runs; got != 11 {
			t.Errorf("%s: %d allocs per four-shard Search, budget 11", m.Name(), got)
		}
	}
}
