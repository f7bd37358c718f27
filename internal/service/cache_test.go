package service

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

func oqpFor(x float64, n int) core.OQP {
	oqp := core.OQP{Delta: make([]float64, n), Weights: make([]float64, n)}
	for i := range oqp.Delta {
		oqp.Delta[i] = x
	}
	return oqp
}

// TestCacheInvalidation: Invalidate drops every entry and moves the
// generation, so a Put computed against the old tree is discarded while
// one at the current generation lands.
func TestCacheInvalidation(t *testing.T) {
	c := newPredictionCache(16)
	for i := 0; i < 4; i++ {
		q, sig := cachePoint(i)
		c.Put(c.Generation(), sig, q, oqpFor(float64(i), 3))
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	stale := c.Generation()
	c.Invalidate()
	if c.Len() != 0 || c.Generation() != stale+1 {
		t.Fatalf("after Invalidate: %d entries at generation %d, want 0 at %d", c.Len(), c.Generation(), stale+1)
	}
	q, sig := cachePoint(1)
	c.Put(stale, sig, q, oqpFor(1, 3))
	if _, ok := c.Get(sig, q); ok {
		t.Error("stale-generation Put landed in the cache")
	}
	c.Put(c.Generation(), sig, q, oqpFor(1, 3))
	if _, ok := c.Get(sig, q); !ok {
		t.Error("current-generation Put did not land")
	}
}

// cachePoint builds a distinct query point and its signature for cache
// key tests.
func cachePoint(i int) ([]float64, uint64) {
	q := []float64{float64(i) * 0.01, 0.5, 0.25}
	return q, engine.QuerySignature(q)
}

// TestCacheCapacityBound pins the LRU's capacity invariant directly:
// the entry count never exceeds the configured capacity no matter how
// many distinct keys are inserted.
func TestCacheCapacityBound(t *testing.T) {
	const cap = 8
	c := newPredictionCache(cap)
	for i := 0; i < 5*cap; i++ {
		q, sig := cachePoint(i)
		c.Put(c.Generation(), sig, q, oqpFor(float64(i), 3))
		if c.Len() > cap {
			t.Fatalf("after %d puts: %d entries exceed capacity %d", i+1, c.Len(), cap)
		}
	}
	if c.Len() != cap {
		t.Fatalf("steady state holds %d entries, want %d", c.Len(), cap)
	}
	// The cap survivors are exactly the most recent cap inserts.
	for i := 0; i < 5*cap; i++ {
		q, sig := cachePoint(i)
		_, ok := c.Get(sig, q)
		if want := i >= 4*cap; ok != want {
			t.Errorf("entry %d cached=%v, want %v", i, ok, want)
		}
	}
}

// TestCacheLRUEvictionOrder pins the eviction order: filling the cache,
// touching a subset via Get, then overflowing must evict the
// least-recently-used entries — not the oldest-inserted ones.
func TestCacheLRUEvictionOrder(t *testing.T) {
	const cap = 4
	c := newPredictionCache(cap)
	qs := make([][]float64, 6)
	sigs := make([]uint64, 6)
	for i := 0; i < 6; i++ {
		qs[i], sigs[i] = cachePoint(i)
	}
	for i := 0; i < cap; i++ { // cache: [3 2 1 0] (front = MRU)
		c.Put(c.Generation(), sigs[i], qs[i], oqpFor(float64(i), 3))
	}
	// Touch 0 then 1: recency becomes [1 0 3 2].
	if _, ok := c.Get(sigs[0], qs[0]); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if _, ok := c.Get(sigs[1], qs[1]); !ok {
		t.Fatal("entry 1 missing before eviction")
	}
	// Two more inserts evict exactly 2 then 3 (the LRU tail), sparing
	// the older-but-recently-touched 0 and 1.
	c.Put(c.Generation(), sigs[4], qs[4], oqpFor(4, 3))
	if _, ok := c.Get(sigs[2], qs[2]); ok {
		t.Error("LRU entry 2 survived the first overflow")
	}
	c.Put(c.Generation(), sigs[5], qs[5], oqpFor(5, 3))
	if _, ok := c.Get(sigs[3], qs[3]); ok {
		t.Error("LRU entry 3 survived the second overflow")
	}
	for _, i := range []int{0, 1, 4, 5} {
		if _, ok := c.Get(sigs[i], qs[i]); !ok {
			t.Errorf("entry %d evicted out of LRU order", i)
		}
	}
}

// TestCachePutRefreshAndCollision: re-putting an existing key refreshes
// its value and recency in place (no growth), and a signature collision
// between distinct points replaces the older entry while Get on the
// displaced point misses.
func TestCachePutRefreshAndCollision(t *testing.T) {
	c := newPredictionCache(4)
	q0, sig0 := cachePoint(0)
	c.Put(c.Generation(), sig0, q0, oqpFor(1, 3))
	c.Put(c.Generation(), sig0, q0, oqpFor(2, 3))
	if c.Len() != 1 {
		t.Fatalf("refresh grew the cache to %d entries", c.Len())
	}
	if oqp, ok := c.Get(sig0, q0); !ok || oqp.Delta[0] != 2 {
		t.Fatalf("refresh did not replace the value: %v %v", oqp, ok)
	}
	// Same signature, different point (a forced collision): the entry is
	// replaced, and the old point no longer hits.
	q1, _ := cachePoint(1)
	c.Put(c.Generation(), sig0, q1, oqpFor(3, 3))
	if c.Len() != 1 {
		t.Fatalf("collision replace grew the cache to %d entries", c.Len())
	}
	if _, ok := c.Get(sig0, q0); ok {
		t.Error("displaced point still served after collision replace")
	}
	if oqp, ok := c.Get(sig0, q1); !ok || oqp.Delta[0] != 3 {
		t.Errorf("colliding point not served: %v %v", oqp, ok)
	}
	// A Get returns a deep copy: mutating it must not corrupt the cache.
	oqp, _ := c.Get(sig0, q1)
	oqp.Delta[0] = 99
	if again, _ := c.Get(sig0, q1); again.Delta[0] != 3 {
		t.Error("Get returned an aliased OQP; cache corrupted by caller mutation")
	}
}

// TestInsertInvalidatesCache: a session whose outcome changes the tree
// empties the whole prediction cache. A core.Bypass compacts through the
// service.
func TestInsertInvalidatesCache(t *testing.T) {
	svc, ds := newTestService(t, Options{DefaultK: 5})
	if _, err := svc.CompactAged(context.Background()); err != nil {
		t.Errorf("CompactAged over a core.Bypass: %v", err)
	}

	for i := 0; i < 6; i++ {
		st, err := svc.Open(context.Background(), ds.Items[i].Feature, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Close(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if svc.Stats().CacheEntries == 0 {
		t.Fatal("cache not filled")
	}
	for i := 0; i < ds.Len(); i++ {
		if runSession(t, svc, ds, i, 5).Inserted {
			if got := svc.Stats().CacheEntries; got != 0 {
				t.Fatalf("an insert left %d cache entries, want 0", got)
			}
			return
		}
	}
	t.Fatal("no session produced an insert")
}
