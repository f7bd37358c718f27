package service

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/imagegen"
	"repro/internal/shardedbypass"
)

func oqpFor(x float64, n int) core.OQP {
	oqp := core.OQP{Delta: make([]float64, n), Weights: make([]float64, n)}
	for i := range oqp.Delta {
		oqp.Delta[i] = x
	}
	return oqp
}

// TestCachePerShardInvalidation is the regression test for the
// all-or-nothing invalidation the sharded plane removed: entries cached
// for untouched shards must survive an Invalidate of another shard, and
// only the invalidated shard's generation may move.
func TestCachePerShardInvalidation(t *testing.T) {
	const shards = 4
	c := newPredictionCache(16, shards)
	qs := make([][]float64, shards)
	sigs := make([]uint64, shards)
	for sh := 0; sh < shards; sh++ {
		qs[sh] = []float64{float64(sh) * 0.1, 0.2, 0.3}
		sigs[sh] = engine.QuerySignature(qs[sh])
		c.Put(sh, c.Generation(sh), sigs[sh], qs[sh], oqpFor(float64(sh), 3))
	}
	if c.Len() != shards {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), shards)
	}

	c.Invalidate(1)

	if c.Len() != shards-1 {
		t.Fatalf("after Invalidate(1): %d entries, want %d", c.Len(), shards-1)
	}
	for sh := 0; sh < shards; sh++ {
		oqp, ok := c.Get(sigs[sh], qs[sh])
		if sh == 1 {
			if ok {
				t.Error("invalidated shard 1 still serves its entry")
			}
			continue
		}
		if !ok {
			t.Errorf("shard %d entry dropped by an insert into shard 1", sh)
			continue
		}
		if oqp.Delta[0] != float64(sh) {
			t.Errorf("shard %d entry corrupted: %v", sh, oqp.Delta)
		}
	}
	gens := c.Generations()
	for sh, g := range gens {
		want := uint64(0)
		if sh == 1 {
			want = 1
		}
		if g != want {
			t.Errorf("shard %d generation %d, want %d", sh, g, want)
		}
	}

	// A Put computed against the pre-invalidation generation is discarded;
	// one at the current generation lands.
	c.Put(1, 0, sigs[1], qs[1], oqpFor(1, 3))
	if _, ok := c.Get(sigs[1], qs[1]); ok {
		t.Error("stale-generation Put landed in the cache")
	}
	c.Put(1, c.Generation(1), sigs[1], qs[1], oqpFor(1, 3))
	if _, ok := c.Get(sigs[1], qs[1]); !ok {
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
	c := newPredictionCache(cap, 1)
	for i := 0; i < 5*cap; i++ {
		q, sig := cachePoint(i)
		c.Put(0, c.Generation(0), sig, q, oqpFor(float64(i), 3))
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
	c := newPredictionCache(cap, 1)
	qs := make([][]float64, 6)
	sigs := make([]uint64, 6)
	for i := 0; i < 6; i++ {
		qs[i], sigs[i] = cachePoint(i)
	}
	for i := 0; i < cap; i++ { // cache: [3 2 1 0] (front = MRU)
		c.Put(0, c.Generation(0), sigs[i], qs[i], oqpFor(float64(i), 3))
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
	c.Put(0, c.Generation(0), sigs[4], qs[4], oqpFor(4, 3))
	if _, ok := c.Get(sigs[2], qs[2]); ok {
		t.Error("LRU entry 2 survived the first overflow")
	}
	c.Put(0, c.Generation(0), sigs[5], qs[5], oqpFor(5, 3))
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
	c := newPredictionCache(4, 1)
	q0, sig0 := cachePoint(0)
	c.Put(0, c.Generation(0), sig0, q0, oqpFor(1, 3))
	c.Put(0, c.Generation(0), sig0, q0, oqpFor(2, 3))
	if c.Len() != 1 {
		t.Fatalf("refresh grew the cache to %d entries", c.Len())
	}
	if oqp, ok := c.Get(sig0, q0); !ok || oqp.Delta[0] != 2 {
		t.Fatalf("refresh did not replace the value: %v %v", oqp, ok)
	}
	// Same signature, different point (a forced collision): the entry is
	// replaced, and the old point no longer hits.
	q1, _ := cachePoint(1)
	c.Put(0, c.Generation(0), sig0, q1, oqpFor(3, 3))
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

// newShardedTestService is newTestService over a partitioned in-memory
// bypass.
func newShardedTestService(t *testing.T, shards int, opts Options) (*Service, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Build(imagegen.IMSILike(7, 0.03), histogram.DefaultExtractor)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(ds, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	codec, err := core.NewHistogramCodec(ds.Dim)
	if err != nil {
		t.Fatal(err)
	}
	byp, err := shardedbypass.New(codec.D(), codec.P(), core.Config{
		Epsilon:        0.05,
		DefaultWeights: codec.DefaultWeights(),
	}, shardedbypass.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(eng, byp, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc, ds
}

// TestShardedServiceScopedInvalidation drives the whole serving stack
// over a 4-shard bypass: predictions for many items fill the cache, one
// session's insert lands in one shard, and every cached entry belonging
// to the other shards must still be served as a cache hit afterwards.
func TestShardedServiceScopedInvalidation(t *testing.T) {
	const shards = 4
	svc, ds := newShardedTestService(t, shards, Options{DefaultK: 5})
	if svc.module == nil || svc.shards != shards {
		t.Fatalf("service did not detect the sharded module")
	}
	parts := svc.byp.(*shardedbypass.Sharded)

	// Fill the cache: open+close (no feedback → no insert) across items
	// covering at least two shards.
	codec := svc.codec
	items := []int{}
	shardsSeen := map[int]bool{}
	for i := 0; i < ds.Len() && len(items) < 12; i++ {
		qp, err := codec.QueryPoint(ds.Items[i].Feature)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, i)
		shardsSeen[parts.ShardOf(qp)] = true
	}
	if len(shardsSeen) < 2 {
		t.Skip("collection sample maps to one shard; partition degeneracy")
	}
	for _, i := range items {
		st, err := svc.Open(context.Background(), ds.Items[i].Feature, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Close(context.Background(), st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().CacheEntries; got == 0 {
		t.Fatal("cache not filled")
	}

	// Run one full feedback session until an insert changes some shard.
	insertedShard := -1
	for _, i := range items {
		res := runSession(t, svc, ds, i, 5)
		if res.Inserted {
			qp, err := codec.QueryPoint(ds.Items[i].Feature)
			if err != nil {
				t.Fatal(err)
			}
			insertedShard = parts.ShardOf(qp)
			break
		}
	}
	if insertedShard < 0 {
		t.Fatal("no session produced an insert")
	}

	// Every item cached for a different shard must still hit.
	st := svc.Stats()
	gens := st.Shards
	if len(gens) != shards {
		t.Fatalf("stats report %d shards, want %d", len(gens), shards)
	}
	for sh, g := range gens {
		if sh == insertedShard {
			if g.CacheGen == 0 {
				t.Errorf("inserted shard %d generation did not move", sh)
			}
			continue
		}
		if g.CacheGen != 0 {
			t.Errorf("untouched shard %d generation moved to %d", sh, g.CacheGen)
		}
	}
	for _, i := range items {
		qp, err := codec.QueryPoint(ds.Items[i].Feature)
		if err != nil {
			t.Fatal(err)
		}
		if parts.ShardOf(qp) == insertedShard {
			continue
		}
		before := svc.Stats().CacheHits
		stOpen, err := svc.Open(context.Background(), ds.Items[i].Feature, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !stOpen.CacheHit {
			t.Errorf("item %d (shard %d): cache entry lost to an insert into shard %d",
				i, parts.ShardOf(qp), insertedShard)
		}
		if svc.Stats().CacheHits != before+1 && stOpen.CacheHit {
			t.Errorf("cache-hit counter inconsistent")
		}
		if _, err := svc.Close(context.Background(), stOpen.ID); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnshardedSingleShardCache pins the compatibility mode at the
// service layer: an unsharded Bypass behaves as one shard whose
// invalidation drops everything (the pre-sharding semantics).
func TestUnshardedSingleShardCache(t *testing.T) {
	svc, ds := newTestService(t, Options{DefaultK: 5})
	if svc.module != nil || svc.shards != 1 {
		t.Fatal("plain core.Bypass detected as a sharded module")
	}
	// One healthy, non-compactable shard.
	if err := svc.Degraded(); err != nil {
		t.Errorf("plain Bypass reports degraded: %v", err)
	}
	if _, err := svc.CompactAged(context.Background()); !errors.Is(err, ErrNotCompactable) {
		t.Errorf("CompactAged over a plain Bypass: %v, want ErrNotCompactable", err)
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
	// Find a session that inserts; afterwards the whole cache is empty.
	for i := 0; i < ds.Len(); i++ {
		if runSession(t, svc, ds, i, 5).Inserted {
			if got := svc.Stats().CacheEntries; got != 0 {
				t.Fatalf("unsharded insert left %d cache entries, want 0", got)
			}
			if len(svc.Stats().Shards) != 0 {
				t.Error("unsharded stats report per-shard counters")
			}
			return
		}
	}
	t.Fatal("no session produced an insert")
}
