package service

import (
	"container/list"
	"sync"

	"repro/internal/core"
	"repro/internal/vec"
)

// predictionCache is a thread-safe LRU of Mopt predictions keyed by the
// engine's FNV query signature. Because a 64-bit hash can collide, every
// hit is confirmed by comparing the stored query point; a colliding key
// simply evicts the older entry on Put.
//
// Correctness against concurrent inserts is generational, per shard:
// every entry belongs to the bypass shard that predicted it, and each
// shard has its own generation counter. Readers capture Generation(shard)
// before predicting and Put is a no-op when that shard's generation
// moved, so an entry computed against a tree that has since changed can
// never land in the cache (see Service.predict). Invalidate(shard) drops
// only that shard's entries — an insert into shard k leaves every other
// shard's cached predictions valid, which is the whole point of the
// sharded bypass plane (an unsharded Bypass is simply the one-shard
// special case, where Invalidate(0) is the old drop-everything).
type predictionCache struct {
	mu    sync.Mutex
	cap   int
	gens  []uint64   // invalidation epoch per shard
	ll    *list.List // front = most recently used
	byKey map[uint64]*list.Element
}

type cacheEntry struct {
	shard int
	sig   uint64
	q     []float64
	oqp   core.OQP
}

func newPredictionCache(capacity, shards int) *predictionCache {
	if shards < 1 {
		shards = 1
	}
	return &predictionCache{
		cap:   capacity,
		gens:  make([]uint64, shards),
		ll:    list.New(),
		byKey: make(map[uint64]*list.Element, capacity),
	}
}

// Generation returns the invalidation epoch a subsequent Put for the
// shard must present.
func (c *predictionCache) Generation(shard int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[shard]
}

// Generations snapshots every shard's invalidation epoch (for stats).
func (c *predictionCache) Generations() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]uint64, len(c.gens))
	copy(out, c.gens)
	return out
}

// Get returns a deep copy of the cached prediction for (sig, q), if any.
func (c *predictionCache) Get(sig uint64, q []float64) (core.OQP, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[sig]
	if !ok {
		return core.OQP{}, false
	}
	ent := e.Value.(*cacheEntry)
	if !vec.Equal(ent.q, q) {
		// Signature collision between distinct points: treat as a miss.
		return core.OQP{}, false
	}
	c.ll.MoveToFront(e)
	return core.OQP{Delta: vec.Clone(ent.oqp.Delta), Weights: vec.Clone(ent.oqp.Weights)}, true
}

// Put stores a prediction computed by the given shard at generation gen;
// it is discarded when that shard was invalidated in between.
func (c *predictionCache) Put(shard int, gen, sig uint64, q []float64, oqp core.OQP) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gens[shard] {
		return
	}
	if e, ok := c.byKey[sig]; ok {
		// Same key: refresh (same point) or replace (collision) in place.
		e.Value = &cacheEntry{shard: shard, sig: sig, q: vec.Clone(q), oqp: cloneOQP(oqp)}
		c.ll.MoveToFront(e)
		return
	}
	c.byKey[sig] = c.ll.PushFront(&cacheEntry{shard: shard, sig: sig, q: vec.Clone(q), oqp: cloneOQP(oqp)})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).sig)
	}
}

// Invalidate drops the shard's entries and bumps its generation so
// in-flight Puts computed against the shard's old tree are discarded.
// Entries belonging to other shards survive untouched. The walk is
// O(entries), bounded by the cache capacity and paid only on inserts that
// changed a tree — the rare path by design.
func (c *predictionCache) Invalidate(shard int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[shard]++
	var next *list.Element
	for e := c.ll.Front(); e != nil; e = next {
		next = e.Next()
		ent := e.Value.(*cacheEntry)
		if ent.shard == shard {
			c.ll.Remove(e)
			delete(c.byKey, ent.sig)
		}
	}
}

// Len reports the number of cached predictions.
func (c *predictionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

func cloneOQP(oqp core.OQP) core.OQP {
	return core.OQP{Delta: vec.Clone(oqp.Delta), Weights: vec.Clone(oqp.Weights)}
}
