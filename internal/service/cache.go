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
// Correctness against concurrent inserts is generational: readers
// capture Generation before predicting and Put is a no-op when the
// generation moved, so an entry computed against a tree that has since
// changed can never land in the cache (see Service.predict).
// Invalidate drops every entry and bumps the generation.
type predictionCache struct {
	mu    sync.Mutex
	cap   int
	gen   uint64     // invalidation epoch
	ll    *list.List // front = most recently used
	byKey map[uint64]*list.Element
}

type cacheEntry struct {
	sig uint64
	q   []float64
	oqp core.OQP
}

func newPredictionCache(capacity int) *predictionCache {
	return &predictionCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[uint64]*list.Element, capacity),
	}
}

// Generation returns the invalidation epoch a subsequent Put must
// present.
func (c *predictionCache) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
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

// Put stores a prediction computed at generation gen; it is discarded
// when the cache was invalidated in between.
func (c *predictionCache) Put(gen, sig uint64, q []float64, oqp core.OQP) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return
	}
	if e, ok := c.byKey[sig]; ok {
		// Same key: refresh (same point) or replace (collision) in place.
		e.Value = &cacheEntry{sig: sig, q: vec.Clone(q), oqp: cloneOQP(oqp)}
		c.ll.MoveToFront(e)
		return
	}
	c.byKey[sig] = c.ll.PushFront(&cacheEntry{sig: sig, q: vec.Clone(q), oqp: cloneOQP(oqp)})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).sig)
	}
}

// Invalidate drops every entry and bumps the generation so in-flight
// Puts computed against the old tree are discarded. It is paid only on
// inserts that changed the tree — the rare path by design.
func (c *predictionCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.ll.Init()
	clear(c.byKey)
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
