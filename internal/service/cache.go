package service

import (
	"sync"

	"gecco/internal/lru"
)

// Cache is the result LRU keyed by request digest (log digest + canonical
// constraint set + canonical config; see requestKey). One mutex guards one
// exact LRU: each lookup is a map probe, far below the rate at which a
// single lock would contend.
type Cache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *JobResult]
}

// NewCache builds a cache holding up to capacity results; capacity <= 0
// disables caching (every Get misses).
func NewCache(capacity int) *Cache {
	return &Cache{lru: lru.New[string, *JobResult](capacity, nil)}
}

// Get returns the cached result for the key, bumping its recency.
func (c *Cache) Get(key string) (*JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Get(key)
}

// getQuiet is Get without touching the hit/miss counters or recency, for
// the service's under-lock recheck: the same logical request already
// counted its miss on the lock-free first lookup.
func (c *Cache) getQuiet(key string) (*JobResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Peek(key)
}

// Put inserts or refreshes a result, evicting the least recently used entry
// when the cache is full.
func (c *Cache) Put(key string, v *JobResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, v)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() lru.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Stats()
}
