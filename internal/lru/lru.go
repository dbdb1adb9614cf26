// Package lru is the one least-recently-used cache the serving layer builds
// its caches on: results, wire digests, pipeline stage states, live
// sessions and named streams. A Cache is not safe for concurrent use; each
// owner guards it with its own mutex, so compound steps (get-or-build,
// evict-and-spill, drop-if-same) stay atomic under that one lock.
package lru

import "container/list"

// Stats is a cache's accounting snapshot, as reported under /stats.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Cache maps keys to values, evicting the least recently used entry once it
// holds more than its capacity. A capacity <= 0 stores nothing.
type Cache[K comparable, V any] struct {
	capacity int
	items    map[K]*list.Element
	order    *list.List // front = most recently used
	onEvict  func(K, V)
	st       Stats
}

// New returns an empty cache. onEvict, when non-nil, is called with each
// entry that capacity pressure or Evict removes (not with entries removed
// by Remove or Clear), while the owner still holds its lock.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		items:    make(map[K]*list.Element),
		order:    list.New(),
		onEvict:  onEvict,
	}
}

// Get returns the key's value, marking it most recently used and counting
// a hit or a miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		c.st.Misses++
		var zero V
		return zero, false
	}
	c.st.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Peek returns the key's value without touching recency or counters.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or refreshes the key as most recently used, evicting the
// least recently used entries beyond capacity.
func (c *Cache[K, V]) Put(key K, val V) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for c.order.Len() > c.capacity {
		c.evict(c.order.Back())
	}
}

// Evict removes the key as if capacity pressure had: it counts an eviction
// and calls the eviction hook. It reports whether the key was present.
func (c *Cache[K, V]) Evict(key K) bool {
	el, ok := c.items[key]
	if ok {
		c.evict(el)
	}
	return ok
}

func (c *Cache[K, V]) evict(el *list.Element) {
	e := c.remove(el)
	c.st.Evictions++
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}

// Remove deletes the key without counting an eviction or calling the hook.
func (c *Cache[K, V]) Remove(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		return c.remove(el).val, true
	}
	var zero V
	return zero, false
}

func (c *Cache[K, V]) remove(el *list.Element) *entry[K, V] {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.items, e.key)
	return e
}

// Clear drops every entry without counting evictions or calling the hook.
func (c *Cache[K, V]) Clear() {
	clear(c.items)
	c.order.Init()
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return c.order.Len() }

// Each calls fn on every entry, most recently used first. fn must not
// modify the cache.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		fn(e.key, e.val)
	}
}

// Stats snapshots the counters and occupancy.
func (c *Cache[K, V]) Stats() Stats {
	st := c.st
	st.Entries = c.order.Len()
	st.Capacity = max(c.capacity, 0)
	return st
}
