package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestCacheEvictionOrderUnderPressure fills a cache far past
// capacity and checks that exactly the least-recently-used entries fall out
// at every step: survivors are the most recent `capacity` touched keys, in
// recency order.
func TestCacheEvictionOrderUnderPressure(t *testing.T) {
	const capacity = 4
	c := NewCache(capacity)
	touch := func(key string) {
		if _, ok := c.Get(key); !ok {
			c.Put(key, &JobResult{})
		}
	}
	// Twelve touches, with re-touches mixed in so recency differs from
	// insertion order.
	sequence := []string{"a", "b", "c", "d", "a", "e", "f", "b", "g", "h", "e", "i"}
	for _, k := range sequence {
		touch(k)
	}
	// Recency after the sequence (most recent first): i, e, h, g — then b
	// was evicted by h's insertion, etc.
	wantLive := []string{"i", "e", "h", "g"}
	wantDead := []string{"a", "b", "c", "d", "f"}
	for _, k := range wantDead {
		if _, ok := c.getQuiet(k); ok {
			t.Errorf("key %q should have been evicted", k)
		}
	}
	for _, k := range wantLive {
		if _, ok := c.getQuiet(k); !ok {
			t.Errorf("key %q should have survived", k)
		}
	}
	st := c.Stats()
	if st.Entries != capacity {
		t.Fatalf("entries = %d, want %d", st.Entries, capacity)
	}
	// 11 inserts (b and e re-enter after being evicted) into 4 slots.
	if st.Evictions != 7 {
		t.Fatalf("evictions = %d, want 7", st.Evictions)
	}
}

// TestCacheConcurrentGetPut hammers the cache from many goroutines (run
// under -race via `make race`). Beyond the absence of data races, it checks
// the invariants the service relies on: a Get never returns a value the key
// was not Put under, and the entry count never exceeds capacity.
func TestCacheConcurrentGetPut(t *testing.T) {
	const (
		capacity   = 64
		goroutines = 8
		opsEach    = 2000
		keySpace   = 200 // > capacity, so eviction churns continuously
	)
	c := NewCache(capacity)
	results := make([]*JobResult, keySpace)
	for i := range results {
		results[i] = &JobResult{Distance: float64(i)}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				k := rng.Intn(keySpace)
				key := fmt.Sprintf("key-%d", k)
				if rng.Intn(2) == 0 {
					c.Put(key, results[k])
				} else if v, ok := c.Get(key); ok && v != results[k] {
					t.Errorf("Get(%s) returned a foreign value", key)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > capacity {
		t.Fatalf("entries = %d exceeds capacity %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
}
