package service

import (
	"errors"
	"sort"
	"sync"

	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/lru"
)

// SessionStats aggregates the session cache's counters for /stats. A hit
// means a request on a known log skipped parsing-independent analysis
// (indexing, DFG construction) and started with a warm distance memo.
type SessionStats struct {
	lru.Stats
	// IndexBytes is the summed estimated heap footprint the live sessions
	// pin: each session's columnar index (class arenas, attribute columns,
	// dictionaries, bitsets) plus, for sessions that have served an
	// infeasible solve, the lazily materialised log copy. Sessions release
	// their parsed *Log at construction, so this is the whole per-log
	// retention, not an addition to it.
	IndexBytes int64 `json:"indexBytes"`
	// MappedBytes is the summed size of file-backed index mappings pinned by
	// live sessions that were warm-opened from the disk tier. These pages are
	// not Go heap (the kernel reclaims them under pressure), which is why they
	// are reported separately from IndexBytes rather than folded in.
	MappedBytes int64 `json:"mappedBytes"`
}

// sessionEntry is one cached live session. The done channel coalesces
// concurrent first requests for the same log onto a single index build: the
// creator closes it after the build, latecomers block on it in getOrCreate.
// Only the creator writes session/err — under the cache mutex (drop reads
// session under the same mutex) and before closing done, so latecomers that
// return from the receive see a consistent pair.
type sessionEntry struct {
	done    chan struct{}
	session *core.Session
	err     error
}

// sessionCache is an LRU of live core.Sessions keyed by log digest. It sits
// *under* the result cache: a result hit never reaches it, a result miss on
// a known log reuses the session's frozen artifacts and warm distance memo.
// Eviction — by capacity or by drop — spills the entry's index to the warm
// tier.
type sessionCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *sessionEntry]
	// store, when non-nil, is the warm tier: evicted sessions spill their
	// index to disk, and misses try OpenIndex before re-parsing. Evicted
	// indexes are never explicitly Closed — in-flight jobs may still hold the
	// session — so mapped files are released by the finalizer once the last
	// reference drops.
	store *diskStore
}

func newSessionCache(capacity int, store *diskStore) *sessionCache {
	c := &sessionCache{store: store}
	c.lru = lru.New(capacity, c.spillLocked)
	return c
}

// getOrCreate returns the live session for the log digest, building and
// caching it on first use. Concurrent callers for the same new digest share
// one build. A build error is not cached: the entry is removed so the next
// request retries. The log arrives as a loader, not a value: when the
// session is live or its index warm-opens from the spill tier, the upload
// is never parsed at all (see the wire-digest memo).
func (c *sessionCache) getOrCreate(digest string, load func() (*eventlog.Log, error)) (*core.Session, error) {
	return c.getOrCreateFrom(digest, func() (*core.Session, error) {
		if c.store != nil {
			if x, ok := c.store.openIndex(digest); ok {
				if s, serr := core.NewSessionFromIndex(x); serr == nil {
					return s, nil
				}
				x.Close()
			}
		}
		log, err := load()
		if err != nil {
			return nil, err
		}
		return core.NewSession(log)
	})
}

// getOrCreateIndex is getOrCreate for callers that already hold a columnar
// index (the pipeline engine's possibly-filtered working views, keyed by
// their derivation chain): on a miss the session wraps the index directly —
// after trying a warm-open of a previously spilled copy — so filtered logs
// join the same LRU, spill tier, and coalescing as uploaded ones.
func (c *sessionCache) getOrCreateIndex(key string, x *eventlog.Index) (*core.Session, error) {
	return c.getOrCreateFrom(key, func() (*core.Session, error) {
		if c.store != nil {
			if fx, ok := c.store.openIndex(key); ok {
				if s, serr := core.NewSessionFromIndex(fx); serr == nil {
					return s, nil
				}
				fx.Close()
			}
		}
		return core.NewSessionFromIndex(x)
	})
}

// getOrCreateFrom returns the live session for the digest, building it via
// mk on first use. Concurrent callers for the same new digest share one
// build. A build error is not cached: the entry is removed so the next
// request retries.
func (c *sessionCache) getOrCreateFrom(digest string, mk func() (*core.Session, error)) (*core.Session, error) {
	c.mu.Lock()
	if e, ok := c.lru.Get(digest); ok {
		c.mu.Unlock()
		<-e.done // wait for an in-flight first build
		return e.session, e.err
	}
	e := &sessionEntry{done: make(chan struct{})}
	c.lru.Put(digest, e)
	c.mu.Unlock()

	return c.build(e, digest, mk)
}

// spillLocked is the LRU's eviction hook: it hands an evicted entry's index
// to the warm tier, so the next request for the log costs an OpenIndex
// instead of a re-parse. Called with c.mu held (session is published under
// it); the write itself runs on a store goroutine. Entries still building
// (session nil) have nothing to spill — their build survives eviction and
// publishes to latecomers, it is just not re-admitted.
func (c *sessionCache) spillLocked(digest string, e *sessionEntry) {
	if c.store != nil && e.session != nil {
		c.store.spillIndexAsync(digest, e.session.Index())
	}
}

// build constructs the session for a fresh entry via mk and publishes the
// outcome. The deferred publish runs even if mk panics (converting the
// panic into an error for latecomers before it propagates), so a caller
// that recovers — net/http handler recovery, say — cannot strand other
// goroutines blocked on the entry's done channel. A failed build is removed
// from the cache so the next request retries; the identity check guards
// against the entry having been evicted and replaced meanwhile.
//
// The mk closures passed by getOrCreate/getOrCreateIndex try the warm tier
// first: a previously spilled index is opened from disk (mmap, no parse, no
// build) and only the digest's first-ever build pays full price. A corrupt
// or unreadable file falls back to the cold path — openIndex already
// deleted it, so the fallback's eventual eviction re-spills a good copy.
func (c *sessionCache) build(e *sessionEntry, digest string, mk func() (*core.Session, error)) (sess *core.Session, err error) {
	defer func() {
		if sess == nil && err == nil {
			err = errors.New("service: session build panicked")
		}
		c.mu.Lock()
		e.session, e.err = sess, err
		if err != nil {
			if cur, ok := c.lru.Peek(digest); ok && cur == e {
				c.lru.Remove(digest)
			}
		}
		c.mu.Unlock()
		close(e.done)
	}()
	return mk()
}

// peek returns the digest's live session when one exists, bumping recency,
// without admitting an entry on miss — the streaming workload's regroup
// windows are almost always fresh digests, and inserting each would churn
// the /abstract workload's few, expensive entries out of the LRU. Neither a
// miss nor a hit disturbs the hit/miss counters' meaning: a peek hit is a
// genuine session reuse and is counted; a miss is not a failed admission
// and is not.
func (c *sessionCache) peek(digest string) (*core.Session, bool) {
	c.mu.Lock()
	if _, ok := c.lru.Peek(digest); !ok {
		c.mu.Unlock()
		return nil, false
	}
	e, _ := c.lru.Get(digest)
	c.mu.Unlock()
	<-e.done // wait for an in-flight first build
	if e.err != nil || e.session == nil {
		return nil, false
	}
	return e.session, true
}

// drop removes the digest's entry if it still holds the given session (a
// fresh session may already have replaced it), counting the removal as an
// eviction. Used to retire sessions whose memos outgrew the configured
// bound.
func (c *sessionCache) drop(digest string, sess *core.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// A retired session's index is unchanged (only its memo grew), so the
	// eviction hook's spill still warms the next rebuild.
	if e, ok := c.lru.Peek(digest); ok && e.session == sess {
		c.lru.Evict(digest)
	}
}

// spillAll writes every live session's index to the warm tier. Called on
// shutdown so a restarted process warm-opens its whole working set; spills
// of already-persisted digests are no-ops.
func (c *sessionCache) spillAll() {
	if c.store == nil {
		return
	}
	type live struct {
		digest string
		x      *eventlog.Index
	}
	var sessions []live
	c.mu.Lock()
	c.lru.Each(func(digest string, e *sessionEntry) {
		if e.session != nil {
			sessions = append(sessions, live{digest, e.session.Index()})
		}
	})
	c.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].digest < sessions[j].digest })
	for _, s := range sessions {
		c.store.spillIndex(s.digest, s.x)
	}
}

// Stats snapshots the session cache counters, including the estimated bytes
// pinned by live indexes. Entries still building (session published under
// this same mutex) contribute nothing until their build completes.
func (c *sessionCache) Stats() SessionStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := SessionStats{Stats: c.lru.Stats()}
	c.lru.Each(func(_ string, e *sessionEntry) {
		if e.session != nil {
			st.IndexBytes += e.session.EstimatedBytes()
			st.MappedBytes += e.session.MappedBytes()
		}
	})
	return st
}
