// Wire-digest memo: the canonical LogDigest is format-independent (XES and
// CSV uploads of the same events collide, as they should), so it can only
// be computed from a *parsed* log — which makes parsing the price of every
// request, even one served entirely from the result cache. The memo closes
// that gap for the common case: it maps the SHA-256 of an upload's raw wire
// bytes to the canonical digest learned the first time those bytes were
// parsed. A byte-identical re-upload then knows its digest immediately, so
// cache hits skip the parse — and with a warm tier, a spilled session can
// be re-opened from its .gidx without the server ever re-reading the XES.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"gecco/internal/lru"
)

// wireMemoCapacity bounds the memo. Entries are two hex digests (~130
// bytes), so this covers any realistic hot set for a few tens of KiB.
const wireMemoCapacity = 1024

type wireMemo struct {
	mu  sync.Mutex
	lru *lru.Cache[string, string] // raw upload hash -> log digest
}

func newWireMemo() *wireMemo {
	return &wireMemo{lru: lru.New[string, string](wireMemoCapacity, nil)}
}

// wireKey hashes an upload's raw bytes together with its wire format: the
// same text parses differently as XES vs CSV, so the two must not share a
// memo entry.
func wireKey(format, text string) string {
	h := sha256.New()
	writeStr(h, format)
	writeStr(h, text)
	return hex.EncodeToString(h.Sum(nil))
}

func (m *wireMemo) get(raw string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Get(raw)
}

func (m *wireMemo) put(raw, digest string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lru.Put(raw, digest)
}
