// Wire-digest memo: the canonical LogDigest is format-independent (XES and
// CSV uploads of the same events collide, as they should), so it can only
// be computed from a *parsed* log — which makes parsing the price of every
// request, even one served entirely from a cache. The memo maps the SHA-256
// of an upload's raw bytes to the digest learned when they were first
// parsed, for /abstract and /pipeline alike (decodeUpload). A byte-identical
// re-upload to either endpoint knows its digest at once, so result-cache
// hits and fully cached pipeline re-runs skip the parse — and with a warm
// tier, a spilled session re-opens from its .gidx without re-reading the XES.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"gecco/internal/csvlog"
	"gecco/internal/eventlog"
	"gecco/internal/lru"
	"gecco/internal/xes"
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

// decodeUpload is the one upload decoder behind /abstract and /pipeline: it
// sniffs the format ('<' means XES), builds the parse-once loader and looks
// the bytes up in the memo. A hit stays unparsed (it cannot fail to parse:
// parsing is deterministic). A miss parses now, so a malformed upload is a
// 400, and memoises only a non-empty log, so an empty one fails every time.
func (s *Service) decodeUpload(format, text string) (upload, string, error) {
	f := strings.ToLower(format)
	if f == "" {
		if strings.HasPrefix(strings.TrimSpace(text), "<") {
			f = "xes"
		} else {
			f = "csv"
		}
	}
	if f != "xes" && f != "csv" {
		return upload{}, "", fmt.Errorf("unknown format %q (want xes or csv)", format)
	}
	// One loader shared by every copy of the request (a batch's per-set
	// copies): whichever needs the events first pays the parse.
	var (
		parseOnce sync.Once
		parsed    *eventlog.Log
		parseErr  error
	)
	up := upload{loadLog: func() (*eventlog.Log, error) {
		//lint:gecco-allow(oncesafe): a fresh Once per upload is the point — every copy of this one request shares the closure (and so this Once); single-flight across requests is the wire memo's job, not this loader's
		parseOnce.Do(func() {
			if f == "xes" {
				parsed, parseErr = xes.Read(strings.NewReader(text))
			} else {
				parsed, parseErr = csvlog.Read(strings.NewReader(text), csvlog.Options{})
			}
			if parseErr != nil {
				parseErr = fmt.Errorf("parsing %s log: %w", f, parseErr)
			}
		})
		return parsed, parseErr
	}}
	wk := wireKey(f, text)
	if d, ok := s.wire.get(wk); ok {
		up.digest = d
		return up, f, nil
	}
	if _, err := up.log(); err != nil {
		return upload{}, "", err
	}
	if len(up.Log.Traces) > 0 {
		s.wire.put(wk, up.logDigest())
	}
	return up, f, nil
}
