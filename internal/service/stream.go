package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/lru"
	"gecco/internal/stream"
)

// StreamStats aggregates the streaming workload's counters for /stats.
// Regroupings counts pipeline runs triggered by stream windows (cache hits
// included); Traces counts arrivals pushed across all streams, live and
// retired.
type StreamStats struct {
	Live        int   `json:"live"`
	Capacity    int   `json:"capacity"`
	Created     int64 `json:"created"`
	Closed      int64 `json:"closed"`
	Evicted     int64 `json:"evicted"`
	Traces      int64 `json:"traces"`
	Regroupings int64 `json:"regroupings"`
	Drifts      int64 `json:"drifts"`
}

// streamTotals is the manager-wide work accounting, fed delta-per-push by
// every live stream. Totals accumulate at push time rather than at stream
// retirement, so arrivals on a stream that was evicted or closed while a
// request still held it are counted too.
type streamTotals struct {
	traces      atomic.Int64
	regroupings atomic.Int64
	drifts      atomic.Int64
}

// liveStream is one named (or anonymous) online abstractor with its
// serialisation lock: the stream.Abstractor is not concurrency-safe, so
// every push and snapshot holds mu. pushes is atomic so /stats and
// snapshots never contend with a long regroup.
type liveStream struct {
	mu   sync.Mutex
	name string
	// constraints echoes the creation-time constraint text; stream
	// parameters are pinned at creation and later appends cannot change
	// them.
	constraints string
	abst        *stream.Abstractor
	created     time.Time
	totals      *streamTotals

	pushes atomic.Int64
}

// push serialises one arrival through the abstractor and folds the
// arrival's deltas into the manager totals; regrouped reports whether this
// arrival triggered a pipeline run.
func (st *liveStream) push(ctx context.Context, tr eventlog.Trace) (out eventlog.Trace, regrouped bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	beforeRegroups, beforeDrifts := st.abst.Regroupings, st.abst.Drifts
	out, err = st.abst.PushContext(ctx, tr)
	st.pushes.Add(1)
	st.totals.traces.Add(1)
	st.totals.regroupings.Add(int64(st.abst.Regroupings - beforeRegroups))
	st.totals.drifts.Add(int64(st.abst.Drifts - beforeDrifts))
	return out, st.abst.Regroupings > beforeRegroups, err
}

// StreamSnapshot is the state view returned by GET /stream/{name} and the
// close endpoint.
type StreamSnapshot struct {
	Stream      string  `json:"stream,omitempty"`
	Constraints string  `json:"constraints"`
	WindowLen   int     `json:"windowLen"`
	Traces      int64   `json:"traces"`
	Regroupings int64   `json:"regroupings"`
	Drifts      int64   `json:"drifts"`
	DriftScore  float64 `json:"driftScore"`
	// GroupingOK is false before the first feasible regrouping (arrivals
	// pass through unabstracted until one succeeds).
	GroupingOK    bool       `json:"groupingOk"`
	GroupClasses  [][]string `json:"groupClasses,omitempty"`
	ActivityNames []string   `json:"activityNames,omitempty"`
	Created       time.Time  `json:"created"`
}

func (st *liveStream) snapshot() StreamSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	grouping := st.abst.Grouping()
	return StreamSnapshot{
		Stream:        st.name,
		Constraints:   st.constraints,
		WindowLen:     st.abst.WindowLen(),
		Traces:        st.pushes.Load(),
		Regroupings:   int64(st.abst.Regroupings),
		Drifts:        int64(st.abst.Drifts),
		DriftScore:    st.abst.DriftScore(),
		GroupingOK:    grouping != nil,
		GroupClasses:  grouping,
		ActivityNames: st.abst.ActivityNames(),
		Created:       st.created,
	}
}

// streamManager holds the named per-stream abstractor states in a bounded
// LRU beside the session cache. Creating a stream beyond capacity evicts
// the least recently used one (its state is dropped; a later request under
// the same name starts a fresh stream). Anonymous streams (empty name) are
// never registered: they live for one request and are retired when it
// ends.
type streamManager struct {
	mu     sync.Mutex
	lru    *lru.Cache[string, *liveStream]
	closed bool

	created int64
	closedN int64
	// totals accumulate per push across every stream this manager ever
	// served (live, evicted, or closed — work done on a stream evicted
	// mid-request still counts), so /stats totals are monotonic.
	totals streamTotals
}

func newStreamManager(capacity int) *streamManager {
	return &streamManager{lru: lru.New[string, *liveStream](capacity, nil)}
}

// ensure returns the named live stream, creating it with build() when
// absent (evicting the LRU victim beyond capacity). An empty name builds
// an unregistered one-request stream. build runs under the manager lock;
// it only parses parameters, never the log.
func (m *streamManager) ensure(name string, build func() (*liveStream, error)) (st *liveStream, createdNew bool, err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrClosed
	}
	if name != "" {
		if st, ok := m.lru.Get(name); ok {
			m.mu.Unlock()
			return st, false, nil
		}
	}
	st, err = build()
	if err != nil {
		m.mu.Unlock()
		return nil, false, err
	}
	st.totals = &m.totals
	m.created++
	if name != "" {
		m.lru.Put(name, st)
	}
	m.mu.Unlock()
	return st, true, nil
}

// get returns a registered stream without creating, bumping its recency.
func (m *streamManager) get(name string) (*liveStream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Get(name)
}

// close removes a registered stream; its state is dropped.
func (m *streamManager) close(name string) (*liveStream, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.lru.Remove(name)
	if ok {
		m.closedN++
	}
	return st, ok
}

// retireAnonymous counts a one-request stream's end as a close.
func (m *streamManager) retireAnonymous(*liveStream) {
	m.mu.Lock()
	m.closedN++
	m.mu.Unlock()
}

// closeAll drains the manager on service shutdown: all live streams are
// dropped and new /stream requests are rejected with ErrClosed.
func (m *streamManager) closeAll() {
	m.mu.Lock()
	m.closed = true
	m.closedN += int64(m.lru.Len())
	m.lru.Clear()
	m.mu.Unlock()
}

// Stats snapshots the streaming counters.
func (m *streamManager) Stats() StreamStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.lru.Stats()
	return StreamStats{
		Live:        ls.Entries,
		Capacity:    ls.Capacity,
		Created:     m.created,
		Closed:      m.closedN,
		Evicted:     ls.Evictions,
		Traces:      m.totals.traces.Load(),
		Regroupings: m.totals.regroupings.Load(),
		Drifts:      m.totals.drifts.Load(),
	}
}

// streamPipeline is the PipelineFunc stream regroupings run under: it
// shares the service's machinery instead of paying for a private pipeline —
// the result cache short-circuits a window already solved under the same
// constraints and config (replayed or duplicated streams), a live session
// for the same window content is reused when one exists (without inserting
// stream windows into the session LRU, which would thrash the /abstract
// workload's entries), the run occupies one of the service's bounded
// concurrency slots, and service shutdown cancels it mid-frontier.
func (s *Service) streamPipeline(ctx context.Context, window *eventlog.Log, set *constraints.Set, cfg core.Config) (*core.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	if cfg.Workers == 0 && s.opts.DefaultWorkers > 0 {
		cfg.Workers = s.opts.DefaultWorkers
	}
	req := Request{Log: window, Constraints: set, Config: cfg}
	key := ""
	if Cacheable(cfg) {
		key = requestKey(req.logDigest(), set, cfg)
		if res, ok := s.cache.Get(key); ok {
			return res, nil
		}
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("service: stream regroup: %w", ctx.Err())
	}
	defer func() { <-s.sem }()

	var (
		res *JobResult
		err error
	)
	if sess, ok := s.peekSession(req.logDigest()); ok {
		res, err = sess.Solve(ctx, set, cfg)
	} else {
		res, err = core.Run(ctx, window, set, cfg)
	}
	if err == nil && key != "" {
		s.cache.Put(key, res)
	}
	return res, err
}

// peekSession returns a live session for the digest when one exists,
// without admitting a new entry on miss.
func (s *Service) peekSession(digest string) (*core.Session, bool) {
	if s.sessions == nil {
		return nil, false
	}
	return s.sessions.peek(digest)
}
