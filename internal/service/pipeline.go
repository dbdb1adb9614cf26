// Pipeline serving: RunPipeline executes a staged abstract→discover→conform
// run (internal/pipeline) through the service's concurrency slots, layered
// on three caches — the per-stage state LRU here (keyed by chain keys, so a
// re-run with a changed tail stage adopts every unchanged upstream state),
// the shared result cache + disk tier for the abstract stage, and the
// session LRU for solver state on the (possibly filtered) working log.
package service

import (
	"context"
	"fmt"
	"sync"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/lru"
	"gecco/internal/pipeline"
)

// PipelineRequest is one staged run: a raw log, optional user constraints,
// and a stage list (empty = the default suggest→abstract→discover→conform).
type PipelineRequest struct {
	Log         *eventlog.Log
	Constraints *constraints.Set // nil or empty lets a suggest stage supply them
	Stages      []pipeline.StageSpec
}

// PipelineOutcome reports a finished run.
type PipelineOutcome struct {
	Stages []pipeline.StageResult
	State  *pipeline.State
}

// RunPipeline executes the request's stages synchronously under a
// concurrency slot (the same pool abstraction jobs run in). Cancelling ctx
// stops the run at the next stage boundary or solver sampling point;
// service shutdown cancels it too.
func (s *Service) RunPipeline(ctx context.Context, req PipelineRequest) (*PipelineOutcome, error) {
	if req.Log == nil || len(req.Log.Traces) == 0 {
		return nil, fmt.Errorf("%w: empty log", ErrInvalidRequest)
	}
	stages, err := pipeline.BuildStages(req.Stages)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	set := req.Constraints
	if set == nil {
		set = constraints.NewSet()
	}
	digest := LogDigest(req.Log)
	base := &pipeline.State{IndexKey: digest}
	if set.Len() > 0 {
		base.Constraints = set
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.active.Add(1)
	s.mu.Unlock()
	defer s.active.Done()

	// Tie the run to both the caller and the service lifetime.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	select {
	case s.sem <- struct{}{}:
	case <-runCtx.Done():
		return nil, fmt.Errorf("service: %w", runCtx.Err())
	}
	defer func() { <-s.sem }()

	// The working index: reuse a live session's frozen index when the log
	// is already known, otherwise intern the upload once.
	if s.sessions != nil {
		if sess, ok := s.sessions.peek(digest); ok {
			base.Index = sess.Index()
		}
	}
	if base.Index == nil {
		base.Index = eventlog.NewIndex(req.Log)
	}

	// Fail fast on an unsatisfiable stage list before burning a slot on
	// partial work; Run re-validates, but this keeps the error a 400.
	if err := pipeline.Validate(stages, base); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}

	env, flush := s.pipelineEnv()
	baseKey := pipeline.BaseKey(digest, canonicalConstraints(set))
	out, err := pipeline.Run(runCtx, stages, base, baseKey, env)
	flush()
	if err != nil {
		return nil, err
	}
	s.pipelineRuns.Add(1)
	return &PipelineOutcome{Stages: out.Stages, State: out.State}, nil
}

// pipelineEnv assembles the engine hooks over the service's caches. The
// returned flush applies the session memo-growth bound to every session the
// run acquired (mirroring solve()'s retirement of overgrown sessions).
func (s *Service) pipelineEnv() (*pipeline.Env, func()) {
	env := &pipeline.Env{}
	if s.pipe != nil {
		env.Cache = s.pipe
	}
	env.LookupAbstract = func(indexKey string, set *constraints.Set, cfg core.Config) (*core.Result, bool) {
		if !Cacheable(cfg) {
			return nil, false
		}
		return s.cache.Get(requestKey(indexKey, set, cfg))
	}
	env.StoreAbstract = func(indexKey string, set *constraints.Set, cfg core.Config, res *core.Result) {
		if !Cacheable(cfg) {
			return
		}
		key := requestKey(indexKey, set, cfg)
		s.cache.Put(key, res)
		if s.store != nil {
			s.store.saveResultAsync(key, res)
		}
	}
	type held struct {
		key  string
		sess *core.Session
	}
	var acquired []held
	if s.sessions != nil {
		env.AcquireSession = func(ctx context.Context, key string, x *eventlog.Index) (*core.Session, error) {
			sess, err := s.sessions.getOrCreateIndex(key, x)
			if err == nil {
				acquired = append(acquired, held{key, sess})
			}
			return sess, err
		}
	}
	flush := func() {
		for _, h := range acquired {
			if h.sess.MemoSize() > s.opts.SessionMemoLimit {
				s.sessions.drop(h.key, h.sess)
			}
		}
	}
	return env, flush
}

// StageCounters is one stage kind's cache accounting.
type StageCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// PipelineStats is the /stats "pipeline" payload: per-stage cache hit/miss
// counters plus the state LRU's occupancy, so cache effectiveness is
// observable without log spelunking.
type PipelineStats struct {
	// Runs counts completed pipeline runs.
	Runs int64 `json:"runs"`
	// Entries/Capacity/Evictions describe the per-stage state LRU.
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
	// Stages maps stage name → hit/miss counters. A hit means the stage
	// (and, by key chaining, its whole upstream prefix) was served from
	// cache without executing.
	Stages map[string]StageCounters `json:"stages,omitempty"`
}

// stageCache is the per-stage state LRU backing pipeline.StageCache. One
// flat LRU holds every stage kind's states (an abstract state is worth far
// more than a conform state, but both are bounded by the same churn), with
// hit/miss counters kept per stage name for /stats.
type stageCache struct {
	mu       sync.Mutex
	lru      *lru.Cache[string, *pipeline.State]
	counters map[string]*StageCounters
}

func newStageCache(capacity int) *stageCache {
	return &stageCache{
		lru:      lru.New[string, *pipeline.State](capacity, nil),
		counters: make(map[string]*StageCounters),
	}
}

// Get implements pipeline.StageCache.
func (c *stageCache) Get(stage, key string) (*pipeline.State, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.counters[stage]
	if !ok {
		ctr = &StageCounters{}
		c.counters[stage] = ctr
	}
	st, ok := c.lru.Get(key)
	if ok {
		ctr.Hits++
	} else {
		ctr.Misses++
	}
	return st, ok
}

// Put implements pipeline.StageCache.
func (c *stageCache) Put(stage, key string, st *pipeline.State) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(key, st)
}

// Stats snapshots the cache counters.
func (c *stageCache) Stats() PipelineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls := c.lru.Stats()
	st := PipelineStats{
		Entries:   ls.Entries,
		Capacity:  ls.Capacity,
		Evictions: ls.Evictions,
		Stages:    make(map[string]StageCounters, len(c.counters)),
	}
	for name, ctr := range c.counters {
		st.Stages[name] = *ctr
	}
	return st
}
