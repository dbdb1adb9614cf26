// Package service is the serving layer over the GECCO pipeline: a job
// manager running a bounded number of concurrent abstraction jobs, an
// LRU cache of results keyed by log digest + canonicalised
// constraint set + config, and coalescing of identical in-flight requests
// onto a single pipeline run.
//
// Under the result cache sits a two-tier session cache. The hot tier is an
// in-RAM LRU of live core.Sessions keyed by log digest: a request on a
// known log reuses its frozen index, DFG, and warm distance memo. With
// Options.DataDir set, a warm tier persists under that directory: evicted
// sessions spill their columnar index to disk (docs/FORMAT.md) and are
// rebuilt via eventlog.OpenIndex — pure IO — instead of re-parsing;
// feasible cacheable results are written through and reloaded at startup;
// Close spills the whole working set so a restart comes up warm. The disk
// tier is strictly a cache: every file is checksummed, and corruption
// falls back to the cold path. docs/ARCHITECTURE.md diagrams the flow.
//
// Cancellation is cooperative end to end: every job runs under a context
// derived from the service's base context, a synchronous caller that goes
// away (client disconnect, timeout) cancels the job when it was its last
// waiter, and shutting the service down cancels everything mid-frontier
// via core.Run.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/lru"
)

// JobResult is the pipeline outcome stored in the cache and on finished
// jobs; it is the core pipeline result as-is.
type JobResult = core.Result

// Options tunes the service; zero values pick serving-friendly defaults.
type Options struct {
	// MaxConcurrent bounds the number of pipeline runs executing at once;
	// further jobs queue. <= 0 means one per CPU.
	MaxConcurrent int
	// MaxQueued bounds the jobs waiting for a concurrency slot; beyond it
	// new non-coalescing requests are rejected with ErrBusy (HTTP 503) as
	// backpressure — each queued job pins its parsed log in memory.
	// <= 0 means 4×MaxConcurrent.
	MaxQueued int
	// CacheCapacity is the number of results the LRU retains; <= 0 means
	// the default (256). Use NoCache to disable caching.
	CacheCapacity int
	// NoCache disables the result cache entirely.
	NoCache bool
	// MaxRetainedJobs bounds the finished jobs kept for GET /jobs/{id}
	// lookups; the oldest finished jobs are dropped first. <= 0 means 1024.
	MaxRetainedJobs int
	// MaxRetainedResults bounds how many of those finished jobs keep their
	// full result (which includes the abstracted log — potentially tens of
	// MiB each). Older finished jobs keep their metadata but drop the
	// result; cacheable ones remain servable from the LRU by re-POSTing.
	// <= 0 means 64.
	MaxRetainedResults int
	// SessionCapacity bounds the LRU of live per-log sessions (index, DFG,
	// warm distance memo) kept under the result cache, so a repeat log with
	// fresh constraints skips the constraint-independent analysis. Each
	// session pins its parsed log and memos in memory. <= 0 means 16; use
	// NoSessions to disable.
	SessionCapacity int
	// NoSessions disables the session cache: every job rebuilds its log's
	// analysis state from scratch, as before the session engine.
	NoSessions bool
	// SessionMemoLimit retires a live session once its distance memo holds
	// more than this many entries. The memo grows with every distinct
	// candidate group ever costed and is never evicted — the price of warm
	// solves — so without a bound, a hot log's session on a long-running
	// server would grow monotonically. A retired session is simply dropped;
	// the next request on that log rebuilds a fresh one. <= 0 means the
	// default (1<<18 ≈ 262k entries, tens of MB on typical class counts).
	SessionMemoLimit int
	// MaxStreams bounds the named online-abstractor states kept live for
	// POST /stream (each pins a window of traces plus its grouping).
	// Creating a stream beyond the bound evicts the least recently used
	// one. <= 0 means 64; use NoStreams to disable the endpoint.
	MaxStreams int
	// NoStreams disables the streaming workload entirely.
	NoStreams bool
	// PipelineCacheCapacity bounds the per-stage state LRU behind POST
	// /pipeline (each entry pins the indexes a pipeline state carries).
	// <= 0 means 64; NoCache disables it together with the result cache.
	PipelineCacheCapacity int
	// DefaultWorkers is the per-job worker count applied when a request
	// leaves Config.Workers at 0; 0 keeps the pipeline default (all CPUs).
	DefaultWorkers int
	// DataDir, when set, enables the warm tier: sessions evicted from the
	// in-RAM LRU spill their columnar index to <DataDir>/index/<digest>.gidx
	// (rebuilt later via OpenIndex instead of re-parsing), feasible cacheable
	// results persist to <DataDir>/results/ and are reloaded into the result
	// cache at startup, and Close spills every live session so a restart
	// warm-opens its working set. Empty keeps the service purely in-memory.
	// The directory is created if missing; if it cannot be, persistence is
	// disabled with a note on stderr and the service runs in-memory.
	DataDir string
	// JobIDPrefix is prepended to generated job IDs ("job-1" becomes
	// "<prefix>job-1"). In a sharded cluster each shard sets a distinct
	// prefix ("s0-", "s1-", ...) so a job ID names its owning shard and the
	// router can forward GET /jobs/{id} polls without a lookup table. Empty
	// keeps the classic unprefixed IDs.
	JobIDPrefix string
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.NumCPU()
	}
	if o.MaxQueued <= 0 {
		o.MaxQueued = 4 * o.MaxConcurrent
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 256
	}
	if o.NoCache {
		o.CacheCapacity = 0
	}
	if o.MaxRetainedJobs <= 0 {
		o.MaxRetainedJobs = 1024
	}
	if o.MaxRetainedResults <= 0 {
		o.MaxRetainedResults = 64
	}
	if o.SessionCapacity <= 0 {
		o.SessionCapacity = 16
	}
	if o.NoSessions {
		o.SessionCapacity = 0
	}
	if o.SessionMemoLimit <= 0 {
		o.SessionMemoLimit = 1 << 18
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 64
	}
	if o.NoStreams {
		o.MaxStreams = 0
	}
	if o.PipelineCacheCapacity <= 0 {
		o.PipelineCacheCapacity = 64
	}
	if o.NoCache {
		o.PipelineCacheCapacity = 0
	}
	return o
}

// Request is one abstraction problem: a log, a parsed constraint set, and a
// pipeline configuration.
type Request struct {
	Log         *eventlog.Log
	Constraints *constraints.Set
	Config      core.Config
	// Tag is opaque caller metadata echoed on job snapshots; the HTTP
	// layer records the request's wire format here so async polls can
	// serialise the result the way the submitter sent it. Coalesced jobs
	// keep the first submitter's tag (HTTP pollers can override with
	// ?format=). It does not participate in the cache key.
	Tag string
	// digest memoises LogDigest(Log) so a batch solving N constraint sets
	// against one log hashes it once, not N times. Filled lazily inside the
	// service; external callers leave it empty.
	digest string
	// loadLog, when non-nil, parses the uploaded log on demand. The HTTP
	// layer sets it together with a pre-known digest (via the wire-digest
	// memo) and leaves Log nil, so requests served from the result cache —
	// or from a warm-opened spilled index — never pay the parse. Invariant:
	// either Log is non-nil or digest is non-empty.
	loadLog func() (*eventlog.Log, error)
}

// logDigest returns the request's memoised log digest, computing it on
// first use.
func (r *Request) logDigest() string {
	if r.digest == "" {
		r.digest = LogDigest(r.Log)
	}
	return r.digest
}

// log returns the parsed event log, invoking the lazy loader on first use.
func (r *Request) log() (*eventlog.Log, error) {
	if r.Log == nil && r.loadLog != nil {
		l, err := r.loadLog()
		if err != nil {
			return nil, err
		}
		r.Log = l
	}
	return r.Log, nil
}

// JobState enumerates a job's lifecycle.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Job is one tracked pipeline run. All mutable fields are guarded by the
// service mutex; callers observe jobs through Snapshot.
type Job struct {
	id     string
	key    string // request key; "" when the request is not cacheable
	tag    string
	state  JobState
	result *JobResult
	// resultEvicted marks a done job whose result was dropped by the
	// retained-results bound; cacheable results remain fetchable via the
	// LRU by re-POSTing the request.
	resultEvicted bool
	err           error
	created       time.Time
	started       time.Time
	ended         time.Time

	waiters  int // synchronous callers currently waiting
	detached bool
	// cacheBacked marks a job synthesised from a cache hit: its result
	// aliases the LRU entry, so dropping it would free nothing and it is
	// exempt from the retained-results accounting.
	cacheBacked bool
	cancel      context.CancelFunc
	done        chan struct{}
}

// JobSnapshot is an immutable view of a job.
type JobSnapshot struct {
	ID    string
	Tag   string
	State JobState
	// Result is nil on a done job when ResultEvicted is set.
	Result        *JobResult
	ResultEvicted bool
	Err           error
	Created       time.Time
	Started       time.Time
	Ended         time.Time
	Coalesce      int // waiters sharing the run when snapshotted
}

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("service: job not found")

// ErrBusy is returned when the queue of jobs waiting for a concurrency
// slot is full; the caller should retry later.
var ErrBusy = errors.New("service: job queue full")

// ErrInvalidRequest marks client-input validation failures (HTTP 400, not
// 500).
var ErrInvalidRequest = errors.New("service: invalid request")

// ErrClosed is returned for requests arriving during or after Close.
var ErrClosed = errors.New("service: shutting down")

// JobStats counts job outcomes since the service started.
type JobStats struct {
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Coalesced int64 `json:"coalesced"` // requests that joined an in-flight identical run
	Running   int   `json:"running"`
	Queued    int   `json:"queued"`
}

// Stats is the /stats payload.
type Stats struct {
	Cache lru.Stats `json:"cache"`
	// Sessions reports the session-cache layer under the result cache: hits
	// are jobs that reused a live per-log session (warm index and distance
	// memo) instead of rebuilding it.
	Sessions SessionStats `json:"sessions"`
	// Streams reports the online workload: live named streams, lifecycle
	// counts, and arrival/regrouping totals across all streams ever served.
	Streams StreamStats `json:"streams"`
	Jobs    JobStats    `json:"jobs"`
	// Pipeline reports the staged-run engine: per-stage cache hit/miss
	// counters and the state LRU's occupancy.
	Pipeline PipelineStats `json:"pipeline"`
	// Disk reports the warm tier under the data dir; nil when DataDir is
	// unset (or its store could not be opened).
	Disk *DiskStats `json:"disk,omitempty"`
}

// Service runs abstraction jobs with bounded concurrency, caching, and
// request coalescing. Create with New; Close cancels everything.
type Service struct {
	opts     Options
	cache    *Cache
	sessions *sessionCache  // nil when NoSessions
	streams  *streamManager // nil when NoStreams
	store    *diskStore     // nil when DataDir unset or unusable
	pipe     *stageCache    // nil when the pipeline cache is disabled
	wire     *wireMemo      // raw upload bytes -> canonical log digest
	sem      chan struct{}

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	jobOrder []string        // insertion order, for bounded retention
	inflight map[string]*Job // request key -> running/queued job
	queued   int             // jobs waiting for a concurrency slot
	nextID   int64

	started      atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	cancelled    atomic.Int64
	coalesced    atomic.Int64
	pipelineRuns atomic.Int64
	active       sync.WaitGroup

	// draining marks the service as leaving rotation: /readyz reports 503 so
	// routers and load balancers stop sending new work, while liveness and
	// in-flight jobs are unaffected. Set by StartDrain (and by Close).
	draining atomic.Bool
}

// New builds a service; the caller must Close it.
func New(opts Options) *Service {
	opts = opts.withDefaults()
	//lint:gecco-allow(ctxflow): service-lifetime root by design: jobs outlive the submitting request and are cancelled via Close or DELETE /jobs/{id}
	ctx, cancel := context.WithCancel(context.Background())
	var store *diskStore
	if opts.DataDir != "" {
		var err error
		if store, err = openDiskStore(opts.DataDir); err != nil {
			// New has no error return by contract; a server that cannot
			// persist still serves, just cold after restarts.
			fmt.Fprintf(os.Stderr, "service: persistence disabled: %v\n", err)
			store = nil
		}
	}
	var sessions *sessionCache
	if opts.SessionCapacity > 0 {
		sessions = newSessionCache(opts.SessionCapacity, store)
	}
	var streams *streamManager
	if opts.MaxStreams > 0 {
		streams = newStreamManager(opts.MaxStreams)
	}
	cache := NewCache(opts.CacheCapacity)
	if store != nil && opts.CacheCapacity > 0 {
		store.loadResults(cache)
	}
	var pipe *stageCache
	if opts.PipelineCacheCapacity > 0 {
		pipe = newStageCache(opts.PipelineCacheCapacity)
	}
	return &Service{
		opts:       opts,
		cache:      cache,
		sessions:   sessions,
		streams:    streams,
		store:      store,
		pipe:       pipe,
		wire:       newWireMemo(),
		sem:        make(chan struct{}, opts.MaxConcurrent),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
	}
}

// Close cancels every queued and running job and waits for them to stop.
// Requests arriving at or after Close are rejected with ErrClosed, so no
// job can start once the wait begins. With a warm tier configured, every
// live session's index is spilled after the jobs drain, so a restarted
// process warm-opens its whole working set.
func (s *Service) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if s.streams != nil {
		// Drain the streaming workload: retire every live stream and
		// reject new /stream requests; in-flight regroups are cancelled by
		// the base context below.
		s.streams.closeAll()
	}
	s.baseCancel()
	s.active.Wait()
	if s.sessions != nil {
		s.sessions.spillAll()
	}
	if s.store != nil {
		s.store.close()
	}
}

// StartDrain takes the service out of rotation without stopping it:
// readiness (/readyz) flips to 503 so routers remove the shard, while
// liveness stays green and queued and running jobs finish normally. The
// intended departure sequence is StartDrain → stop accepting connections →
// Close (which cancels stragglers and spills every live session to the warm
// tier, so ring successors warm-open the .gidx files instead of re-parsing).
func (s *Service) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain (or Close) has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Meta describes how a synchronous request was served.
type Meta struct {
	JobID  string `json:"jobId,omitempty"`
	Cached bool   `json:"cached"`
	// CoalescedInto is set when the request joined an identical in-flight
	// job instead of starting its own run.
	CoalescedInto bool `json:"coalesced,omitempty"`
}

// Do serves a request synchronously: from the cache when possible,
// otherwise by joining an identical in-flight run or starting a new job.
// Cancelling ctx abandons the wait; when this caller was the job's last
// waiter (and no detached submission holds it), the pipeline itself is
// cancelled mid-frontier.
func (s *Service) Do(ctx context.Context, req Request) (*JobResult, Meta, error) {
	if err := validate(req); err != nil {
		return nil, Meta{}, err
	}
	key := ""
	if Cacheable(req.Config) {
		key = requestKey(req.logDigest(), req.Constraints, req.Config)
		if res, ok := s.cache.Get(key); ok {
			return res, Meta{Cached: true}, nil
		}
	}
	job, joined, cached, err := s.startOrJoin(key, &req, false)
	if err != nil {
		return nil, Meta{}, err
	}
	if cached != nil {
		return cached, Meta{Cached: true}, nil
	}
	meta := Meta{JobID: job.id, CoalescedInto: joined}
	res, err := s.wait(ctx, job)
	return res, meta, err
}

// Submit starts (or joins) a job asynchronously and returns its snapshot
// immediately. Detached jobs run to completion unless cancelled explicitly
// or by service shutdown.
func (s *Service) Submit(req Request) (JobSnapshot, error) {
	if err := validate(req); err != nil {
		return JobSnapshot{}, err
	}
	key := ""
	if Cacheable(req.Config) {
		key = requestKey(req.logDigest(), req.Constraints, req.Config)
		if res, ok := s.cache.Get(key); ok {
			// Synthesise an already-done job so the client's poll loop is
			// uniform; it is retained like any other finished job.
			return s.adoptCached(key, req.Tag, res), nil
		}
	}
	job, _, cached, err := s.startOrJoin(key, &req, true)
	if err != nil {
		return JobSnapshot{}, err
	}
	if cached != nil {
		return s.adoptCached(key, req.Tag, cached), nil
	}
	return s.Job(job.id)
}

// Job returns a snapshot of the job with the given ID.
func (s *Service) Job(id string) (JobSnapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobSnapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return job.snapshotLocked(), nil
}

// Cancel cancels a queued or running job by ID. Cancellation is
// asynchronous — the pipeline observes it at its next sampling point — so
// the returned snapshot may still show the job running; poll Job until it
// reaches StateCancelled. The job is unregistered from the in-flight table
// immediately, so new identical requests start a fresh run instead of
// joining the doomed one.
func (s *Service) Cancel(id string) (JobSnapshot, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobSnapshot{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	s.dropInflightLocked(job)
	cancel := job.cancel
	s.mu.Unlock()
	cancel()
	return s.Job(id)
}

// dropInflightLocked unregisters the job from the coalescing table if it is
// still the registered run for its key. The guard matters: a fresh job may
// already have re-registered under the same key. Requires s.mu.
func (s *Service) dropInflightLocked(job *Job) {
	if job.key != "" && s.inflight[job.key] == job {
		delete(s.inflight, job.key)
	}
}

// Busy reports whether the waiting queue is full, for cheap fast-path
// rejection before a caller pays to read and parse a request body. A busy
// service may still serve cache hits and coalescing joins, so this is a
// load-shedding heuristic, not a guarantee of rejection.
func (s *Service) Busy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued >= s.opts.MaxQueued
}

// Stats snapshots cache and job counters.
func (s *Service) Stats() Stats {
	st := Stats{Cache: s.cache.Stats()}
	if s.sessions != nil {
		st.Sessions = s.sessions.Stats()
	}
	if s.streams != nil {
		st.Streams = s.streams.Stats()
	}
	st.Jobs = JobStats{
		Started:   s.started.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Cancelled: s.cancelled.Load(),
		Coalesced: s.coalesced.Load(),
	}
	if s.pipe != nil {
		st.Pipeline = s.pipe.Stats()
	}
	st.Pipeline.Runs = s.pipelineRuns.Load()
	if s.store != nil {
		st.Disk = s.store.stats()
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.state {
		case StateRunning:
			st.Jobs.Running++
		case StateQueued:
			st.Jobs.Queued++
		}
	}
	s.mu.Unlock()
	return st
}

func validate(req Request) error {
	// A digest-bearing lazy request is valid without a parsed Log: the
	// wire-digest memo only learns uploads that passed this check parsed,
	// so the lazy path cannot smuggle in an empty log.
	lazy := req.Log == nil && req.digest != "" && req.loadLog != nil
	if !lazy && (req.Log == nil || len(req.Log.Traces) == 0) {
		return fmt.Errorf("%w: empty log", ErrInvalidRequest)
	}
	if req.Constraints == nil {
		return fmt.Errorf("%w: nil constraint set", ErrInvalidRequest)
	}
	return nil
}

// startOrJoin finds an identical in-flight job to share or starts a new
// one. detached marks asynchronous submissions, which are never cancelled
// by waiter departure. Returns ErrBusy when the waiting queue is full —
// coalescing joins are exempt, as they add no queued work. A non-nil
// cached return means an identical job finished between the caller's
// lock-free cache check and this locked one; no job was started.
func (s *Service) startOrJoin(key string, req *Request, detached bool) (job *Job, joined bool, cached *JobResult, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, nil, ErrClosed
	}
	if key != "" {
		if j, ok := s.inflight[key]; ok {
			s.coalesced.Add(1)
			if detached {
				j.detached = true
			} else {
				j.waiters++
			}
			return j, true, nil, nil
		}
		// finish() publishes to the cache and drops the inflight entry
		// under this same lock, so recheck before paying for a fresh run.
		// Quiet: this request's miss was already counted lock-free.
		if res, ok := s.cache.getQuiet(key); ok {
			return nil, false, res, nil
		}
	}
	if s.queued >= s.opts.MaxQueued {
		return nil, false, nil, fmt.Errorf("%w: %d jobs waiting (max %d)", ErrBusy, s.queued, s.opts.MaxQueued)
	}
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job = &Job{
		id:       fmt.Sprintf("%sjob-%d", s.opts.JobIDPrefix, s.nextID),
		key:      key,
		tag:      req.Tag,
		state:    StateQueued,
		created:  time.Now(),
		detached: detached,
		cancel:   cancel,
		done:     make(chan struct{}),
	}
	if !detached {
		job.waiters = 1
	}
	s.retainLocked(job)
	if key != "" {
		s.inflight[key] = job
	}
	s.queued++
	s.started.Add(1)
	s.active.Add(1)
	go s.run(ctx, job, *req)
	return job, false, nil, nil
}

// run executes one job: acquire a concurrency slot, run the pipeline under
// the job context, publish the outcome.
func (s *Service) run(ctx context.Context, job *Job, req Request) {
	defer s.active.Done()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finish(job, nil, fmt.Errorf("service: %w", ctx.Err()))
		return
	}
	defer func() { <-s.sem }()

	s.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	s.queued--
	s.mu.Unlock()

	cfg := req.Config
	if cfg.Workers == 0 && s.opts.DefaultWorkers > 0 {
		cfg.Workers = s.opts.DefaultWorkers
	}
	res, err := s.solve(ctx, req, cfg)
	s.finish(job, res, err)
}

// solve runs the pipeline, reusing (or admitting) a live session for the
// log when the session cache is enabled. Session reuse never changes the
// result — only the constraint-independent work a job pays for — so it is
// safe for cacheable and non-cacheable requests alike. It runs on the job
// goroutine, where an escaped panic would take the whole process down, so
// a panic becomes the job's error, stack included: the job fails and the
// service keeps serving.
func (s *Service) solve(ctx context.Context, req Request, cfg core.Config) (res *JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("service: job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	if s.sessions == nil {
		log, err := req.log()
		if err != nil {
			return nil, err
		}
		return core.Run(ctx, log, req.Constraints, cfg)
	}
	sess, err := s.sessions.getOrCreate(req.logDigest(), req.log)
	if err != nil {
		return nil, err
	}
	res, solveErr := sess.Solve(ctx, req.Constraints, cfg)
	// Memo-growth bound: retire the session once its distance memo exceeds
	// the limit, so a hot log on a long-running server cannot accumulate
	// memory without end. The current result is unaffected; the next
	// request on this log rebuilds a fresh session.
	if sess.MemoSize() > s.opts.SessionMemoLimit {
		s.sessions.drop(req.logDigest(), sess)
	}
	return res, solveErr
}

// finish publishes a job outcome, fills the cache, and wakes waiters.
func (s *Service) finish(job *Job, res *JobResult, err error) {
	s.mu.Lock()
	if job.state == StateQueued {
		s.queued-- // cancelled before a slot freed up
	}
	job.ended = time.Now()
	job.result = res
	job.err = err
	switch {
	case err == nil:
		job.state = StateDone
		s.completed.Add(1)
		if job.key != "" {
			s.cache.Put(job.key, res)
			if s.store != nil {
				// Write-through to the warm tier (feasible results only;
				// saveResultAsync screens). Async: disk IO has no business
				// under s.mu or on the job's critical path.
				s.store.saveResultAsync(job.key, res)
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		job.state = StateCancelled
		s.cancelled.Add(1)
	default:
		job.state = StateFailed
		s.failed.Add(1)
	}
	s.dropInflightLocked(job)
	s.evictResultsLocked()
	s.mu.Unlock()
	job.cancel() // release the context's resources
	close(job.done)
}

// evictResultsLocked drops the full results of all but the newest
// MaxRetainedResults finished jobs, bounding the memory pinned by retained
// abstracted logs. Jobs with waiters still between the done signal and
// their locked result read are spared — they release their ref in wait().
// Requires s.mu.
func (s *Service) evictResultsLocked() {
	withResult := 0
	for i := len(s.jobOrder) - 1; i >= 0; i-- {
		job, ok := s.jobs[s.jobOrder[i]]
		if !ok || job.result == nil || job.waiters > 0 || job.cacheBacked {
			continue
		}
		withResult++
		if withResult > s.opts.MaxRetainedResults {
			job.result = nil
			job.resultEvicted = true
		}
	}
}

// wait blocks until the job finishes or ctx is cancelled; a departing last
// waiter cancels the job itself.
func (s *Service) wait(ctx context.Context, job *Job) (*JobResult, error) {
	select {
	case <-job.done:
		// Copy the result and release the waiter ref under one lock:
		// evictResultsLocked spares jobs with live waiters, so the result
		// cannot be nilled between the job finishing and this read.
		s.mu.Lock()
		res, err := job.result, job.err
		job.waiters--
		s.mu.Unlock()
		return res, err
	case <-ctx.Done():
		s.mu.Lock()
		job.waiters--
		abandon := job.waiters <= 0 && !job.detached
		if abandon {
			// Unregister before cancelling: the pipeline takes up to a
			// sampling interval to observe the cancellation, and a new
			// identical request arriving in that window must start a fresh
			// run, not join the doomed one.
			s.dropInflightLocked(job)
		}
		s.mu.Unlock()
		if abandon {
			job.cancel()
		}
		return nil, fmt.Errorf("service: request abandoned: %w", ctx.Err())
	}
}

// adoptCached registers a pre-completed job backed by a cache hit.
func (s *Service) adoptCached(key, tag string, res *JobResult) JobSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	now := time.Now()
	job := &Job{
		id:          fmt.Sprintf("%sjob-%d", s.opts.JobIDPrefix, s.nextID),
		key:         key,
		tag:         tag,
		state:       StateDone,
		result:      res,
		cacheBacked: true,
		created:     now,
		started:     now,
		ended:       now,
		cancel:      func() {},
		done:        make(chan struct{}),
	}
	close(job.done)
	s.retainLocked(job)
	s.evictResultsLocked()
	return job.snapshotLocked()
}

// retainLocked records the job and drops the oldest finished jobs beyond
// the retention bound. Requires s.mu.
func (s *Service) retainLocked(job *Job) {
	s.jobs[job.id] = job
	s.jobOrder = append(s.jobOrder, job.id)
	for len(s.jobs) > s.opts.MaxRetainedJobs {
		dropped := false
		for i, id := range s.jobOrder {
			j, ok := s.jobs[id]
			if !ok {
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				dropped = true
				break
			}
			if j.state == StateDone || j.state == StateFailed || j.state == StateCancelled {
				delete(s.jobs, id)
				s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			break // everything live; let the map grow past the bound
		}
	}
}

func (j *Job) snapshotLocked() JobSnapshot {
	return JobSnapshot{
		ID:            j.id,
		Tag:           j.tag,
		State:         j.state,
		Result:        j.result,
		ResultEvicted: j.resultEvicted,
		Err:           j.err,
		Created:       j.created,
		Started:       j.started,
		Ended:         j.ended,
		Coalesce:      j.waiters,
	}
}
