package service

import (
	"context"
	"sync"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

func mustSet(t *testing.T, text string) *constraints.Set {
	t.Helper()
	set, err := constraints.ParseSet(text)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSessionReuseAcrossConstraintSets is the layering contract of the
// session cache: a second request on the same log with a *different*
// constraint set misses the result cache but hits the session cache, and
// returns exactly what a cold run returns.
func TestSessionReuseAcrossConstraintSets(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	log := procgen.RunningExampleTable1()

	req1 := Request{Log: log, Constraints: mustSet(t, "distinct(role) <= 1"), Config: core.Config{Mode: core.DFGUnbounded}}
	req2 := Request{Log: log, Constraints: mustSet(t, "distinct(role) <= 1\n|g| <= 2"), Config: core.Config{Mode: core.DFGUnbounded}}

	res1, meta1, err := svc.Do(context.Background(), req1)
	if err != nil {
		t.Fatal(err)
	}
	if meta1.Cached || !res1.Feasible {
		t.Fatalf("first request: cached=%v feasible=%v", meta1.Cached, res1.Feasible)
	}
	res2, meta2, err := svc.Do(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Cached {
		t.Fatal("different constraints must miss the result cache")
	}
	st := svc.Stats()
	if st.Sessions.Misses != 1 || st.Sessions.Hits != 1 {
		t.Fatalf("session stats = %+v, want 1 miss then 1 hit", st.Sessions)
	}
	if st.Sessions.Entries != 1 {
		t.Fatalf("session entries = %d, want 1", st.Sessions.Entries)
	}
	// Memory accounting: the live session's columnar index footprint is
	// surfaced, and it is (much) smaller than the pointer-heavy parsed log
	// the session released at construction.
	if st.Sessions.IndexBytes <= 0 {
		t.Fatalf("session index bytes = %d, want > 0", st.Sessions.IndexBytes)
	}
	if naive := eventlog.EstimateLogBytes(log); st.Sessions.IndexBytes >= naive {
		t.Fatalf("index bytes %d not below the log's estimated %d", st.Sessions.IndexBytes, naive)
	}

	// The warm-session result must be identical to a cold one-shot run.
	cold, err := core.Run(context.Background(), log, mustSet(t, "distinct(role) <= 1\n|g| <= 2"), core.Config{Mode: core.DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Distance != cold.Distance || res2.NumCandidates != cold.NumCandidates ||
		res2.ConstraintChecks != cold.ConstraintChecks {
		t.Fatalf("warm session result diverged: dist %v vs %v, candidates %d vs %d, checks %d vs %d",
			res2.Distance, cold.Distance, res2.NumCandidates, cold.NumCandidates,
			res2.ConstraintChecks, cold.ConstraintChecks)
	}
}

// TestSessionCacheEviction pins the LRU bound: with capacity 1, alternating
// logs evict each other and the counters say so.
func TestSessionCacheEviction(t *testing.T) {
	svc := New(Options{SessionCapacity: 1})
	defer svc.Close()
	logA := procgen.RunningExampleTable1()
	logB := procgen.RunningExample(40, 3)
	cfg := core.Config{Mode: core.DFGUnbounded}

	do := func(log *eventlog.Log, text string) {
		t.Helper()
		if _, _, err := svc.Do(context.Background(), Request{Log: log, Constraints: mustSet(t, text), Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	do(logA, "distinct(role) <= 1")
	do(logB, "distinct(role) <= 1")           // evicts A's session
	do(logA, "distinct(role) <= 1\n|g| <= 2") // rebuilt: session miss

	st := svc.Stats().Sessions
	if st.Capacity != 1 || st.Entries != 1 {
		t.Fatalf("capacity/entries = %d/%d, want 1/1", st.Capacity, st.Entries)
	}
	if st.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (A, B, A-again)", st.Misses)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestNoSessionsDisablesCache checks the opt-out: with NoSessions the
// service falls back to a full pipeline per job and reports zero capacity.
func TestNoSessionsDisablesCache(t *testing.T) {
	svc := New(Options{NoSessions: true})
	defer svc.Close()
	req := roleRequest(t)
	if _, _, err := svc.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats().Sessions
	if st != (SessionStats{}) {
		t.Fatalf("session stats with NoSessions = %+v, want zero", st)
	}
}

// TestSessionCacheConcurrentSameLog races many requests for one new log:
// the once gate must coalesce them onto a single session build, and every
// request must still succeed. Run under -race via `make race`.
func TestSessionCacheConcurrentSameLog(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	log := procgen.RunningExampleTable1()
	texts := []string{
		"distinct(role) <= 1",
		"distinct(role) <= 1\n|g| <= 2",
		"|g| <= 3",
		"distinct(role) <= 1\n|g| <= 4",
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(text string) {
			defer wg.Done()
			set, err := constraints.ParseSet(text)
			if err != nil {
				t.Error(err)
				return
			}
			req := Request{Log: log, Constraints: set, Config: core.Config{Mode: core.DFGUnbounded}}
			if _, _, err := svc.Do(context.Background(), req); err != nil {
				t.Error(err)
			}
		}(texts[i%len(texts)])
	}
	wg.Wait()
	st := svc.Stats().Sessions
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 session build for one log", st.Misses)
	}
	// 8 requests over 4 distinct problems: identical pairs coalesce onto
	// one job (or hit the result cache), so exactly 4 pipeline runs touch
	// the session cache — one build, three reuses.
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3", st.Hits)
	}
}

// TestGetOrCreateNeverReturnsNilSession hammers getOrCreate directly with
// concurrent callers racing the first build. Every caller — creator or
// latecomer — must block until the build finishes and receive the same
// non-nil session; a nil (session, err) pair means a latecomer slipped past
// the build gate. Run under -race via `make race`.
func TestGetOrCreateNeverReturnsNilSession(t *testing.T) {
	log := procgen.RunningExampleTable1()
	for round := 0; round < 20; round++ {
		c := newSessionCache(4, nil)
		var wg sync.WaitGroup
		sessions := make([]*core.Session, 16)
		for i := range sessions {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sess, err := c.getOrCreate("digest", staticLog(log))
				if err != nil {
					t.Errorf("getOrCreate: %v", err)
					return
				}
				sessions[i] = sess
			}(i)
		}
		wg.Wait()
		for i, sess := range sessions {
			if sess == nil {
				t.Fatalf("round %d: caller %d got a nil session with nil error", round, i)
			}
			if sess != sessions[0] {
				t.Fatalf("round %d: caller %d got a different session than caller 0", round, i)
			}
		}
	}
}

// TestSessionMemoLimitRetiresSession pins the memo-growth bound: with a
// limit of 1 entry, every solve outgrows the session, so each request on
// the same log rebuilds a fresh one (a session miss + an eviction) instead
// of accumulating memo entries forever.
func TestSessionMemoLimitRetiresSession(t *testing.T) {
	svc := New(Options{SessionMemoLimit: 1})
	defer svc.Close()
	log := procgen.RunningExampleTable1()
	cfg := core.Config{Mode: core.DFGUnbounded}
	for _, text := range []string{"distinct(role) <= 1", "|g| <= 3", "|g| <= 2"} {
		if _, _, err := svc.Do(context.Background(), Request{Log: log, Constraints: mustSet(t, text), Config: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats().Sessions
	if st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("session stats = %+v, want 3 misses and no hits (every solve retires the session)", st)
	}
	if st.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", st.Evictions)
	}
}

// staticLog adapts an already-parsed log to getOrCreate's lazy-loader
// signature for tests that build their logs up front.
func staticLog(log *eventlog.Log) func() (*eventlog.Log, error) {
	return func() (*eventlog.Log, error) { return log, nil }
}
