package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/procgen"
)

func sessionSet(t *testing.T, text string) *constraints.Set {
	t.Helper()
	set, err := constraints.ParseSet(text)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// resultFingerprint captures every externally observable field of a Result
// that the determinism contract covers.
func resultFingerprint(r *Result) []any {
	return []any{
		r.Feasible, r.GroupClasses, r.Grouping.Names, r.Distance,
		r.NumCandidates, r.ConstraintChecks, r.Diagnostics == nil,
	}
}

// TestSessionSolveMatchesRun pins the tentpole contract: Solve on a session
// — including a session warmed by solves under *other* constraint sets and
// other modes — returns exactly what the one-shot Run path returns.
func TestSessionSolveMatchesRun(t *testing.T) {
	log := procgen.RunningExample(120, 5)
	texts := []string{
		"distinct(role) <= 1",
		"distinct(role) <= 1\n|g| <= 2",
		"|g| <= 3",
	}
	modes := []Mode{Exhaustive, DFGUnbounded, DFGBeam}

	sess, err := NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately interleave: every (mode, set) pair runs on the same
	// session, so later solves see a memo warmed by all earlier ones.
	for _, mode := range modes {
		for _, text := range texts {
			cfg := Config{Mode: mode}
			cold, err := Run(context.Background(), log, sessionSet(t, text), cfg)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := sess.Solve(context.Background(), sessionSet(t, text), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resultFingerprint(cold), resultFingerprint(warm)) {
				t.Fatalf("mode %v, set %q: warm session result diverged from one-shot run\ncold: %+v\nwarm: %+v",
					mode, text, resultFingerprint(cold), resultFingerprint(warm))
			}
		}
	}
}

// TestSessionPolicyIsolation checks that the per-policy distance calculators
// never bleed into each other: the same constraint set solved under
// SplitOnRepeat and WholeTrace on one session matches the respective
// one-shot runs.
func TestSessionPolicyIsolation(t *testing.T) {
	log := procgen.RunningExample(80, 9)
	sess, err := NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []instances.Policy{instances.SplitOnRepeat, instances.WholeTrace} {
		cfg := Config{Mode: DFGUnbounded, Policy: policy}
		cold, err := Run(context.Background(), log, sessionSet(t, "distinct(role) <= 1"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := sess.Solve(context.Background(), sessionSet(t, "distinct(role) <= 1"), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Distance != warm.Distance || !reflect.DeepEqual(cold.GroupClasses, warm.GroupClasses) {
			t.Fatalf("policy %v: session result diverged (dist %v vs %v)", policy, warm.Distance, cold.Distance)
		}
	}
	if len(sess.calcs) != 2 {
		t.Fatalf("calcs = %d, want one per policy", len(sess.calcs))
	}
}

// TestSessionConcurrentSolves runs different constraint sets concurrently on
// one session (the serving workload) and checks each against its sequential
// reference. Run under -race via `make race`.
func TestSessionConcurrentSolves(t *testing.T) {
	log := procgen.RunningExample(100, 11)
	texts := []string{
		"distinct(role) <= 1",
		"distinct(role) <= 1\n|g| <= 2",
		"|g| <= 3",
		"|g| <= 2",
	}
	// Sequential references on fresh sessions.
	refs := make([]*Result, len(texts))
	for i, text := range texts {
		r, err := Run(context.Background(), log, sessionSet(t, text), Config{Mode: DFGUnbounded})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	sess, err := NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([]*Result, len(texts))
	errs := make([]error, len(texts))
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = sess.Solve(context.Background(), sessionSet(t, texts[i]), Config{Mode: DFGUnbounded})
		}(i)
	}
	wg.Wait()
	for i := range texts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(resultFingerprint(refs[i]), resultFingerprint(got[i])) {
			t.Fatalf("set %q: concurrent session solve diverged", texts[i])
		}
	}
}

// TestSessionEmptyLog pins the error path NewSession inherits from Run.
func TestSessionEmptyLog(t *testing.T) {
	if _, err := NewSession(&eventlog.Log{}); err == nil {
		t.Fatal("NewSession on an empty log should fail")
	}
}

// TestSessionSolveCancelled checks that a pre-cancelled context is rejected
// before any work, like Run.
func TestSessionSolveCancelled(t *testing.T) {
	sess, err := NewSession(procgen.RunningExampleTable1())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Solve(ctx, sessionSet(t, "distinct(role) <= 1"), Config{}); err == nil {
		t.Fatal("Solve under a cancelled context should fail")
	}
}

// TestSessionFromIndexMatchesNewSession pins the loader-direct entry point:
// a session built on an index streamed through eventlog.Builder solves
// identically to one built from the equivalent *Log.
func TestSessionFromIndexMatchesNewSession(t *testing.T) {
	m := procgen.RunningExampleModel()
	log := m.Simulate(60, 3)
	fromLog, err := NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	fromIndex, err := NewSessionFromIndex(m.SimulateIndex(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	set := sessionSet(t, "distinct(role) <= 1")
	cfg := Config{Mode: DFGUnbounded}
	a, err := fromLog.Solve(context.Background(), set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromIndex.Solve(context.Background(), set, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultFingerprint(a), resultFingerprint(b)) {
		t.Fatalf("index-built session diverged: %v vs %v", resultFingerprint(b), resultFingerprint(a))
	}
	if _, err := NewSessionFromIndex(eventlog.NewIndex(&eventlog.Log{})); err == nil {
		t.Fatal("expected empty-log error")
	}
}

// TestSessionInfeasibleMaterialisesLog: the session releases the parsed log,
// so an infeasible solve returns the materialised equivalent — same traces,
// classes, and event count — and repeated infeasible solves share the one
// materialisation.
func TestSessionInfeasibleMaterialisesLog(t *testing.T) {
	log := procgen.RunningExampleTable1()
	sess, err := NewSession(log)
	if err != nil {
		t.Fatal(err)
	}
	set := sessionSet(t, "|g| <= 1\n|G| <= 3")
	res, err := sess.Solve(context.Background(), set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("expected infeasible")
	}
	if res.Abstracted == nil || res.Abstracted == log {
		t.Fatal("infeasible session solve must return a materialised log, not nil or the alias")
	}
	if res.Abstracted.NumEvents() != log.NumEvents() || len(res.Abstracted.Traces) != len(log.Traces) {
		t.Fatal("materialised log shape differs from the original")
	}
	res2, err := sess.Solve(context.Background(), set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Abstracted != res.Abstracted {
		t.Fatal("repeated infeasible solves must share the memoised materialisation")
	}
}
