package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"gecco/internal/candidates"
	"gecco/internal/procgen"
)

// A pre-expired context must return promptly with a wrapped
// context.Canceled, before any pipeline work starts.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := Run(ctx, procgen.RunningExampleTable1(), roleSet(), Config{Mode: DFGUnbounded})
	if res != nil {
		t.Fatalf("result %+v, want nil on cancelled context", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("pre-cancelled run took %v, want prompt return", elapsed)
	}
}

// A context whose deadline has already passed must wrap DeadlineExceeded.
func TestRunContextPreExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Run(ctx, procgen.RunningExampleTable1(), roleSet(), Config{Mode: DFGUnbounded})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// Budget.TimeLimit expiry alone is not an error: the pipeline continues
// with the candidates found so far, exactly as without a context.
func TestRunContextTimeLimitStillSoft(t *testing.T) {
	cfg := Config{Mode: DFGUnbounded, Budget: candidates.Budget{TimeLimit: time.Nanosecond}}
	res, err := Run(context.Background(), procgen.RunningExampleTable1(), roleSet(), cfg)
	if err != nil {
		t.Fatalf("TimeLimit expiry returned error %v, want partial result", err)
	}
	if !res.CandidatesTimedOut {
		t.Fatal("expected CandidatesTimedOut with a nanosecond TimeLimit")
	}
}

// Cancelling mid-run stops the frontier within the sampling interval and
// surfaces the cancellation instead of a half-finished grouping.
func TestRunContextCancelMidRun(t *testing.T) {
	log := procgen.LoanLog(400, 17)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		// Exhaustive with no budget on the loan log runs far longer than
		// the test timeout unless cancellation cuts it.
		_, err := Run(ctx, log, roleSet(), Config{Mode: Exhaustive})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrapped context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not stop the pipeline within 30s")
	}
}

// With a live, cancellable context the pipeline output is byte-identical to
// a run under a context that can never be cancelled.
func TestRunContextDeterministicWhenLive(t *testing.T) {
	log := procgen.RunningExampleTable1()
	want, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	live, stop := context.WithCancel(context.Background())
	defer stop()
	got, err := Run(live, log, roleSet(), Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if groupingKey(got.GroupClasses) != groupingKey(want.GroupClasses) || got.Distance != want.Distance {
		t.Fatalf("context run diverged: %q dist=%v vs %q dist=%v",
			groupingKey(got.GroupClasses), got.Distance, groupingKey(want.GroupClasses), want.Distance)
	}
}
