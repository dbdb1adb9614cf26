package suggest

import (
	"context"
	"strings"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

// mustSuggest profiles the log's index under a background context, failing
// the test on error (an uncancelled profiling pass cannot fail).
func mustSuggest(t *testing.T, log *eventlog.Log) []Suggestion {
	t.Helper()
	sugs, err := Suggest(context.Background(), eventlog.NewIndex(log))
	if err != nil {
		t.Fatalf("Suggest: %v", err)
	}
	return sugs
}

func TestSuggestRunningExample(t *testing.T) {
	log := procgen.RunningExampleTable1()
	sugs := mustSuggest(t, log)
	if len(sugs) == 0 {
		t.Fatal("no suggestions for a log with role/cost/duration attributes")
	}
	var haveRoleInstance, haveRoleClass, haveGap, haveNumeric bool
	for _, s := range sugs {
		switch c := s.Constraint.(type) {
		case constraints.InstanceAggregate:
			if c.Attr == "role" && c.AggFn == constraints.Distinct {
				haveRoleInstance = true
			}
			if c.AggFn == constraints.Max && (c.Attr == "cost" || c.Attr == "duration") {
				haveNumeric = true
			}
		case constraints.ClassAttrDistinct:
			if c.Attr == "role" {
				haveRoleClass = true
			}
		case constraints.MaxGap:
			haveGap = true
		}
		if s.Rationale == "" {
			t.Error("suggestion without rationale")
		}
		if s.SingletonPass < 0 || s.SingletonPass > 1 {
			t.Errorf("singleton pass %f out of range", s.SingletonPass)
		}
	}
	if !haveRoleInstance || !haveRoleClass {
		t.Error("missing role-homogeneity suggestions")
	}
	if !haveGap {
		t.Error("missing gap suggestion despite timestamps")
	}
	if !haveNumeric {
		t.Error("missing numeric-attribute suggestion")
	}
}

func TestSuggestionsRankedByFeasibility(t *testing.T) {
	sugs := mustSuggest(t, procgen.LoanLog(100, 7))
	for i := 1; i < len(sugs); i++ {
		if sugs[i-1].SingletonPass < sugs[i].SingletonPass {
			t.Fatal("suggestions not sorted by singleton pass rate")
		}
	}
}

// Every suggested constraint must be usable: it round-trips through the
// DSL parser and runs through the pipeline without error.
func TestSuggestionsAreRunnable(t *testing.T) {
	log := procgen.RunningExampleTable1()
	for _, s := range mustSuggest(t, log) {
		if _, err := constraints.Parse(s.Constraint.String()); err != nil {
			t.Errorf("suggestion %q does not round-trip: %v", s.Constraint, err)
			continue
		}
		set := constraints.NewSet(s.Constraint)
		res, err := core.Run(context.Background(), log, set, core.Config{Mode: core.DFGUnbounded})
		if err != nil {
			t.Errorf("suggestion %q failed to run: %v", s.Constraint, err)
			continue
		}
		_ = res // feasibility depends on the constraint; both outcomes are valid
	}
}

func TestSuggestGroupCountOnlyForLargerLogs(t *testing.T) {
	tiny := procgen.BuildLog(procgen.CollectionSpecs()[8]) // 4 classes
	for _, s := range mustSuggest(t, tiny) {
		if _, ok := s.Constraint.(constraints.GroupCount); ok {
			t.Fatal("group-count suggestion on a 4-class log")
		}
	}
	larger := procgen.RunningExampleTable1() // 8 classes
	found := false
	for _, s := range mustSuggest(t, larger) {
		if gc, ok := s.Constraint.(constraints.GroupCount); ok {
			found = true
			if gc.N < 2 {
				t.Errorf("group bound %d too tight", gc.N)
			}
			if !strings.Contains(s.Rationale, "classes") {
				t.Error("group-count rationale should mention the class count")
			}
		}
	}
	if !found {
		t.Fatal("no group-count suggestion for an 8-class log")
	}
}
