package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "service.abstract", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50): 40 ms, counted once.
		{ID: 2, Parent: 1, Name: "xes.read", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "eventlog.index_build", Start: 30 * ms, End: 50 * ms},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 1, Name: "xes.write", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Name: "core.session_build", Start: 20 * ms, End: 25 * ms},
		// A root of another operation with no children.
		{ID: 6, Op: 1, Name: "core.solve", Start: 0, End: 7 * ms},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 25 * ms, 3: 20 * ms, 4: 30 * ms, 5: 5 * ms, 6: 7 * ms}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, got[id], w)
		}
	}
}

func TestSelfTimeDisjointAndNestedChildren(t *testing.T) {
	ms := time.Millisecond
	kids := []span{
		{Start: 50 * ms, End: 60 * ms},
		{Start: 0, End: 5 * ms},
		{Start: 52 * ms, End: 55 * ms},   // inside the first
		{Start: 200 * ms, End: 300 * ms}, // outside the parent
	}
	if got := covered(0, 100*ms, kids); got != 15*ms {
		t.Errorf("covered %v, want 15ms", got)
	}
	if got := covered(0, 100*ms, nil); got != 0 {
		t.Errorf("covered with no children %v, want 0", got)
	}
}

func TestModuleShares(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "service.abstract", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "xes.read", Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "xes.write", Start: 60 * ms, End: 70 * ms},
		{ID: 4, Op: 1, Name: "cover.step2", Start: 0, End: 100 * ms},
	}
	all := moduleShares(spans, nil)
	if math.Abs(all["xes"]-0.35) > 1e-12 || math.Abs(all["service"]-0.15) > 1e-12 || math.Abs(all["cover"]-0.5) > 1e-12 {
		t.Errorf("shares %v, want xes 0.35 service 0.15 cover 0.5", all)
	}
	first := moduleShares(spans, func(s span) bool { return s.Op == 0 })
	if math.Abs(first["xes"]-0.7) > 1e-12 || first["cover"] != 0 {
		t.Errorf("shares of op 0 %v, want xes 0.7 and no cover", first)
	}
}

func TestTracerLayoutAndNil(t *testing.T) {
	var off *tracer
	if id := off.begin(0, 0, "x.y"); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	off.finish(0)
	off.layout(0, 0, 0, []part{{"a.b", time.Millisecond}})
	if off.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}

	tr := newTracer()
	root := tr.add(3, 0, "service.abstract", 0, 10*time.Millisecond)
	tr.layout(3, root, 2*time.Millisecond, []part{{"xes.read", 3 * time.Millisecond}, {"skip.me", 0}, {"xes.write", time.Millisecond}})
	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3 (zero-length parts are dropped)", len(spans))
	}
	if s := spans[1]; s.Parent != root || s.Op != 3 || s.Start != 2*time.Millisecond || s.End != 5*time.Millisecond {
		t.Errorf("first laid-out span %+v", s)
	}
	if s := spans[2]; s.Start != 5*time.Millisecond || s.End != 6*time.Millisecond {
		t.Errorf("second laid-out span %+v", s)
	}
	if self := selfTimes(spans)[root]; self != 6*time.Millisecond {
		t.Errorf("root self time %v, want 6ms", self)
	}
}
