package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
)

var bg = context.Background()

func baseState(t *testing.T) *State {
	t.Helper()
	return &State{
		Index:    eventlog.NewIndex(procgen.RunningExampleTable1()),
		IndexKey: "test-log",
	}
}

// mapCache is a trivial StageCache recording per-stage traffic.
type mapCache struct {
	states map[string]*State
	gets   []string
	puts   []string
}

func newMapCache() *mapCache { return &mapCache{states: map[string]*State{}} }

func (c *mapCache) Get(stage, key string) (*State, bool) {
	c.gets = append(c.gets, stage)
	st, ok := c.states[key]
	return st, ok
}

func (c *mapCache) Put(stage, key string, st *State) {
	c.puts = append(c.puts, stage)
	c.states[key] = st
}

func TestValidate(t *testing.T) {
	base := baseState(t)
	if err := Validate([]Stage{DiscoverStage{}, ConformStage{}}, base); err != nil {
		t.Fatalf("discover→conform should validate: %v", err)
	}
	if err := Validate([]Stage{ConformStage{}}, base); err == nil {
		t.Fatal("conform without a model should not validate")
	}
	if err := Validate([]Stage{AbstractStage{}}, base); err == nil {
		t.Fatal("abstract without constraints should not validate")
	}
	if err := Validate([]Stage{SuggestStage{}, AbstractStage{}}, base); err != nil {
		t.Fatalf("suggest should satisfy abstract's constraint need: %v", err)
	}
	withCons := *base
	withCons.Constraints = constraints.NewSet(constraints.MustParse("|g| <= 3"))
	if err := Validate([]Stage{AbstractStage{}}, &withCons); err != nil {
		t.Fatalf("abstract with base constraints should validate: %v", err)
	}
	if err := Validate(nil, base); err == nil {
		t.Fatal("empty pipeline should not validate")
	}
	// Run surfaces validation failures as ErrInvalid, naming the stage.
	_, err := Run(bg, []Stage{ConformStage{}}, base, BaseKey("d", ""), nil)
	if !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "(conform) needs") {
		t.Fatalf("Run of conform without a model: %v, want ErrInvalid naming the stage", err)
	}
}

func TestChainKeysCommitToPrefix(t *testing.T) {
	stages := func(details bool) []Stage {
		return []Stage{
			SuggestStage{},
			AbstractStage{},
			DiscoverStage{},
			ConformStage{Details: details},
		}
	}
	keys := func(sts []Stage) []string {
		out := make([]string, len(sts))
		k := BaseKey("digest", "cons")
		for i, st := range sts {
			k = ChainKey(k, st)
			out[i] = k
		}
		return out
	}
	a, b := keys(stages(false)), keys(stages(false))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stage %d key not deterministic", i)
		}
	}
	// A changed tail stage alters only its own key.
	c := keys(stages(true))
	for i := 0; i < 3; i++ {
		if a[i] != c[i] {
			t.Fatalf("upstream key %d changed by a tail-stage edit", i)
		}
	}
	if a[3] == c[3] {
		t.Fatal("conform key ignored its config")
	}
	// A changed base invalidates the whole chain.
	k := BaseKey("other", "cons")
	for i, st := range stages(false) {
		k = ChainKey(k, st)
		if k == a[i] {
			t.Fatalf("stage %d key ignored the base inputs", i)
		}
	}
}

func TestRunDefaultPipeline(t *testing.T) {
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bg, stages, baseState(t), BaseKey("d", ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("ran %d stages, want 4", len(res.Stages))
	}
	st := res.State
	if st.Constraints == nil || st.Constraints.Len() == 0 {
		t.Fatal("suggest stage adopted no constraints")
	}
	if len(st.Suggestions) == 0 {
		t.Fatal("suggestions not carried in the state")
	}
	if st.Abstraction == nil {
		t.Fatal("no abstraction result")
	}
	if st.Model == nil {
		t.Fatal("no discovered model")
	}
	if st.Conformance == nil {
		t.Fatal("no conformance result")
	}
	if f := st.Conformance.Fitness; f < 0 || f > 1 {
		t.Fatalf("fitness %f out of range", f)
	}
	if p := st.Conformance.Precision; p < 0 || p > 1 {
		t.Fatalf("precision %f out of range", p)
	}
}

func TestSuggestPassThroughWithUserConstraints(t *testing.T) {
	base := baseState(t)
	base.Constraints = constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(bg, stages, base, BaseKey("d", base.Constraints.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.State.Suggestions) != 0 {
		t.Fatal("suggest should be a pass-through when constraints are supplied")
	}
	if res.State.Constraints.Len() != 1 {
		t.Fatal("user constraints replaced")
	}
	if !res.State.Abstraction.Feasible {
		t.Fatal("role homogeneity is feasible on the running example")
	}
}

func TestStageCacheAdoption(t *testing.T) {
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	env := &Env{Cache: cache}
	key := BaseKey("d", "")
	if _, err := Run(bg, stages, baseState(t), key, env); err != nil {
		t.Fatal(err)
	}
	if len(cache.puts) != 4 {
		t.Fatalf("first run stored %d states, want 4", len(cache.puts))
	}
	res, err := Run(bg, stages, baseState(t), key, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Stages {
		if !st.Cached {
			t.Fatalf("stage %s re-executed on an identical re-run", st.Stage)
		}
	}
	// Changing only the tail stage reuses every upstream state.
	tail := []Stage{stages[0], stages[1], stages[2], ConformStage{Details: true}}
	res, err = Run(bg, tail, baseState(t), key, env)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Stages[:3] {
		if !st.Cached {
			t.Fatalf("upstream stage %d (%s) re-executed after a tail-only change", i, st.Stage)
		}
	}
	if res.Stages[3].Cached {
		t.Fatal("edited conform stage served from cache")
	}
}

func TestFilterStage(t *testing.T) {
	f := FilterStage{TopVariants: 0.8}
	base := baseState(t)
	out, err := f.Run(bg, &Env{}, base)
	if err != nil {
		t.Fatal(err)
	}
	if out.IndexKey == base.IndexKey {
		t.Fatal("filter did not re-derive the index key")
	}
	if out.Index == base.Index {
		t.Fatal("filter returned the input index")
	}
	// A filter that removes every trace is an error, not an empty log.
	head := FilterStage{Head: 0, ProjectClasses: []string{"no-such-class"}}
	if _, err := head.Run(bg, &Env{}, base); err == nil {
		t.Fatal("all-trace removal should error")
	}
}

func TestSpecParsing(t *testing.T) {
	specs, err := ParseSpecs("")
	if err != nil || len(specs) != 4 {
		t.Fatalf("empty spec should yield the 4 default stages: %v", err)
	}
	specs, err = ParseSpecs(`[{"stage":"filter","topVariants":0.8},{"stage":"discover"}]`)
	if err != nil || len(specs) != 2 {
		t.Fatalf("parse: %v", err)
	}
	if _, err := BuildStages(specs); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpecs(`[{"stage":"abstract","nope":1}]`); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := BuildStages([]StageSpec{{Stage: "filter"}}); err == nil {
		t.Fatal("no-op filter accepted")
	}
	if _, err := BuildStages([]StageSpec{{Stage: "bogus"}}); err == nil {
		t.Fatal("unknown stage accepted")
	}
	if _, err := BuildStages([]StageSpec{{Stage: "abstract", Mode: "warp"}}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	stages, _ := BuildStages(nil)
	_, err := Run(ctx, stages, baseState(t), BaseKey("d", ""), nil)
	if err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("cancelled run returned %v", err)
	}
}

// lazyEnv is an Env whose base index comes from a counting LoadIndex hook.
func lazyEnv(cache StageCache, calls *int) *Env {
	return &Env{Cache: cache, LoadIndex: func() (*eventlog.Index, error) {
		*calls++
		return eventlog.NewIndex(procgen.RunningExampleTable1()), nil
	}}
}

// A base state without an index is valid under a LoadIndex hook, and the
// hook runs only when a stage must execute with no index in hand: once
// when stage 0 misses, never when stage 0 hits.
func TestLoadIndexOnlyOnStageZeroMiss(t *testing.T) {
	stages, err := BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	key := BaseKey("test-log", "")
	eager, err := Run(bg, stages, baseState(t), key, nil)
	if err != nil {
		t.Fatal(err)
	}

	cache := newMapCache()
	calls := 0
	lazy := func() *State { return &State{IndexKey: "test-log"} }
	res, err := Run(bg, stages, lazy(), key, lazyEnv(cache, &calls))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("stage 0 missed: LoadIndex called %d times, want 1", calls)
	}
	for i, st := range res.Stages {
		if st.Cached || st.Key != eager.Stages[i].Key {
			t.Fatalf("lazy stage %s: cached=%t key=%s, want a fresh run keyed %s", st.Stage, st.Cached, st.Key, eager.Stages[i].Key)
		}
	}
	if res.State.Index == nil {
		t.Fatal("lazily loaded index missing from the final state")
	}
	if got, want := res.State.Conformance.Fitness, eager.State.Conformance.Fitness; got != want {
		t.Fatalf("lazy fitness %v, eager %v", got, want)
	}

	// Stage 0 hits: the whole run is served without the hook, also when a
	// later stage misses (the adopted state carries its index).
	tail := []Stage{stages[0], stages[1], stages[2], ConformStage{Details: true}}
	for _, run := range [][]Stage{stages, tail} {
		res, err := Run(bg, run, lazy(), key, lazyEnv(cache, &calls))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stages[0].Cached {
			t.Fatal("stage 0 missed on a re-run")
		}
	}
	if calls != 1 {
		t.Fatalf("stage 0 hit: LoadIndex called %d more times, want 0", calls-1)
	}

	// Without the hook an index-less base is invalid.
	if _, err := Run(bg, stages, lazy(), key, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("index-less base without LoadIndex: %v, want ErrInvalid", err)
	}
}

// A panicking stage fails its run with an error carrying the panic value
// and the stack, concurrent runs each fail the same way, and the engine
// keeps serving afterwards.
func TestRunRecoversStagePanic(t *testing.T) {
	boom := NewFuncStage("boom", "v1", []Artifact{ArtifactLog}, []Artifact{ArtifactModel},
		func(ctx context.Context, env *Env, in *State) (*State, error) {
			panic("stage exploded")
		})
	stages := []Stage{SuggestStage{}, boom, ConformStage{}}
	base := baseState(t)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Run(bg, stages, base, BaseKey("d", ""), nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("run %d: panicking stage returned no error", i)
		}
		msg := err.Error()
		if !strings.Contains(msg, "stage boom: panicked: stage exploded") || !strings.Contains(msg, "goroutine ") {
			t.Fatalf("run %d: error lacks the panic value or stack: %v", i, err)
		}
		if errors.Is(err, ErrInvalid) {
			t.Fatalf("run %d: a panic is not an invalid request", i)
		}
	}
	stages[1] = DiscoverStage{}
	if _, err := Run(bg, stages, base, BaseKey("d", ""), nil); err != nil {
		t.Fatalf("run after a panic: %v", err)
	}
}
