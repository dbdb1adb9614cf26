package core

import (
	"context"
	"fmt"
	"gecco/internal/bitset"
	"gecco/internal/dfg"
	"math"
	"sort"
	"strings"
	"testing"

	"gecco/internal/constraints"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/procgen"
)

func roleSet() *constraints.Set {
	return constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
}

func groupingKey(gc [][]string) string {
	parts := make([]string, len(gc))
	for i, g := range gc {
		gg := append([]string(nil), g...)
		sort.Strings(gg)
		parts[i] = strings.Join(gg, ",")
	}
	sort.Strings(parts)
	return strings.Join(parts, " | ")
}

// The paper's Figure 7: with DFG-based candidates and the role constraint,
// the optimal grouping of the running example is {rcp,ckc,ckt}, {acc},
// {rej}, {prio,inf,arv} with dist = 3.08.
func TestGoldenFigure7DFG(t *testing.T) {
	log := procgen.RunningExampleTable1()
	res, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Diagnostics)
	}
	want := "acc | arv,inf,prio | ckc,ckt,rcp | rej"
	if got := groupingKey(res.GroupClasses); got != want {
		t.Fatalf("grouping %q, want %q", got, want)
	}
	if math.Abs(res.Distance-3.0833333333) > 1e-6 {
		t.Fatalf("distance %.6f, want 3.0833 (paper: 3.08)", res.Distance)
	}
}

// The exhaustive configuration additionally finds co-occurring candidates
// that no DFG path generates: {acc,rej} (both in σ4, dist 1.125 < two
// singletons) and the all-clerk group (dist 0.6367 < the two clerk groups
// combined). The true exhaustive optimum on the tiny Table I log therefore
// collapses to two groups with total distance 287/240 + 0.6367 = 1.7617 —
// exactly the "not meaningful" outcome §II warns about, which the paper
// avoids by using DFG-based candidates in Figure 7.
func TestGoldenExhaustiveFindsCheaperCover(t *testing.T) {
	log := procgen.RunningExampleTable1()
	res, err := Run(context.Background(), log, roleSet(), Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Diagnostics)
	}
	want := "acc,rej | arv,ckc,ckt,inf,prio,rcp"
	if got := groupingKey(res.GroupClasses); got != want {
		t.Fatalf("grouping %q, want %q", got, want)
	}
	if math.Abs(res.Distance-1.7616666667) > 1e-6 {
		t.Fatalf("distance %.6f, want 1.7617", res.Distance)
	}
}

// Both Step 2 solvers must agree on the optimum.
func TestSolversAgree(t *testing.T) {
	log := procgen.RunningExampleTable1()
	bb, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded, Solver: SolverBB})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded, Solver: SolverMIP})
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Feasible || !mp.Feasible {
		t.Fatal("solver infeasibility mismatch")
	}
	if math.Abs(bb.Distance-mp.Distance) > 1e-6 {
		t.Fatalf("BB %.6f vs MIP %.6f", bb.Distance, mp.Distance)
	}
}

// §II's motivation: the role constraint alone would naively group all clerk
// steps together; GECCO's distance splits them into start/end groups. Verify
// the abstracted traces match Figure 3's DFG shape.
func TestAbstractedTraces(t *testing.T) {
	log := procgen.RunningExampleTable1()
	res, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded, NamePrefix: "clrk"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Abstracted.Traces[0].Variant(); got != "clrk1,acc,clrk2" {
		t.Fatalf("σ1 = %q", got)
	}
	if got := res.Abstracted.Traces[3].Variant(); got != "clrk1,rej,clrk1,acc,clrk2" {
		t.Fatalf("σ4 = %q", got)
	}
}

// Grouping constraint |G| <= 3 forces a coarser grouping.
func TestGroupingConstraint(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(
		constraints.MustParse("distinct(role) <= 1"),
		constraints.MustParse("|G| <= 3"),
	)
	res, err := Run(context.Background(), log, set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("infeasible: %v", res.Diagnostics)
	}
	if len(res.GroupClasses) > 3 {
		t.Fatalf("got %d groups, bound is 3", len(res.GroupClasses))
	}
}

// An unsatisfiable problem returns the original log plus diagnostics.
func TestInfeasibleReturnsOriginalLog(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(
		constraints.MustParse("|g| <= 1"),
		constraints.MustParse("|G| <= 3"), // 8 classes cannot fit 3 singletons
	)
	res, err := Run(context.Background(), log, set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("expected infeasible")
	}
	if res.Abstracted != log {
		t.Error("infeasible run must return the original log")
	}
	if res.Diagnostics == nil {
		t.Error("missing diagnostics")
	}
}

// The verification pass: under the (heuristically) monotonic constraint
// sum(duration) >= 101, every selected group must genuinely satisfy it even
// though the pruning rule can admit violating candidates.
func TestVerificationPassMonotonic(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(constraints.MustParse("sum(duration) >= 101"))
	res, err := Run(context.Background(), log, set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		x := eventlog.NewIndex(log)
		ev := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
		for i, g := range res.Grouping.Groups {
			if !ev.HoldsClass(g) || !ev.HoldsInstance(g) {
				t.Fatalf("selected group %v violates constraints", res.GroupClasses[i])
			}
		}
	}
}

// Beam configuration must produce a valid (possibly suboptimal) grouping.
func TestBeamFeasibleAndNotBetterThanOptimal(t *testing.T) {
	log := procgen.RunningExample(150, 23)
	set := roleSet()
	opt, err := Run(context.Background(), log, set, Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	beam, err := Run(context.Background(), log, set, Config{Mode: DFGBeam, BeamWidth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Feasible && beam.Feasible && beam.Distance < opt.Distance-1e-9 {
		t.Fatalf("beam %.6f beats unbounded %.6f", beam.Distance, opt.Distance)
	}
}

// Ablation: disabling exclusive merge on the running example must lose the
// merged {rcp,ckc,ckt} candidate under DFG∞ (ckc/ckt never directly follow
// each other, so no path contains both) and thus yield a higher distance.
func TestAblationExclusiveMerge(t *testing.T) {
	log := procgen.RunningExampleTable1()
	with, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded, SkipExclusiveMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if !with.Feasible || !without.Feasible {
		t.Fatal("both configurations should be feasible")
	}
	if without.Distance <= with.Distance {
		t.Fatalf("exclusive merge should improve distance: with=%.4f without=%.4f",
			with.Distance, without.Distance)
	}
}

func TestEmptyLogRejected(t *testing.T) {
	if _, err := Run(context.Background(), &eventlog.Log{}, roleSet(), Config{}); err == nil {
		t.Fatal("expected error for empty log")
	}
}

// Global grouping-instance constraints (§VIII future work): a lower bound
// on instances per trace ("do not over-abstract") conflicts with the
// distance objective and is enforced via no-good cuts. On ⟨a,b,c⟩ traces
// the free optimum is the single group {a,b,c} (1 instance per trace);
// requiring avginstances >= 2 must push the solver to the next-best
// grouping {a,b}+{c} (distance 1.5).
func TestGlobalConstraintNoGoodIteration(t *testing.T) {
	log := &eventlog.Log{}
	for i := 0; i < 5; i++ {
		log.Traces = append(log.Traces, eventlog.Trace{ID: "t", Events: []eventlog.Event{
			{Class: "a"}, {Class: "b"}, {Class: "c"},
		}})
	}
	free, err := Run(context.Background(), log, constraints.NewSet(), Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !free.Feasible || len(free.GroupClasses) != 1 {
		t.Fatalf("free optimum should be the single full group, got %v", free.GroupClasses)
	}
	set := constraints.NewSet(constraints.MustParse("avginstances >= 2"))
	res, err := Run(context.Background(), log, set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("expected a feasible finer grouping, got: %v", res.Diagnostics)
	}
	if len(res.GroupClasses) != 2 {
		t.Fatalf("got %d groups, want 2: %v", len(res.GroupClasses), res.GroupClasses)
	}
	if math.Abs(res.Distance-1.5) > 1e-9 {
		t.Fatalf("distance %.4f, want 1.5", res.Distance)
	}
	x := eventlog.NewIndex(log)
	ev := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
	if !ev.HoldsGlobal(res.Grouping.Groups) {
		t.Fatal("returned grouping violates the global constraint")
	}
	if res.Distance <= free.Distance {
		t.Fatal("constrained optimum should cost more than the free optimum")
	}
}

// An unsatisfiable global constraint must be reported infeasible, not
// silently violated.
func TestGlobalConstraintInfeasible(t *testing.T) {
	log := procgen.RunningExampleTable1()
	set := constraints.NewSet(
		constraints.MustParse("|g| <= 1"), // singletons only: >= 6 instances/trace
		constraints.MustParse("avginstances <= 2.0"),
	)
	res, err := Run(context.Background(), log, set, Config{Mode: Exhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("no singleton grouping has <= 2 instances per trace on these traces")
	}
}

func TestModeAndSolverStrings(t *testing.T) {
	if Exhaustive.String() != "Exh" || DFGUnbounded.String() != "DFG∞" || DFGBeam.String() != "DFGk" {
		t.Fatal("mode strings changed")
	}
	tm := Timings{Candidates: 1, Solve: 2, Abstract: 3}
	if tm.Total() != 6 {
		t.Fatal("Timings.Total")
	}
}

func TestUnknownModeAndSolver(t *testing.T) {
	log := procgen.RunningExampleTable1()
	if _, err := Run(context.Background(), log, roleSet(), Config{Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Run(context.Background(), log, roleSet(), Config{Solver: Solver(99)}); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

// Figure 8 style naming: groups homogeneous in a class attribute get
// value-prefixed activity names.
func TestNameByClassAttr(t *testing.T) {
	log := procgen.LoanLog(150, 13)
	set := constraints.NewSet(
		constraints.MustParse("distinct(class.org) <= 1"),
		constraints.MustParse("|g| <= 8"),
	)
	res, err := Run(context.Background(), log, set, Config{Mode: DFGUnbounded, NameByClassAttr: "org"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("case study infeasible: %v", res.Diagnostics)
	}
	prefixed := 0
	for i, name := range res.Grouping.Names {
		if len(res.GroupClasses[i]) == 1 {
			continue // singletons keep class names
		}
		switch name[0] {
		case 'A', 'O', 'W':
			prefixed++
		default:
			t.Errorf("multi-class activity %q lacks an origin prefix", name)
		}
	}
	if prefixed == 0 {
		t.Fatal("no multi-class activity got an origin-system prefix")
	}
}

// Activity numbering follows process order: clrk1 groups the start-of-
// process classes.
func TestNamingFollowsProcessOrder(t *testing.T) {
	log := procgen.RunningExampleTable1()
	res, err := Run(context.Background(), log, roleSet(), Config{Mode: DFGUnbounded, NamePrefix: "clrk"})
	if err != nil || !res.Feasible {
		t.Fatal("pipeline failed")
	}
	for i, name := range res.Grouping.Names {
		if name == "clrk1" {
			found := false
			for _, c := range res.GroupClasses[i] {
				if c == "rcp" {
					found = true
				}
			}
			if !found {
				t.Fatalf("clrk1 = %v, should contain rcp", res.GroupClasses[i])
			}
		}
	}
}

// CustomCandidates replaces Step 1 entirely.
func TestCustomCandidates(t *testing.T) {
	log := procgen.RunningExampleTable1()
	called := false
	cfg := Config{CustomCandidates: func(x *eventlog.Index, _ *dfg.Graph) ([]bitset.Set, error) {
		called = true
		var out []bitset.Set
		for c := 0; c < x.NumClasses(); c++ {
			g := bitset.New(x.NumClasses())
			g.Add(c)
			out = append(out, g)
		}
		return out, nil
	}}
	res, err := Run(context.Background(), log, constraints.NewSet(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("custom candidate function not invoked")
	}
	if !res.Feasible || len(res.GroupClasses) != 8 {
		t.Fatalf("singleton-only candidates must yield 8 groups, got %d", len(res.GroupClasses))
	}
}

func TestCustomCandidatesError(t *testing.T) {
	log := procgen.RunningExampleTable1()
	cfg := Config{CustomCandidates: func(*eventlog.Index, *dfg.Graph) ([]bitset.Set, error) {
		return nil, errSentinel
	}}
	if _, err := Run(context.Background(), log, constraints.NewSet(), cfg); err == nil {
		t.Fatal("candidate error not propagated")
	}
}

var errSentinel = fmt.Errorf("sentinel")
