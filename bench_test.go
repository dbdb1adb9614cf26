// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VI). Each BenchmarkTableN / BenchmarkFigureN target measures the code
// path that produces the corresponding artefact; `go run ./cmd/gecco-bench`
// prints the full side-by-side comparison against the paper's numbers.
// Benchmarks use bounded budgets so a full `go test -bench=.` stays
// laptop-scale; the ablation benches cover the design choices DESIGN.md
// calls out.
package gecco_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gecco"
	"gecco/internal/baselines"
	"gecco/internal/candidates"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/cover"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/experiments"
	"gecco/internal/instances"
	"gecco/internal/mip"
	"gecco/internal/procgen"
)

// benchLogs caches the subset of the synthetic collection used by the
// table benches (small/medium logs; the full set runs via cmd/gecco-bench).
var benchLogs []*eventlog.Log

func collection(b *testing.B) []*eventlog.Log {
	b.Helper()
	if benchLogs == nil {
		specs := procgen.CollectionSpecs()
		for _, i := range []int{0, 3, 6, 8, 10} {
			benchLogs = append(benchLogs, procgen.BuildLog(specs[i]))
		}
	}
	return benchLogs
}

func benchOpts(logs []*eventlog.Log) experiments.Options {
	return experiments.Options{Logs: logs, MaxChecks: 4000, SolverTimeout: 2 * time.Second}
}

// BenchmarkFigure2RunningExampleDFG builds the running example's DFG
// (Figure 2).
func BenchmarkFigure2RunningExampleDFG(b *testing.B) {
	log := procgen.RunningExampleTable1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gecco.DFGDot(log, 1)
	}
}

// BenchmarkFigure3AbstractedDFG runs the full pipeline on the running
// example with the §II role constraint and renders the abstracted DFG
// (Figure 3; the grouping is Figure 7's optimum with dist 3.08).
func BenchmarkFigure3AbstractedDFG(b *testing.B) {
	log := procgen.RunningExampleTable1()
	for i := 0; i < b.N; i++ {
		res, err := gecco.Abstract(log, "distinct(role) <= 1",
			gecco.Config{Mode: gecco.ModeDFGUnbounded, NamePrefix: "clrk"})
		if err != nil || !res.Feasible {
			b.Fatal("pipeline failed")
		}
		_ = gecco.DFGDot(res.Abstracted, 1)
	}
}

// BenchmarkTable3LogCollection generates the 13 synthetic evaluation logs
// and computes their Table III statistics.
func BenchmarkTable3LogCollection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		logs := procgen.Collection()
		for _, log := range logs {
			_ = log.ComputeStats()
		}
	}
}

// BenchmarkTable4ConstraintSets parses and classifies all Table IV
// constraint sets against a log index.
func BenchmarkTable4ConstraintSets(b *testing.B) {
	x := eventlog.NewIndex(procgen.RunningExampleTable1())
	for i := 0; i < b.N; i++ {
		for _, id := range experiments.AllSets() {
			if set, ok := experiments.BuildSet(id, x); ok {
				_ = set.CheckingMode()
			}
		}
	}
}

// BenchmarkTable5ExhaustivePerConstraintSet regenerates Table V (Exh per
// constraint set) on the bench subset of the collection.
func BenchmarkTable5ExhaustivePerConstraintSet(b *testing.B) {
	logs := collection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table5(context.Background(), benchOpts(logs))
	}
}

// BenchmarkTable6Configurations regenerates Table VI (Exh vs DFG∞ vs DFGk).
func BenchmarkTable6Configurations(b *testing.B) {
	logs := collection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table6(context.Background(), benchOpts(logs))
	}
}

// BenchmarkTable7Baselines regenerates Table VII (BL_Q, BL_P, BL_G
// comparisons).
func BenchmarkTable7Baselines(b *testing.B) {
	logs := collection(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.Table7(context.Background(), benchOpts(logs))
	}
}

// BenchmarkFigure1SpaghettiDFG builds the loan log's 80/20 DFG (Figure 1).
func BenchmarkFigure1SpaghettiDFG(b *testing.B) {
	loan := procgen.LoanLog(500, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gecco.DFGDot(loan, 0.8)
	}
}

// BenchmarkFigure8CaseStudyDFG runs the §VI-D case study: origin-system
// constraint on the loan log, 80/20 DFG of the abstraction (Figure 8).
func BenchmarkFigure8CaseStudyDFG(b *testing.B) {
	loan := procgen.LoanLog(500, 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gecco.Abstract(loan, "distinct(class.org) <= 1\n|g| <= 8",
			gecco.Config{Mode: gecco.ModeDFGUnbounded, NameByClassAttr: "org"})
		if err != nil || !res.Feasible {
			b.Fatal("case study failed")
		}
		_ = gecco.DFGDot(res.Abstracted, 0.8)
	}
}

// BenchmarkParallelCandidates measures exhaustive enumeration (Algorithm 1)
// with one worker versus one per CPU on medium synthetic logs under an
// instance-based constraint set (the per-check log passes are the paper's
// Step 1 bottleneck). The sub-benchmarks additionally assert that the
// parallel run returns the exact candidate list of the sequential run.
func BenchmarkParallelCandidates(b *testing.B) {
	logs := collection(b)
	medium := logs[1:3] // the medium logs of the bench subset
	type problem struct {
		x   *eventlog.Index
		set *constraints.Set
	}
	var problems []problem
	for _, log := range medium {
		x := eventlog.NewIndex(log)
		set, ok := experiments.BuildSet(experiments.SetA, x)
		if !ok {
			b.Fatal("constraint set inapplicable")
		}
		problems = append(problems, problem{x, set})
	}
	budget := candidates.Budget{MaxChecks: 8000}
	run := func(workers int) []candidates.Result {
		var out []candidates.Result
		for _, p := range problems {
			ev := constraints.NewEvaluator(p.x, p.set, instances.SplitOnRepeat)
			out = append(out, candidates.Exhaustive(context.Background(), p.x, ev, budget, workers))
		}
		return out
	}
	baseline := run(1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				got := run(workers)
				for pi := range got {
					if len(got[pi].Groups) != len(baseline[pi].Groups) || got[pi].Checks != baseline[pi].Checks {
						b.Fatalf("workers=%d: output diverged from sequential run", workers)
					}
					for gi := range got[pi].Groups {
						if !got[pi].Groups[gi].Equal(baseline[pi].Groups[gi]) {
							b.Fatalf("workers=%d: group %d differs", workers, gi)
						}
					}
				}
			}
		})
	}
}

// BenchmarkStep2MIPShare isolates Step 2 (the paper's §V-C claim that the
// MIP solve contributes marginally to overall runtime): candidate
// computation plus both solvers on the same instance.
func BenchmarkStep2MIPShare(b *testing.B) {
	log := procgen.RunningExample(300, 7)
	set := constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
	x := eventlog.NewIndex(log)
	ev := constraints.NewEvaluator(x, set, instances.SplitOnRepeat)
	dc := distance.NewCalc(x, instances.SplitOnRepeat)
	cr := candidates.Exhaustive(context.Background(), x, ev, candidates.Budget{MaxChecks: 4000}, 1)
	prob := &cover.Problem{NumClasses: x.NumClasses(), Candidates: cr.Groups, MaxGroups: -1}
	for _, g := range cr.Groups {
		prob.Costs = append(prob.Costs, dc.Group(g))
	}
	b.Run("SolverBB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := cover.SolveBB(context.Background(), prob, 0); !r.Feasible {
				b.Fatal("infeasible")
			}
		}
	})
	b.Run("SolverMIP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r, st := cover.SolveMIP(context.Background(), prob, mip.Options{}); !r.Feasible || st != mip.Optimal {
				b.Fatal("infeasible")
			}
		}
	})
}

// BenchmarkAblationExclusiveMerge measures Algorithm 3 on versus off
// (design choice 1 of DESIGN.md §5).
func BenchmarkAblationExclusiveMerge(b *testing.B) {
	log := procgen.RunningExample(300, 11)
	for _, skip := range []bool{false, true} {
		name := "with-merge"
		if skip {
			name = "without-merge"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := gecco.Abstract(log, "distinct(role) <= 1",
					gecco.Config{Mode: gecco.ModeDFGUnbounded, SkipExclusiveMerge: skip})
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// BenchmarkAblationBeamWidth sweeps the beam width (design choice 2).
func BenchmarkAblationBeamWidth(b *testing.B) {
	log := procgen.RunningExample(300, 13)
	for _, k := range []int{1, 8, 40, -1} {
		name := "k=inf"
		if k > 0 {
			name = "k=" + itoa(k)
		}
		mode := gecco.ModeDFGBeam
		if k < 0 {
			mode = gecco.ModeDFGUnbounded
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gecco.Abstract(log, "distinct(role) <= 1",
					gecco.Config{Mode: mode, BeamWidth: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInstancePolicy compares split-on-repeat against
// whole-trace instance segmentation (design choice 4).
func BenchmarkAblationInstancePolicy(b *testing.B) {
	log := procgen.RunningExample(300, 19)
	for _, p := range []struct {
		name   string
		policy instances.Policy
	}{{"split-on-repeat", instances.SplitOnRepeat}, {"whole-trace", instances.WholeTrace}} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := gecco.AbstractSet(log,
					constraints.NewSet(constraints.MustParse("distinct(role) <= 1")),
					gecco.Config{Mode: gecco.ModeDFGUnbounded, Policy: p.policy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselines measures each baseline end to end on one log.
func BenchmarkBaselines(b *testing.B) {
	ctx := context.Background()
	log := procgen.RunningExample(300, 23)
	x := eventlog.NewIndex(log)
	set := constraints.NewSet(constraints.MustParse("|g| <= 5"))
	b.Run("BLQ", func(b *testing.B) {
		sess, err := core.NewSession(log)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := baselines.BLQ(ctx, sess, set, core.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BLP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baselines.BLP(ctx, x, 4, instances.SplitOnRepeat); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BLG", func(b *testing.B) {
		set := constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
		for i := 0; i < b.N; i++ {
			if _, err := baselines.BLG(ctx, x, set, instances.SplitOnRepeat); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
