// Package core orchestrates the GECCO pipeline of §V: Step 1 candidate
// computation (exhaustive or DFG-based, plus exclusive-alternative merging),
// Step 2 optimal grouping via weighted set partitioning, and Step 3 trace
// abstraction. The one-shot Run entry point is a thin wrapper
// over the two-phase Session engine (session.go), which builds the
// constraint-independent artifacts of a log once and solves many constraint
// sets on top of them. The root package gecco wraps this with the public
// API.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"gecco/internal/abstraction"
	"gecco/internal/bitset"
	"gecco/internal/candidates"
	"gecco/internal/constraints"
	"gecco/internal/dfg"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
)

// Mode selects the Step 1 instantiation (§V-B and the configurations of
// §VI-A).
type Mode int

const (
	// Exhaustive is Algorithm 1 (configuration Exh).
	Exhaustive Mode = iota
	// DFGUnbounded is Algorithm 2 without beam pruning (DFG∞).
	DFGUnbounded
	// DFGBeam is Algorithm 2 with beam width k (DFGk); the paper uses
	// k = 5·|C_L|, which is the default when BeamWidth is 0.
	DFGBeam
)

func (m Mode) String() string {
	return [...]string{"Exh", "DFG∞", "DFGk"}[m]
}

// Solver selects the Step 2 solver.
type Solver int

const (
	// SolverBB is the direct branch-and-bound set-partitioning solver
	// (default; exact and fastest on these instances).
	SolverBB Solver = iota
	// SolverMIP uses the paper's MIP formulation on internal/mip.
	SolverMIP
)

// Config tunes a pipeline run. The zero value is a sensible default:
// exhaustive candidates, unlimited budget, completion-only abstraction.
type Config struct {
	Mode      Mode
	BeamWidth int // DFGBeam only; 0 means 5·|C_L|
	// Workers is the number of workers Step 1 and the distance hot path
	// fan out to; <= 0 means one per CPU (runtime.NumCPU()). With no
	// Budget.TimeLimit set, any worker count produces byte-identical
	// results: parallel frontiers are merged in deterministic order and
	// all memoised evaluations run exactly once. (A wall-clock limit cuts
	// work at a timing-dependent point, so runs under TimeLimit are not
	// reproducible at any worker count — exactly as in the sequential
	// implementation.)
	Workers  int
	Strategy abstraction.Strategy
	Policy   instances.Policy
	Budget   candidates.Budget
	Solver   Solver
	// SolverTimeout caps Step 2; zero means none. On expiry the best
	// incumbent found is used.
	SolverTimeout time.Duration
	// SkipExclusiveMerge disables Algorithm 3 (ablation §VI / DESIGN.md).
	SkipExclusiveMerge bool
	// NamePrefix labels multi-class activities; default "Activity ".
	NamePrefix string
	// NameByClassAttr, when set, prefixes activity labels with the group's
	// unique value of this class-level attribute (e.g. "org" yields labels
	// like "A_Activity 1" as in Figure 8).
	NameByClassAttr string
	// CustomCandidates, when non-nil, replaces Step 1 entirely (Mode and
	// Budget are ignored). Used by the graph-querying baseline BL_Q, which
	// substitutes its own candidate computation while keeping Steps 2–3.
	CustomCandidates func(x *eventlog.Index, graph *dfg.Graph) ([]bitset.Set, error)
	// GroupingOnly skips Step 3 (rewriting the log): the result carries the
	// selected grouping, names and distance, but Result.Abstracted stays nil
	// on feasible runs. Callers that only consume the grouping — the online
	// abstractor regroups a window but rewrites traces itself, one arrival at
	// a time — avoid paying an O(window) abstraction pass per regroup.
	GroupingOnly bool
}

// Timings records per-step wall-clock durations.
type Timings struct {
	Candidates time.Duration
	Solve      time.Duration
	Abstract   time.Duration
}

// Total returns the summed step durations.
func (t Timings) Total() time.Duration { return t.Candidates + t.Solve + t.Abstract }

// Result is the outcome of a pipeline run.
type Result struct {
	Feasible bool
	// Grouping holds the selected groups and their activity names (only
	// when feasible).
	Grouping abstraction.Grouping
	// GroupClasses lists, per selected group, the member class names.
	GroupClasses [][]string
	Distance     float64
	// Abstracted is the abstracted log L' when feasible; otherwise the
	// original log, as the paper prescribes (§V-C).
	Abstracted *eventlog.Log
	// Diagnostics explains infeasibility (nil when feasible).
	Diagnostics *constraints.Violations

	NumCandidates      int
	CandidatesTimedOut bool
	ConstraintChecks   int
	// ScreenedChecks counts instance-constraint verdicts this solve decided
	// from the bitset screens alone, without materialising instances.
	ScreenedChecks int
	// LBPruned counts beam-frontier nodes this solve skipped via the
	// admissible distance lower bound instead of an exact Eq. 1 evaluation.
	LBPruned    int
	SolverNodes int
	Timings     Timings
}

// Run executes the full GECCO pipeline on the log under the constraint set.
// Cancellation (a disconnected client, a server shutdown) stops the
// pipeline mid-frontier and mid-solve and returns an error wrapping
// ctx.Err(); a context deadline composes with Budget.TimeLimit — whichever
// expires first cuts the candidate frontier, and only the context's own
// expiry turns into an error. A never-cancelled context never changes the
// result.
//
// Run builds a fresh Session per call; callers that abstract the same log
// repeatedly should hold a Session and call Solve instead.
func Run(ctx context.Context, log *eventlog.Log, set *constraints.Set, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s, err := NewSession(log)
	if err != nil {
		return nil, err
	}
	// Passing the log through preserves the historical contract that an
	// infeasible one-shot run returns the caller's exact *Log — without the
	// session materialising a copy only to have it discarded.
	return s.solve(ctx, set, cfg, log)
}

// sortByFirstOccurrence orders groups by the position at which any of their
// classes first appears in the log, so that activity numbering follows the
// process flow (clrk1 before clrk2 in the running example).
func sortByFirstOccurrence(x *eventlog.Index, groups []bitset.Set) {
	first := make([]int, len(groups))
	for i := range first {
		first[i] = 1 << 30
	}
	pos := 0
	for t := 0; t < x.NumTraces(); t++ {
		for _, c := range x.Seq(t) {
			for gi, g := range groups {
				if first[gi] > pos && g.Contains(int(c)) {
					first[gi] = pos
				}
			}
			pos++
		}
	}
	type pair struct {
		f int
		g bitset.Set
	}
	pairs := make([]pair, len(groups))
	for i := range groups {
		pairs[i] = pair{first[i], groups[i]}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].f < pairs[j].f })
	for i := range pairs {
		groups[i] = pairs[i].g
	}
}

// namer isolates activity naming so it can be unit-tested.
type namer struct{}

var a namer

func (namer) names(cfg Config, x *eventlog.Index, groups []bitset.Set) []string {
	prefix := cfg.NamePrefix
	if prefix == "" {
		prefix = "Activity "
	}
	if cfg.NameByClassAttr == "" {
		return abstraction.AutoNames(x, groups, prefix)
	}
	vals := x.ClassAttrValues(cfg.NameByClassAttr)
	names := make([]string, len(groups))
	counters := make(map[string]int)
	for i, g := range groups {
		if g.Len() == 1 {
			names[i] = x.Classes[g.Min()]
			continue
		}
		distinct := make(map[string]struct{})
		g.ForEach(func(c int) bool {
			for v := range vals[c] {
				distinct[v] = struct{}{}
			}
			return true
		})
		tag := ""
		if len(distinct) == 1 {
			for v := range distinct {
				tag = v + "_"
			}
		}
		counters[tag]++
		names[i] = fmt.Sprintf("%s%s%d", tag, prefix, counters[tag])
	}
	return names
}
