// Package mip is a branch-and-bound mixed-integer programming solver built
// on the simplex solver of internal/lp. It replaces the paper's use of
// Gurobi for Step 2 of GECCO (§V-C), where the optimal grouping is the
// solution of a 0/1 weighted set-partitioning program. The solver is exact:
// it explores the branch tree best-bound-first with most-fractional
// branching and prunes on the incumbent.
package mip

import (
	"container/heap"
	"context"
	"math"
	"time"

	"gecco/internal/lp"
)

// Problem is an LP plus integrality markers.
type Problem struct {
	LP      lp.Problem
	Integer []bool // len NumVars; true marks an integer-constrained variable
}

// Options tunes the search.
type Options struct {
	MaxNodes  int           // 0 = default (1e6)
	TimeLimit time.Duration // 0 = none
	IntTol    float64       // integrality tolerance, default 1e-6
	Gap       float64       // relative optimality gap to stop at, default 0
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 1_000_000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	return o
}

// Status is the outcome of a MIP solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	NodeLimit // search truncated; Solution may hold the best incumbent
	TimeLimitHit
	// Cancelled means the caller's context was cancelled mid-search; the
	// Solution may still hold the best incumbent found before the cut.
	Cancelled
)

func (s Status) String() string {
	return [...]string{"optimal", "infeasible", "unbounded", "node-limit", "time-limit", "cancelled"}[s]
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	Nodes  int // branch-and-bound nodes explored
}

type node struct {
	lower []float64
	upper []float64
	bound float64 // LP relaxation objective (lower bound for minimisation)
}

type nodeQueue []*node

func (q nodeQueue) Len() int           { return len(q) }
func (q nodeQueue) Less(i, j int) bool { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)        { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() any          { old := *q; n := old[len(old)-1]; *q = old[:len(old)-1]; return n }

// Solve runs branch and bound. Cancellation is checked once per
// branch-and-bound node (and inside each LP subsolve), aborting the search
// with Status Cancelled while keeping the best incumbent found so far. The
// context deadline composes with Options.TimeLimit — whichever expires
// first stops the search.
func Solve(ctx context.Context, p *Problem, opts Options) Solution {
	opts = opts.withDefaults()
	nv := p.LP.NumVars
	if len(p.Integer) != nv {
		panic("mip: Integer length mismatch")
	}
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		//lint:gecco-allow(wallclock): opt-in Options.TimeLimit deadline; the default solve never reads the clock
		deadline = time.Now().Add(opts.TimeLimit)
	}

	baseLower := make([]float64, nv)
	baseUpper := make([]float64, nv)
	for j := 0; j < nv; j++ {
		if p.LP.Lower != nil {
			baseLower[j] = p.LP.Lower[j]
		}
		baseUpper[j] = math.Inf(1)
		if p.LP.Upper != nil {
			baseUpper[j] = p.LP.Upper[j]
		}
	}

	solveLP := func(lo, hi []float64) lp.Solution {
		sub := p.LP
		sub.Lower = lo
		sub.Upper = hi
		return lp.Solve(ctx, &sub)
	}

	root := solveLP(baseLower, baseUpper)
	switch root.Status {
	case lp.Infeasible:
		return Solution{Status: Infeasible}
	case lp.Unbounded:
		return Solution{Status: Unbounded}
	case lp.IterLimit:
		return Solution{Status: NodeLimit}
	case lp.Cancelled:
		return Solution{Status: Cancelled}
	}

	var (
		incumbent    []float64
		incumbentObj = math.Inf(1)
		nodes        int
	)
	q := &nodeQueue{{lower: baseLower, upper: baseUpper, bound: root.Obj}}
	heap.Init(q)

	status := Optimal
	for q.Len() > 0 {
		if nodes >= opts.MaxNodes {
			status = NodeLimit
			break
		}
		if ctx.Err() != nil {
			status = Cancelled
			break
		}
		//lint:gecco-allow(wallclock): deadline probe behind the same opt-in TimeLimit; zero deadline short-circuits before the clock read
		if !deadline.IsZero() && time.Now().After(deadline) {
			status = TimeLimitHit
			break
		}
		n := heap.Pop(q).(*node)
		if n.bound >= incumbentObj-opts.IntTol {
			continue // dominated
		}
		nodes++
		sol := solveLP(n.lower, n.upper)
		if sol.Status == lp.Cancelled {
			status = Cancelled
			break
		}
		if sol.Status != lp.Optimal {
			continue // infeasible or degenerate subproblem
		}
		if sol.Obj >= incumbentObj-opts.IntTol {
			continue
		}
		// Find most fractional integer variable.
		branchVar, worst := -1, opts.IntTol
		for j := 0; j < nv; j++ {
			if !p.Integer[j] {
				continue
			}
			f := math.Abs(sol.X[j] - math.Round(sol.X[j]))
			if f > worst {
				worst = f
				branchVar = j
			}
		}
		if branchVar < 0 {
			// Integral: new incumbent.
			if sol.Obj < incumbentObj {
				incumbentObj = sol.Obj
				incumbent = roundIntegers(sol.X, p.Integer)
			}
			continue
		}
		floorV := math.Floor(sol.X[branchVar])
		// Down branch: x <= floor.
		downHi := clone(n.upper)
		downHi[branchVar] = floorV
		if downHi[branchVar] >= n.lower[branchVar]-opts.IntTol {
			heap.Push(q, &node{lower: n.lower, upper: downHi, bound: sol.Obj})
		}
		// Up branch: x >= floor+1.
		upLo := clone(n.lower)
		upLo[branchVar] = floorV + 1
		if upLo[branchVar] <= n.upper[branchVar]+opts.IntTol {
			heap.Push(q, &node{lower: upLo, upper: n.upper, bound: sol.Obj})
		}
	}

	if incumbent == nil {
		if status == Optimal {
			return Solution{Status: Infeasible, Nodes: nodes}
		}
		return Solution{Status: status, Nodes: nodes}
	}
	return Solution{Status: status, X: incumbent, Obj: incumbentObj, Nodes: nodes}
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

func roundIntegers(x []float64, isInt []bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for j, ii := range isInt {
		if ii {
			out[j] = math.Round(out[j])
		}
	}
	return out
}
