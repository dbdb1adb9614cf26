// Package cover solves Step 2 of GECCO (§V-C): selecting from the candidate
// groups an exact cover of the event classes that minimises total distance,
// optionally subject to grouping constraints bounding the number of selected
// groups (Eq. 5). Two exact solvers are provided and cross-validated in
// tests: the paper's MIP formulation (Eq. 3–5) solved with internal/mip, and
// a direct combinatorial branch and bound specialised to set partitioning,
// which is the default as it is markedly faster on these instances.
package cover

import (
	"context"
	"math"
	"sort"
	"time"

	"gecco/internal/bitset"
	"gecco/internal/lp"
	"gecco/internal/mip"
)

// Problem is a weighted set-partitioning instance.
type Problem struct {
	NumClasses int
	Candidates []bitset.Set
	Costs      []float64
	// MinGroups/MaxGroups bound the number of selected groups;
	// MaxGroups < 0 means unbounded.
	MinGroups int
	MaxGroups int
	// Forbidden lists exact selections (sorted candidate-index sets) that
	// must not be returned — the no-good cuts used to enforce global
	// grouping-instance constraints by iterated re-solving.
	Forbidden [][]int
}

// forbidden reports whether the sorted selection equals a forbidden one.
func (p *Problem) forbidden(sel []int) bool {
	for _, f := range p.Forbidden {
		if len(f) != len(sel) {
			continue
		}
		same := true
		for i := range f {
			if f[i] != sel[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// Result is a solve outcome.
type Result struct {
	Feasible bool
	Selected []int // indices into Candidates, sorted
	Cost     float64
	Nodes    int
	// UncoveredClasses lists class ids no candidate covers (an immediate
	// infeasibility cause surfaced to the user per §V-C).
	UncoveredClasses []int
}

// SolveBB solves the problem exactly with depth-first branch and bound over
// classes. Costs must be non-negative (GECCO's distance always is); +Inf
// costs effectively remove a candidate. The search stops — keeping the best
// incumbent found so far, with Feasible reflecting it — when ctx is
// cancelled or when its deadline or the wall-clock budget (> 0; whichever
// is earlier) expires. Budget 0 with a never-cancelled context is exact.
func SolveBB(ctx context.Context, p *Problem, budget time.Duration) Result {
	deadline := time.Time{}
	if budget > 0 {
		//lint:gecco-allow(wallclock): opt-in wall-clock budget; exact solves pass budget=0 and never read the clock
		deadline = time.Now().Add(budget)
	}
	if cd, ok := ctx.Deadline(); ok && (deadline.IsZero() || cd.Before(deadline)) {
		deadline = cd
	}
	return solveBB(ctx, p, deadline)
}

func solveBB(ctx context.Context, p *Problem, deadline time.Time) Result {
	nC := p.NumClasses
	// byClass[c] lists candidates covering class c, cheapest first.
	byClass := make([][]int, nC)
	for gi, g := range p.Candidates {
		if math.IsInf(p.Costs[gi], 1) {
			continue
		}
		g.ForEach(func(c int) bool {
			byClass[c] = append(byClass[c], gi)
			return true
		})
	}
	var uncovered []int
	for c := 0; c < nC; c++ {
		if len(byClass[c]) == 0 {
			uncovered = append(uncovered, c)
		}
	}
	if len(uncovered) > 0 {
		return Result{UncoveredClasses: uncovered}
	}
	for c := range byClass {
		cands := byClass[c]
		sort.Slice(cands, func(i, j int) bool { return p.Costs[cands[i]] < p.Costs[cands[j]] })
	}
	// minShare[c]: lower bound on the per-class apportioned cost, valid
	// because every candidate distributes cost/|g| over its classes.
	minShare := make([]float64, nC)
	maxCandSize := 1
	for c := 0; c < nC; c++ {
		best := math.Inf(1)
		for _, gi := range byClass[c] {
			share := p.Costs[gi] / float64(p.Candidates[gi].Len())
			if share < best {
				best = share
			}
		}
		minShare[c] = best
	}
	for _, g := range p.Candidates {
		if l := g.Len(); l > maxCandSize {
			maxCandSize = l
		}
	}

	covered := bitset.New(nC)
	var (
		bestCost     = math.Inf(1)
		bestSel      []int
		curSel       []int
		nodes        int
		timedOut     bool
		checkCounter int
	)
	// Greedy warm start: repeatedly take the cheapest-per-class compatible
	// candidate. A full cover found this way seeds the incumbent and makes
	// the lower-bound pruning bite from the first node.
	if g, cost, ok := greedyCover(p, byClass); ok && !p.forbidden(g) {
		bestCost, bestSel = cost, g
	}
	var lbRemaining func(covered bitset.Set) float64
	lbRemaining = func(covered bitset.Set) float64 {
		s := 0.0
		for c := 0; c < nC; c++ {
			if !covered.Contains(c) {
				s += minShare[c]
			}
		}
		return s
	}

	var rec func(cost float64, numUncovered int)
	rec = func(cost float64, numUncovered int) {
		nodes++
		if timedOut {
			return
		}
		checkCounter++
		if checkCounter&1023 == 0 {
			if ctx.Err() != nil {
				timedOut = true
				return
			}
			//lint:gecco-allow(wallclock): deadline probe behind the same opt-in budget; zero deadline short-circuits before the clock read
			if !deadline.IsZero() && time.Now().After(deadline) {
				timedOut = true
				return
			}
		}
		if numUncovered == 0 {
			if len(curSel) >= p.MinGroups && cost < bestCost {
				sorted := append([]int(nil), curSel...)
				sort.Ints(sorted)
				if !p.forbidden(sorted) {
					bestCost = cost
					bestSel = sorted
				}
			}
			return
		}
		// Group-count pruning.
		if p.MaxGroups >= 0 {
			minMore := (numUncovered + maxCandSize - 1) / maxCandSize
			if len(curSel)+minMore > p.MaxGroups {
				return
			}
		}
		if len(curSel)+numUncovered < p.MinGroups {
			return
		}
		if cost+lbRemaining(covered) >= bestCost {
			return
		}
		// Branch on the uncovered class with fewest compatible candidates.
		// Counting stops at the current minimum (only relative order
		// matters), which turns the selection from O(classes × candidates)
		// into nearly O(classes × min-count) per node.
		branch, branchOptions := -1, math.MaxInt
		for c := 0; c < nC; c++ {
			if covered.Contains(c) {
				continue
			}
			n := 0
			for _, gi := range byClass[c] {
				if !p.Candidates[gi].Intersects(covered) {
					n++
					if n >= branchOptions {
						break // cannot become the new minimum
					}
				}
			}
			if n == 0 {
				return // dead end
			}
			if n < branchOptions {
				branchOptions = n
				branch = c
				if n == 1 {
					break // forced move; no better branch exists
				}
			}
		}
		for _, gi := range byClass[branch] {
			g := p.Candidates[gi]
			if g.Intersects(covered) {
				continue
			}
			newCost := cost + p.Costs[gi]
			if newCost >= bestCost {
				continue // candidates are cost-sorted but LB pruning still applies below
			}
			g.ForEach(func(c int) bool { covered.Add(c); return true })
			curSel = append(curSel, gi)
			rec(newCost, numUncovered-g.Len())
			curSel = curSel[:len(curSel)-1]
			g.ForEach(func(c int) bool { covered.Remove(c); return true })
			if timedOut {
				return
			}
		}
	}
	rec(0, nC)

	if bestSel == nil {
		return Result{Nodes: nodes}
	}
	sort.Ints(bestSel)
	return Result{Feasible: true, Selected: bestSel, Cost: bestCost, Nodes: nodes}
}

// greedyCover builds an exact cover greedily by repeatedly selecting the
// candidate with the lowest cost-per-class among those compatible with the
// selection, honouring the group-count bounds. Returns ok=false when the
// greedy path dead-ends (the exact search may still succeed).
func greedyCover(p *Problem, byClass [][]int) ([]int, float64, bool) {
	nC := p.NumClasses
	covered := bitset.New(nC)
	var sel []int
	cost := 0.0
	for covered.Len() < nC {
		best, bestShare := -1, math.Inf(1)
		for c := 0; c < nC; c++ {
			if covered.Contains(c) {
				continue
			}
			for _, gi := range byClass[c] {
				g := p.Candidates[gi]
				if g.Intersects(covered) {
					continue
				}
				if share := p.Costs[gi] / float64(g.Len()); share < bestShare {
					bestShare = share
					best = gi
				}
			}
		}
		if best < 0 {
			return nil, 0, false
		}
		g := p.Candidates[best]
		g.ForEach(func(c int) bool { covered.Add(c); return true })
		sel = append(sel, best)
		cost += p.Costs[best]
		if p.MaxGroups >= 0 && len(sel) > p.MaxGroups {
			return nil, 0, false
		}
	}
	if len(sel) < p.MinGroups {
		return nil, 0, false
	}
	sort.Ints(sel)
	return sel, cost, true
}

// SolveMIP solves the problem via the paper's MIP formulation (Eq. 3–5):
// binary selected_g and covered_c variables with coverage-linking rows.
// Cancelling ctx aborts the branch-and-bound search (see mip.Solve).
func SolveMIP(ctx context.Context, p *Problem, opts mip.Options) (Result, mip.Status) {
	nG := len(p.Candidates)
	nC := p.NumClasses
	nv := nG + nC // selected_0..nG-1, covered_0..nC-1

	prob := &mip.Problem{
		LP: lp.Problem{
			NumVars: nv,
			C:       make([]float64, nv),
			Upper:   make([]float64, nv),
		},
		Integer: make([]bool, nv),
	}
	for j := 0; j < nv; j++ {
		prob.LP.Upper[j] = 1
		prob.Integer[j] = true
	}
	infeasibleCost := false
	for gi := 0; gi < nG; gi++ {
		c := p.Costs[gi]
		if math.IsInf(c, 1) {
			// Exclude the candidate by fixing selected_gi = 0.
			prob.LP.Upper[gi] = 0
			c = 0
			infeasibleCost = true
		}
		prob.LP.C[gi] = c
	}
	_ = infeasibleCost

	addRow := func(coeffs map[int]float64, op lp.RelOp, rhs float64) {
		row := make([]float64, nv)
		for j, v := range coeffs {
			row[j] = v
		}
		prob.LP.A = append(prob.LP.A, row)
		prob.LP.Ops = append(prob.LP.Ops, op)
		prob.LP.B = append(prob.LP.B, rhs)
	}

	// Eq. 3: sum of covered_c equals |CL|.
	cov := make(map[int]float64, nC)
	for c := 0; c < nC; c++ {
		cov[nG+c] = 1
	}
	addRow(cov, lp.EQ, float64(nC))
	// Eq. 4: per class, sum of selected groups covering it equals covered_c.
	for c := 0; c < nC; c++ {
		row := map[int]float64{nG + c: -1}
		for gi, g := range p.Candidates {
			if g.Contains(c) {
				row[gi] = 1
			}
		}
		addRow(row, lp.EQ, 0)
	}
	// No-good cuts: a forbidden selection F is excluded via
	// sum_{g in F} selected_g - sum_{g not in F} selected_g <= |F| - 1,
	// which cuts off exactly that selection.
	for _, f := range p.Forbidden {
		inF := make(map[int]bool, len(f))
		for _, gi := range f {
			inF[gi] = true
		}
		row := make(map[int]float64, nG)
		for gi := 0; gi < nG; gi++ {
			if inF[gi] {
				row[gi] = 1
			} else {
				row[gi] = -1
			}
		}
		addRow(row, lp.LE, float64(len(f)-1))
	}
	// Eq. 5: grouping bounds.
	if p.MaxGroups >= 0 {
		sel := make(map[int]float64, nG)
		for gi := 0; gi < nG; gi++ {
			sel[gi] = 1
		}
		addRow(sel, lp.LE, float64(p.MaxGroups))
	}
	if p.MinGroups > 0 {
		sel := make(map[int]float64, nG)
		for gi := 0; gi < nG; gi++ {
			sel[gi] = 1
		}
		addRow(sel, lp.GE, float64(p.MinGroups))
	}

	sol := mip.Solve(ctx, prob, opts)
	// Like SolveBB, a truncated search (time limit, cancellation, node
	// limit) still yields its best incumbent when one was found; only a
	// solve with no integral solution at all is infeasible.
	if sol.X == nil {
		return Result{Nodes: sol.Nodes}, sol.Status
	}
	var selected []int
	cost := 0.0
	for gi := 0; gi < nG; gi++ {
		if sol.X[gi] > 0.5 {
			selected = append(selected, gi)
			cost += p.Costs[gi]
		}
	}
	return Result{Feasible: true, Selected: selected, Cost: cost, Nodes: sol.Nodes}, sol.Status
}
