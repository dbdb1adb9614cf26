package cover

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"gecco/internal/bitset"
	"gecco/internal/mip"
)

func mkGroups(n int, groups [][]int) []bitset.Set {
	out := make([]bitset.Set, len(groups))
	for i, g := range groups {
		out[i] = bitset.FromSlice(n, g)
	}
	return out
}

func TestSimplePartition(t *testing.T) {
	// Classes {0,1,2}; candidates {0,1} cost 1, {2} cost 1, {0} cost 1,
	// {1,2} cost 5. Optimum: {0,1}+{2} = 2.
	p := &Problem{
		NumClasses: 3,
		Candidates: mkGroups(3, [][]int{{0, 1}, {2}, {0}, {1, 2}}),
		Costs:      []float64{1, 1, 1, 5},
		MaxGroups:  -1,
	}
	r := SolveBB(context.Background(), p, 0)
	if !r.Feasible || math.Abs(r.Cost-2) > 1e-9 {
		t.Fatalf("r = %+v", r)
	}
	if len(r.Selected) != 2 || r.Selected[0] != 0 || r.Selected[1] != 1 {
		t.Fatalf("selected %v", r.Selected)
	}
}

func TestInfeasibleUncovered(t *testing.T) {
	p := &Problem{
		NumClasses: 3,
		Candidates: mkGroups(3, [][]int{{0, 1}}),
		Costs:      []float64{1},
		MaxGroups:  -1,
	}
	r := SolveBB(context.Background(), p, 0)
	if r.Feasible {
		t.Fatal("expected infeasible")
	}
	if len(r.UncoveredClasses) != 1 || r.UncoveredClasses[0] != 2 {
		t.Fatalf("uncovered %v", r.UncoveredClasses)
	}
}

func TestInfeasibleOverlapOnly(t *testing.T) {
	// All classes covered, but only overlapping candidates: {0,1}, {1,2}.
	// No exact cover exists without singleton {2}/{0}.
	p := &Problem{
		NumClasses: 3,
		Candidates: mkGroups(3, [][]int{{0, 1}, {1, 2}}),
		Costs:      []float64{1, 1},
		MaxGroups:  -1,
	}
	if r := SolveBB(context.Background(), p, 0); r.Feasible {
		t.Fatal("expected infeasible cover")
	}
}

func TestMaxGroupsBound(t *testing.T) {
	// Without bound the optimum uses 3 singletons (cost 3); with
	// MaxGroups=2 it must pick {0,1} (cost 2.5) + {2} (cost 1).
	p := &Problem{
		NumClasses: 3,
		Candidates: mkGroups(3, [][]int{{0}, {1}, {2}, {0, 1}}),
		Costs:      []float64{1, 1, 1, 2.5},
		MaxGroups:  -1,
	}
	r := SolveBB(context.Background(), p, 0)
	if math.Abs(r.Cost-3) > 1e-9 {
		t.Fatalf("unbounded cost = %f, want 3", r.Cost)
	}
	p.MaxGroups = 2
	r = SolveBB(context.Background(), p, 0)
	if !r.Feasible || math.Abs(r.Cost-3.5) > 1e-9 || len(r.Selected) != 2 {
		t.Fatalf("bounded r = %+v", r)
	}
}

func TestMinGroupsBound(t *testing.T) {
	// Optimum without bound is the single full group (cost 1); MinGroups=3
	// forces singletons.
	p := &Problem{
		NumClasses: 3,
		Candidates: mkGroups(3, [][]int{{0, 1, 2}, {0}, {1}, {2}}),
		Costs:      []float64{1, 1, 1, 1},
		MinGroups:  3,
		MaxGroups:  -1,
	}
	r := SolveBB(context.Background(), p, 0)
	if !r.Feasible || len(r.Selected) != 3 || math.Abs(r.Cost-3) > 1e-9 {
		t.Fatalf("r = %+v", r)
	}
}

func TestInfiniteCostExcluded(t *testing.T) {
	p := &Problem{
		NumClasses: 2,
		Candidates: mkGroups(2, [][]int{{0, 1}, {0}, {1}}),
		Costs:      []float64{math.Inf(1), 1, 1},
		MaxGroups:  -1,
	}
	r := SolveBB(context.Background(), p, 0)
	if !r.Feasible || len(r.Selected) != 2 {
		t.Fatalf("r = %+v", r)
	}
}

// brute enumerates all candidate subsets for a reference solution.
func brute(p *Problem) (float64, bool) {
	n := len(p.Candidates)
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		covered := bitset.New(p.NumClasses)
		cost := 0.0
		count := 0
		ok := true
		for i := 0; i < n && ok; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			if p.Candidates[i].Intersects(covered) {
				ok = false
				break
			}
			covered = covered.Union(p.Candidates[i])
			cost += p.Costs[i]
			count++
		}
		if !ok || covered.Len() != p.NumClasses {
			continue
		}
		if count < p.MinGroups || (p.MaxGroups >= 0 && count > p.MaxGroups) {
			continue
		}
		if cost < best {
			best = cost
			found = true
		}
	}
	return best, found
}

// Randomised cross-validation: BB vs MIP vs brute force.
func TestRandomisedCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		nC := 3 + rng.Intn(4)  // 3..6 classes
		nG := 4 + rng.Intn(10) // 4..13 candidates
		p := &Problem{NumClasses: nC, MaxGroups: -1}
		for g := 0; g < nG; g++ {
			set := bitset.New(nC)
			for c := 0; c < nC; c++ {
				if rng.Intn(3) == 0 {
					set.Add(c)
				}
			}
			if set.IsEmpty() {
				set.Add(rng.Intn(nC))
			}
			p.Candidates = append(p.Candidates, set)
			p.Costs = append(p.Costs, 0.1+rng.Float64()*3)
		}
		if rng.Intn(3) == 0 {
			p.MaxGroups = 1 + rng.Intn(nC)
		}
		if rng.Intn(4) == 0 {
			p.MinGroups = 1 + rng.Intn(2)
		}
		ref, feasible := brute(p)
		bb := SolveBB(context.Background(), p, 0)
		mipRes, mipStatus := SolveMIP(context.Background(), p, mip.Options{})
		if bb.Feasible != feasible {
			t.Fatalf("trial %d: BB feasible=%v brute=%v", trial, bb.Feasible, feasible)
		}
		if feasible {
			if math.Abs(bb.Cost-ref) > 1e-6 {
				t.Fatalf("trial %d: BB cost %f, brute %f", trial, bb.Cost, ref)
			}
			if mipStatus != mip.Optimal || math.Abs(mipRes.Cost-ref) > 1e-6 {
				t.Fatalf("trial %d: MIP status %v cost %f, brute %f", trial, mipStatus, mipRes.Cost, ref)
			}
		} else if mipRes.Feasible {
			t.Fatalf("trial %d: MIP found solution for infeasible instance", trial)
		}
		// Validate the BB selection is an exact cover.
		if feasible {
			covered := bitset.New(nC)
			for _, gi := range bb.Selected {
				if p.Candidates[gi].Intersects(covered) {
					t.Fatalf("trial %d: overlapping selection", trial)
				}
				covered = covered.Union(p.Candidates[gi])
			}
			if covered.Len() != nC {
				t.Fatalf("trial %d: selection does not cover", trial)
			}
		}
	}
}

// No-good cuts: forbidding the optimum must yield the second-best cover in
// both solvers.
func TestForbiddenSelections(t *testing.T) {
	p := &Problem{
		NumClasses: 3,
		Candidates: mkGroups(3, [][]int{{0, 1, 2}, {0, 1}, {2}, {0}, {1}}),
		Costs:      []float64{1, 0.9, 0.8, 1, 1},
		MaxGroups:  -1,
	}
	first := SolveBB(context.Background(), p, 0)
	if !first.Feasible || len(first.Selected) != 1 || first.Selected[0] != 0 {
		t.Fatalf("first = %+v", first)
	}
	p.Forbidden = append(p.Forbidden, first.Selected)
	second := SolveBB(context.Background(), p, 0)
	if !second.Feasible {
		t.Fatal("second-best should exist")
	}
	if len(second.Selected) == 1 && second.Selected[0] == 0 {
		t.Fatal("forbidden selection returned again")
	}
	if math.Abs(second.Cost-1.7) > 1e-9 { // {0,1} + {2}
		t.Fatalf("second cost = %f, want 1.7", second.Cost)
	}
	// MIP agrees.
	mipRes, st := SolveMIP(context.Background(), p, mip.Options{})
	if st != mip.Optimal || math.Abs(mipRes.Cost-1.7) > 1e-9 {
		t.Fatalf("MIP second: status %v cost %f", st, mipRes.Cost)
	}
	// Forbid that too: only singletons remain (cost 2.8).
	p.Forbidden = append(p.Forbidden, second.Selected)
	third := SolveBB(context.Background(), p, 0)
	if !third.Feasible || math.Abs(third.Cost-2.8) > 1e-9 {
		t.Fatalf("third = %+v", third)
	}
}

// Exhausting all covers via no-good cuts ends in infeasibility.
func TestForbiddenExhaustion(t *testing.T) {
	p := &Problem{
		NumClasses: 2,
		Candidates: mkGroups(2, [][]int{{0, 1}, {0}, {1}}),
		Costs:      []float64{1, 1, 1},
		MaxGroups:  -1,
	}
	for i := 0; i < 2; i++ {
		r := SolveBB(context.Background(), p, 0)
		if !r.Feasible {
			t.Fatalf("round %d should be feasible", i)
		}
		p.Forbidden = append(p.Forbidden, r.Selected)
	}
	if r := SolveBB(context.Background(), p, 0); r.Feasible {
		t.Fatalf("all covers forbidden, got %+v", r)
	}
}

// The greedy warm start never reports a better-than-optimal incumbent.
func TestGreedyWarmStartConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		nC := 3 + rng.Intn(4)
		p := &Problem{NumClasses: nC, MaxGroups: -1}
		for g := 0; g < 6+rng.Intn(6); g++ {
			set := bitset.New(nC)
			for c := 0; c < nC; c++ {
				if rng.Intn(2) == 0 {
					set.Add(c)
				}
			}
			if set.IsEmpty() {
				set.Add(rng.Intn(nC))
			}
			p.Candidates = append(p.Candidates, set)
			p.Costs = append(p.Costs, 0.1+rng.Float64())
		}
		ref, feasible := brute(p)
		r := SolveBB(context.Background(), p, 0)
		if r.Feasible != feasible {
			t.Fatalf("trial %d feasibility mismatch", trial)
		}
		if feasible && math.Abs(r.Cost-ref) > 1e-9 {
			t.Fatalf("trial %d: %f vs brute %f", trial, r.Cost, ref)
		}
	}
}
