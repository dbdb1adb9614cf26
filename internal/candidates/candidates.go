// Package candidates implements Step 1 of GECCO (§V-B): the computation of
// candidate groups of event classes that satisfy the user constraints.
// Three procedures are provided, mirroring the paper: exhaustive lattice
// enumeration (Algorithm 1), DFG-guided beam search (Algorithm 2), and the
// merging of exclusive behavioural alternatives (Algorithm 3). All honour a
// budget: like the paper's 5-hour timeout, on exhaustion the candidates
// found so far are returned and the pipeline continues.
//
// Both enumeration procedures evaluate their frontiers in parallel across a
// worker pool while staying deterministic: the items of a frontier are
// scored concurrently into an index-aligned verdict array and merged
// sequentially in frontier order, so the candidate set — and therefore every
// downstream result — is identical for any worker count. Frontier items all
// have the same group size, so the monotonicity shortcut (which consults the
// candidates of strictly smaller sizes) reads only frozen state during the
// parallel phase.
package candidates

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"gecco/internal/bitset"
	"gecco/internal/constraints"
	"gecco/internal/dfg"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/par"
)

// Budget caps candidate computation. Zero values mean "unlimited".
type Budget struct {
	MaxChecks int           // maximum groups/paths assessed
	TimeLimit time.Duration // wall-clock limit
}

// deadlineSampleInterval is how often (in checks) the wall clock is
// consulted against TimeLimit. The deadline is also tested on the very
// first check after start(), so a budget that is already expired — or a
// single slow constraint evaluation right at the start — cannot run an
// entire sampling window past the limit. Between samples the overshoot is
// bounded by the cost of deadlineSampleInterval constraint checks.
const deadlineSampleInterval = 64

// budgetState tracks budget consumption. It is safe for concurrent use:
// reservations and work counts are atomic, so frontier workers can consume
// the budget concurrently. Consumption is two-phase: grant reserves a whole
// frontier against MaxChecks up front (making the MaxChecks cut
// deterministic for any worker count), then each worker calls tick per item
// it actually evaluates (counting real work and sampling the deadline).
// MaxChecks exhaustion and deadline expiry are tracked separately: a short
// grant must not stop workers from evaluating the items already granted —
// that is what reproduces the sequential semantics of "assess exactly
// MaxChecks groups, then stop".
//
// The state also composes the caller's context with TimeLimit: the earlier
// of the two deadlines cuts the frontier, and cancellation is sampled at
// the same points as the deadline, so a cancelled context stops the
// enumeration mid-frontier within deadlineSampleInterval evaluations.
type budgetState struct {
	Budget
	ctx       context.Context
	deadline  time.Time
	reserved  atomic.Int64 // checks reserved against MaxChecks
	ticks     atomic.Int64 // items actually evaluated (Checks reporting, deadline sampling)
	maxedOut  atomic.Bool  // MaxChecks exhausted
	timedOut  atomic.Bool  // deadline passed
	cancelled atomic.Bool  // ctx cancelled
}

func (b *budgetState) start(ctx context.Context) {
	b.ctx = ctx
	if b.TimeLimit > 0 {
		//lint:gecco-allow(wallclock): opt-in Budget.TimeLimit deadline; solvers are deterministic when no time limit is set
		b.deadline = time.Now().Add(b.TimeLimit)
	}
	// Whichever of Budget.TimeLimit and the context deadline expires first
	// cuts the frontier.
	if cd, ok := ctx.Deadline(); ok && (b.deadline.IsZero() || cd.Before(b.deadline)) {
		b.deadline = cd
	}
	if ctx.Err() != nil {
		b.cancelled.Store(true)
	}
}

// exceeded reports whether any budget dimension is exhausted.
func (b *budgetState) exceeded() bool {
	return b.maxedOut.Load() || b.timedOut.Load() || b.cancelled.Load()
}

// tick records one evaluated item and reports whether the deadline still
// holds and the context is still live; on expiry or cancellation the item
// must not be evaluated. The wall clock and the context are sampled on the
// first tick and every deadlineSampleInterval-th thereafter.
func (b *budgetState) tick() bool {
	if b.timedOut.Load() || b.cancelled.Load() {
		return false
	}
	t := b.ticks.Add(1)
	sample := t == 1 || t%deadlineSampleInterval == 0
	if sample && b.ctx != nil && b.ctx.Err() != nil {
		b.cancelled.Store(true)
		b.ticks.Add(-1) // the cancelled item is not evaluated
		return false
	}
	if b.deadline.IsZero() {
		return true
	}
	//lint:gecco-allow(wallclock): sampled deadline probe behind the same opt-in TimeLimit; sampling keeps the hot loop clock-free
	if sample && time.Now().After(b.deadline) {
		b.timedOut.Store(true)
		b.ticks.Add(-1) // the expired item is not evaluated
		return false
	}
	return true
}

// grant atomically reserves up to n checks against MaxChecks and returns
// how many were granted. A short grant marks MaxChecks exhausted; the
// granted items are still evaluated.
func (b *budgetState) grant(n int) int {
	if n <= 0 || b.exceeded() {
		return 0
	}
	if b.MaxChecks <= 0 {
		b.reserved.Add(int64(n))
		return n
	}
	for {
		cur := b.reserved.Load()
		rem := int64(b.MaxChecks) - cur
		if rem <= 0 {
			b.maxedOut.Store(true)
			return 0
		}
		g := int64(n)
		if g > rem {
			g = rem
		}
		if b.reserved.CompareAndSwap(cur, cur+g) {
			if g < int64(n) {
				b.maxedOut.Store(true)
			}
			return int(g)
		}
	}
}

// checks reports the number of items actually evaluated — unlike the
// reservation count, this stays accurate when a deadline expires after a
// frontier was granted but before all its items ran.
func (b *budgetState) checks() int { return int(b.ticks.Load()) }

// Result is the output of a candidate computation.
type Result struct {
	Groups   []bitset.Set
	TimedOut bool // budget exhausted; Groups holds what was found so far
	Checks   int  // groups/paths assessed
}

// set tracks candidate groups with key-based deduplication. It is only
// mutated from the sequential merge phases; workers read it concurrently
// through contains/hasSatisfyingSubset, which is safe because no writer is
// active during a parallel frontier evaluation.
type set struct {
	keys   map[string]struct{}
	groups []bitset.Set
}

func newSet() *set { return &set{keys: make(map[string]struct{})} }

func (s *set) add(g bitset.Set) bool {
	k := g.Key()
	if _, ok := s.keys[k]; ok {
		return false
	}
	s.keys[k] = struct{}{}
	s.groups = append(s.groups, g)
	return true
}

func (s *set) contains(g bitset.Set) bool {
	_, ok := s.keys[g.Key()]
	return ok
}

// hasSatisfyingSubset reports whether some size-(|g|-1) subset of g is a
// known candidate. In the monotonic mode this implies (by induction over
// the lattice walk) that g satisfies all monotonic constraints.
func (s *set) hasSatisfyingSubset(g bitset.Set, universe int) bool {
	found := false
	g.ForEach(func(c int) bool {
		sub := g.Clone()
		sub.Remove(c)
		if !sub.IsEmpty() && s.contains(sub) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Exhaustive implements Algorithm 1: iterative enumeration of co-occurring
// groups of increasing size with monotonicity-based pruning. The frontier of
// each lattice level is evaluated in parallel across workers (<= 0 means one
// per CPU); results are merged in frontier order, so the output is identical
// for any worker count. The enumeration stops mid-frontier when ctx is
// cancelled or its deadline (composed with Budget.TimeLimit, whichever is
// earlier) expires, returning the candidates found so far with TimedOut
// set; a never-cancelled context never changes the result.
func Exhaustive(ctx context.Context, x *eventlog.Index, ev *constraints.Evaluator, budget Budget, workers int) Result {
	w := par.Workers(workers)
	mode := ev.Set.CheckingMode()
	n := x.NumClasses()
	bs := &budgetState{Budget: budget}
	bs.start(ctx)

	cands := newSet()
	queued := make(map[string]struct{}) // every group ever placed in toCheck

	var toCheck []bitset.Set
	for c := 0; c < n; c++ {
		g := bitset.New(n)
		g.Add(c)
		toCheck = append(toCheck, g)
		queued[g.Key()] = struct{}{}
	}

	for len(toCheck) > 0 && !bs.exceeded() {
		limit := bs.grant(len(toCheck))
		verdicts := make([]bool, limit)
		par.For(w, limit, func(i int) {
			if !bs.tick() {
				return
			}
			g := toCheck[i]
			if mode == constraints.ModeMono && cands.hasSatisfyingSubset(g, n) {
				verdicts[i] = true
			} else {
				verdicts[i] = ev.Holds(g)
			}
		})
		for i := 0; i < limit; i++ {
			if verdicts[i] {
				cands.add(toCheck[i])
			}
		}
		if bs.exceeded() {
			break
		}
		// Group expansion (lines 9–13). In the anti-monotonic mode only
		// groups whose anti-monotonic constraints hold are expandable:
		// growing a group can never repair such a violation, but a group
		// failing only a non-monotonic constraint (e.g. an incomplete
		// must-link pair) may still have satisfying supergroups.
		expandFrom := toCheck
		if mode == constraints.ModeAnti {
			antiOK := make([]bool, len(toCheck))
			par.For(w, len(toCheck), func(i int) {
				// A fully satisfying group satisfies its anti-monotonic
				// subset a fortiori — reuse the verdict instead of
				// re-evaluating (i is always < limit here when the loop
				// reaches expansion, but guard for granted-short frontiers).
				antiOK[i] = (i < limit && verdicts[i]) || ev.HoldsAnti(toCheck[i])
			})
			expandFrom = expandFrom[:0]
			for i, g := range toCheck {
				if antiOK[i] {
					expandFrom = append(expandFrom, g)
				}
			}
		}
		toCheck = expand(x, expandFrom, n, queued)
	}
	return Result{Groups: cands.groups, TimedOut: bs.exceeded(), Checks: bs.checks()}
}

// expand creates all one-class-larger groups from base groups, keeping only
// unseen groups whose classes co-occur in at least one trace.
func expand(x *eventlog.Index, base []bitset.Set, n int, queued map[string]struct{}) []bitset.Set {
	var out []bitset.Set
	for _, g := range base {
		// Only classes co-occurring with all of g can pass occurs(); use the
		// co-trace set to test cheaply per extension class.
		co := x.CoTraces(g)
		if co.IsEmpty() {
			continue
		}
		for c := 0; c < n; c++ {
			if g.Contains(c) {
				continue
			}
			if !co.Intersects(x.ClassTraces[c]) {
				continue // occurs(g ∪ {c}, L) fails
			}
			ng := g.With(c)
			k := ng.Key()
			if _, seen := queued[k]; seen {
				continue
			}
			queued[k] = struct{}{}
			out = append(out, ng)
		}
	}
	return out
}

// path is a DFG path; its nodes form the candidate group.
type path struct {
	nodes []int
	group bitset.Set
}

// appendPathKey appends the 4-byte little-endian encoding of the node
// sequence to buf and returns it. Keys encode the path *sequence*, not the
// sorted node set: Algorithm 2 deduplicates paths, and two different
// traversal orders of the same classes expand differently, so collapsing
// them would change the search. Callers reuse one buffer across a frontier
// — map probes via string(buf) compile to allocation-free lookups, and only
// a first-seen insert materialises the key.
func appendPathKey(buf []byte, nodes []int) []byte {
	for _, n := range nodes {
		buf = append(buf, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return buf
}

// DFGBased implements Algorithm 2: beam search over DFG paths, prioritising
// paths whose node sets have the lowest distance. A beamWidth k <= 0 means
// unlimited (the DFG∞ configuration). Path scoring and constraint
// evaluation of each frontier fan out across workers (<= 0 means one per
// CPU) with a sequential in-order merge, so the search — including the beam
// cut — is deterministic for any worker count. See Exhaustive for the
// cancellation and deadline-composition semantics.
func DFGBased(ctx context.Context, x *eventlog.Index, ev *constraints.Evaluator, dc *distance.Calc, g *dfg.Graph, beamWidth int, budget Budget, workers int) Result {
	w := par.Workers(workers)
	mode := ev.Set.CheckingMode()
	bs := &budgetState{Budget: budget}
	bs.start(ctx)

	cands := newSet()
	seenPaths := make(map[string]struct{})
	var keyBuf []byte

	var toCheck []path
	for v := 0; v < g.N; v++ {
		p := path{nodes: []int{v}, group: bitset.FromSlice(g.N, []int{v})}
		toCheck = append(toCheck, p)
		keyBuf = appendPathKey(keyBuf[:0], p.nodes)
		seenPaths[string(keyBuf)] = struct{}{}
	}

	firstFrontier := true
	for len(toCheck) > 0 && !bs.exceeded() {
		// Sort by group distance, lowest first (line 5), computing exact
		// distances only as far as the beam cut requires: admissible lower
		// bounds order the tail (see sortPathsByDist). The first frontier
		// (all singletons) is never beam-pruned: a dropped singleton could
		// make the exact cover of Step 2 infeasible even though the class
		// is trivially coverable.
		cut := len(toCheck)
		if beamWidth > 0 && beamWidth < cut && !firstFrontier {
			cut = beamWidth
		}
		sortPathsByDist(toCheck, dc, w, cut)
		limit := cut
		firstFrontier = false
		limit = bs.grant(limit)
		type verdict struct{ holds, anti bool }
		verdicts := make([]verdict, limit)
		par.For(w, limit, func(i int) {
			if !bs.tick() {
				return
			}
			grp := toCheck[i].group
			switch mode {
			case constraints.ModeMono:
				verdicts[i].holds = cands.hasSatisfyingSubset(grp, g.N) || ev.Holds(grp)
			case constraints.ModeAnti:
				verdicts[i].holds = ev.Holds(grp)
				if !verdicts[i].holds {
					verdicts[i].anti = ev.HoldsAnti(grp)
				}
			default: // non-monotonic
				verdicts[i].holds = ev.Holds(grp)
			}
		})
		var toExpand []path
		for i := 0; i < limit; i++ {
			p := toCheck[i]
			switch mode {
			case constraints.ModeMono:
				if verdicts[i].holds {
					cands.add(p.group)
				}
				toExpand = append(toExpand, p) // mono mode always expands
			case constraints.ModeAnti:
				if verdicts[i].holds {
					cands.add(p.group)
					toExpand = append(toExpand, p)
				} else if verdicts[i].anti {
					// Violates only non-monotonic constraints: larger
					// paths may still satisfy them.
					toExpand = append(toExpand, p)
				}
			default:
				if verdicts[i].holds {
					cands.add(p.group)
				}
				toExpand = append(toExpand, p)
			}
		}
		if bs.exceeded() {
			break
		}
		// Path expansion (lines 21–29).
		toCheck = toCheck[:0]
		for _, p := range toExpand {
			last := p.nodes[len(p.nodes)-1]
			for _, succ := range g.Out(last) {
				if p.group.Contains(succ) {
					continue
				}
				nn := append(append([]int(nil), p.nodes...), succ)
				keyBuf = addPath(x, nn, p.group.With(succ), &toCheck, seenPaths, keyBuf)
			}
			first := p.nodes[0]
			for _, pred := range g.In(first) {
				if p.group.Contains(pred) {
					continue
				}
				nn := append([]int{pred}, p.nodes...)
				keyBuf = addPath(x, nn, p.group.With(pred), &toCheck, seenPaths, keyBuf)
			}
		}
	}
	return Result{Groups: cands.groups, TimedOut: bs.exceeded(), Checks: bs.checks()}
}

func addPath(x *eventlog.Index, nodes []int, group bitset.Set, out *[]path, seen map[string]struct{}, keyBuf []byte) []byte {
	keyBuf = appendPathKey(keyBuf[:0], nodes)
	if _, ok := seen[string(keyBuf)]; ok {
		return keyBuf
	}
	seen[string(keyBuf)] = struct{}{}
	if !x.Occurs(group) {
		return keyBuf // line 29: retain only paths whose groups occur in the log
	}
	*out = append(*out, path{nodes: nodes, group: group})
	return keyBuf
}

// sortPathsByDist orders ps so that positions [0, cut) hold the cut paths
// with the smallest group distance — stably, ties keeping insertion order —
// exactly as a full stable sort by exact distance would. Exact Eq. 1
// evaluations run only until admissible lower bounds (distance.Calc.GroupLB)
// prove the remainder cannot enter the beam: paths are evaluated in
// ascending (bound, insertion-index) order, and once the next unevaluated
// path's bound strictly exceeds the cut-th smallest exact distance, every
// unevaluated path has an exact distance strictly above it (bound <= exact),
// so it can neither enter the top cut nor tie into it. Pruned paths land
// after position cut in bound order; callers never read past the beam cut.
// The selection is a deterministic function of bounds and exact values, so
// results are identical for any worker count.
func sortPathsByDist(ps []path, dc *distance.Calc, workers, cut int) {
	n := len(ps)
	type scoredPath struct {
		d float64
		p path
	}
	if cut <= 0 || cut >= n {
		// Full sort: every exact distance is needed.
		tmp := make([]scoredPath, n)
		par.For(workers, n, func(i int) {
			tmp[i] = scoredPath{dc.Group(ps[i].group), ps[i]}
		})
		sort.SliceStable(tmp, func(i, j int) bool { return tmp[i].d < tmp[j].d })
		for i := range tmp {
			ps[i] = tmp[i].p
		}
		return
	}

	lbs := make([]float64, n)
	par.For(workers, n, func(i int) {
		lbs[i] = dc.GroupLB(ps[i].group)
	})
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	// Stable: equal bounds keep insertion order.
	sort.SliceStable(ord, func(a, b int) bool { return lbs[ord[a]] < lbs[ord[b]] })

	ds := make([]float64, n)
	evaluated := 0
	for evaluated < n {
		batch := cut - evaluated
		if batch <= 0 {
			// Grow in beam-sized steps past the initial cut.
			batch = cut
		}
		if evaluated+batch > n {
			batch = n - evaluated
		}
		base := evaluated
		par.For(workers, batch, func(j int) {
			i := ord[base+j]
			ds[i] = dc.Group(ps[i].group)
		})
		evaluated += batch
		if evaluated >= n {
			break
		}
		// kth = the cut-th smallest exact distance among evaluated paths
		// (ties by insertion index, matching the stable sort).
		kth := kthSmallest(ds, ord[:evaluated], cut)
		if lbs[ord[evaluated]] > kth {
			dc.NotePruned(n - evaluated)
			break
		}
	}

	// Evaluated paths, stably sorted by exact distance with ties in
	// insertion order (the full-sort tie rule), form the prefix; among them
	// the first cut are exactly the full-sort beam. Unevaluated paths follow
	// in bound order (never read by the caller).
	evalIdx := append([]int(nil), ord[:evaluated]...)
	sort.Ints(evalIdx)
	sel := make([]scoredPath, 0, evaluated)
	for _, i := range evalIdx {
		sel = append(sel, scoredPath{ds[i], ps[i]})
	}
	sort.SliceStable(sel, func(a, b int) bool { return sel[a].d < sel[b].d })
	rest := make([]path, 0, n-evaluated)
	for _, i := range ord[evaluated:] {
		rest = append(rest, ps[i])
	}
	for i := range sel {
		ps[i] = sel[i].p
	}
	copy(ps[evaluated:], rest)
}

// kthSmallest returns the k-th smallest (1-indexed by k... it returns the
// value at rank k-1) of ds over the given indexes, ties irrelevant because
// only the value is compared against strictly larger bounds.
func kthSmallest(ds []float64, idx []int, k int) float64 {
	vals := make([]float64, len(idx))
	for j, i := range idx {
		vals[j] = ds[i]
	}
	sort.Float64s(vals)
	return vals[k-1]
}

// ExclusiveMerge implements Algorithm 3: extending the candidate set with
// merged groups of exclusive behavioural alternatives — candidates sharing
// identical DFG pre- and post-sets with no edges between them. Only
// class-based constraints need re-checking on merges (instance-based
// constraints cannot be newly violated by merging exclusive groups).
func ExclusiveMerge(x *eventlog.Index, ev *constraints.Evaluator, g *dfg.Graph, current []bitset.Set) []bitset.Set {
	cands := newSet()
	for _, c := range current {
		cands.add(c)
	}
	// Iterated pairing of exclusive alternatives can in principle generate
	// exponentially many unions on xor-heavy logs; cap the additions at
	// |current| (the same order as Step 1's own output), after which the
	// candidate set is already rich enough for Step 2.
	maxAdditions := len(current)
	if maxAdditions < 64 {
		maxAdditions = 64
	}
	additions := 0
	type prePost struct{ pre, post string }
	sig := func(grp bitset.Set) prePost {
		return prePost{g.PreSet(grp).Key(), g.PostSet(grp).Key()}
	}
	// Bucket the original candidates by pre/post signature.
	buckets := make(map[prePost][]bitset.Set)
	for _, c := range current {
		s := sig(c)
		buckets[s] = append(buckets[s], c)
	}
	seenBucket := make(map[prePost]bool)
	for _, c := range current {
		s := sig(c)
		if seenBucket[s] {
			continue
		}
		seenBucket[s] = true
		equiv := append([]bitset.Set(nil), buckets[s]...)
		if len(equiv) < 2 {
			continue
		}
		type pair struct{ i, j int }
		var stack []pair
		pushedPairs := make(map[[2]string]bool)
		push := func(i, j int) {
			ki, kj := equiv[i].Key(), equiv[j].Key()
			if ki > kj {
				ki, kj = kj, ki
			}
			k := [2]string{ki, kj}
			if !pushedPairs[k] {
				pushedPairs[k] = true
				stack = append(stack, pair{i, j})
			}
		}
		for i := 0; i < len(equiv); i++ {
			for j := i + 1; j < len(equiv); j++ {
				push(i, j)
			}
		}
		for len(stack) > 0 {
			pr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			gi, gj := equiv[pr.i], equiv[pr.j]
			if gi.Intersects(gj) {
				continue
			}
			gij := gi.Union(gj)
			if !g.Exclusive(gi, gj) || !ev.HoldsClass(gij) {
				continue
			}
			if additions >= maxAdditions {
				return cands.groups
			}
			if !cands.add(gij) {
				continue // already known
			}
			additions++
			// Try combining the merge with its pre/post context (lines
			// 13–19): only if both constituents already combined with it.
			pre, post := g.PreSet(gi), g.PostSet(gi)
			prePostU := pre.Union(post)
			switch {
			case cands.contains(prePostU.Union(gi)) && cands.contains(prePostU.Union(gj)):
				addIfHolds(cands, ev, prePostU.Union(gij))
			case cands.contains(pre.Union(gi)) && cands.contains(pre.Union(gj)):
				addIfHolds(cands, ev, pre.Union(gij))
			case cands.contains(post.Union(gi)) && cands.contains(post.Union(gj)):
				addIfHolds(cands, ev, post.Union(gij))
			}
			// Iteratively pair the merge with the remaining equivalents.
			equiv = append(equiv, gij)
			self := len(equiv) - 1
			for k := 0; k < self; k++ {
				if k != pr.i && k != pr.j {
					push(self, k)
				}
			}
		}
	}
	return cands.groups
}

func addIfHolds(cands *set, ev *constraints.Evaluator, g bitset.Set) {
	if ev.HoldsClass(g) {
		cands.add(g)
	}
}
