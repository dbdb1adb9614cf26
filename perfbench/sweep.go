package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"gecco/internal/candidates"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/eventlog"
	"gecco/internal/experiments"
	"gecco/internal/instances"
)

// sweep is the solve-sweep workload: the library alone, one caller. Each
// pass builds one session per log and solves the Table IV core sets on it
// under Exh, DFG∞ and DFGk, so the candidates, constraints, distance and
// cover layers do nearly all the work and no log is ever parsed.
type sweep struct {
	seconds int
	logs    []*eventlog.Log
	sets    [][]*constraints.Set // per log, per core set
	probs   []sweepProblem
}

type sweepProblem struct {
	log  int
	set  int
	mode core.Mode
}

var sweepModes = []core.Mode{core.Exhaustive, core.DFGUnbounded, core.DFGBeam}

func (s *sweep) setup(seed int64, seconds int, _ bool) error {
	s.seconds = seconds
	s.logs = sweepLogs(seed)
	ids := experiments.CoreSets()
	s.sets = make([][]*constraints.Set, len(s.logs))
	for li, l := range s.logs {
		x := eventlog.NewIndex(l)
		for si, id := range ids {
			set, ok := experiments.BuildSet(id, x)
			if !ok {
				return fmt.Errorf("core set %s is inapplicable", id)
			}
			s.sets[li] = append(s.sets[li], set)
			for _, mode := range sweepModes {
				s.probs = append(s.probs, sweepProblem{log: li, set: si, mode: mode})
			}
		}
	}
	return nil
}

func (s *sweep) close() {}

// sweepRecord is what a solve leaves for the checks and the layer metrics.
type sweepRecord struct {
	prob     int
	err      error
	hasLog   bool
	out      outcome
	res      core.Timings
	cands    int
	checks   int
	screened int
	pruned   int
	nodes    int
	evals    int
}

// config is a problem's configuration. One worker: solve-sweep measures the
// solver's work, and on these problem sizes a second worker on a 2-CPU box
// bought no speed, only sensitivity to whatever else the machine runs.
func (s *sweep) config(mode core.Mode) core.Config {
	return core.Config{Mode: mode, Workers: 1, Budget: candidates.Budget{MaxChecks: sweepMaxChecks}}
}

func (s *sweep) run(tr *tracer) (*report, error) {
	ctx := context.Background()
	rep := &report{}
	var recs []sweepRecord
	var indexMs, sessMs, bytesPerEvent, memo mean
	before := readAllocs()
	var live []*core.Session
	op := 0
	var start time.Time
	// Each pass is one round. The first warms the code and the heap up: it
	// is checked but not timed. Measured passes run until --seconds have
	// gone, and at least three, so every problem has a middle pass.
	for pass := 0; pass < 4 || time.Since(start) < time.Duration(s.seconds)*time.Second; pass++ {
		if pass == 1 {
			start = time.Now()
		}
		p := &phase{name: "closed"}
		if pass == 0 {
			p.name = "warm"
		}
		passStart := time.Now()
		live = live[:0]
		for li, l := range s.logs {
			t0 := time.Now()
			id := tr.begin(op, 0, "eventlog.index_build")
			x := eventlog.NewIndex(l)
			tr.finish(id)
			t1 := time.Now()
			id = tr.begin(op, 0, "core.session_build")
			sess, err := core.NewSessionFromIndex(x)
			tr.finish(id)
			built := time.Since(t0)
			indexMs.add(ms(t1.Sub(t0)))
			sessMs.add(ms(time.Since(t1)))
			bytesPerEvent.add(ratio(float64(x.EstimatedBytes()), float64(x.NumEvents())))
			if err != nil {
				return nil, fmt.Errorf("session for log %d: %w", li, err)
			}
			live = append(live, sess)
			first := true
			for pi, pr := range s.probs {
				if pr.log != li {
					continue
				}
				calc := sess.Calc(instances.SplitOnRepeat)
				evals := calc.Evals()
				t := time.Now()
				id := tr.begin(op, 0, "core.solve")
				res, err := sess.Solve(ctx, s.sets[li][pr.set], s.config(pr.mode))
				tr.finish(id)
				lat := time.Since(t)
				if first {
					// The session build is billed to the log's first solve:
					// a caller pays it before any answer.
					lat += built
					first = false
				}
				p.attempted++
				p.lat = append(p.lat, ms(lat))
				rec := sweepRecord{prob: pi, err: err}
				if err != nil {
					p.failed++
				} else {
					start, _ := tr.bounds(id)
					tr.layout(op, id, start, []part{
						{"candidates.step1", res.Timings.Candidates},
						{"cover.step2", res.Timings.Solve},
						{"abstraction.apply", res.Timings.Abstract},
					})
					rec.hasLog = res.Abstracted != nil
					rec.out = outcome{Feasible: res.Feasible, Distance: res.Distance, Groups: res.GroupClasses}
					rec.res = res.Timings
					rec.cands, rec.checks, rec.screened = res.NumCandidates, res.ConstraintChecks, res.ScreenedChecks
					rec.pruned, rec.nodes, rec.evals = res.LBPruned, res.SolverNodes, calc.Evals()-evals
				}
				recs = append(recs, rec)
				op++
			}
		}
		for _, sess := range live {
			memo.add(float64(sess.MemoSize()))
		}
		p.elapsed = time.Since(passStart)
		rep.add(p)
		if pass > 0 {
			rep.throughput = append(rep.throughput, p)
		}
	}
	after := readAllocs()
	rep.latency = []*phase{perProblem(rep.throughput)}
	// The last pass's sessions are still referenced: the live heap is what
	// a session-holding caller pins for these seven logs.
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(live)

	s.check(rep, recs)

	l := newLayers()
	var cand, cover, abst, count, checks, evals, nodes mean
	var screened, checked, pruned, evaluated float64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		cand.add(ms(r.res.Candidates))
		cover.add(ms(r.res.Solve))
		abst.add(ms(r.res.Abstract))
		count.add(float64(r.cands))
		checks.add(float64(r.checks))
		evals.add(float64(r.evals))
		nodes.add(float64(r.nodes))
		screened += float64(r.screened)
		checked += float64(r.checks)
		pruned += float64(r.pruned)
		evaluated += float64(r.evals)
	}
	l.set("eventlog.index_build_ms", indexMs.value())
	l.set("eventlog.bytes_per_event", bytesPerEvent.value())
	l.set("core.session_build_ms", sessMs.value())
	l.set("candidates.ms", cand.value())
	l.set("candidates.count", count.value())
	l.set("constraints.checks", checks.value())
	l.set("constraints.screen_ratio", ratio(screened, checked))
	l.set("distance.evals", evals.value())
	l.set("distance.lb_prune_ratio", ratio(pruned, pruned+evaluated))
	l.set("distance.memo_entries", memo.value())
	l.set("cover.ms", cover.value())
	l.set("cover.nodes", nodes.value())
	l.set("abstraction.ms", abst.value())
	goMetrics(l, before, after, rep.attempted)
	rep.layer = l
	return rep, nil
}

// perProblem is the latency distribution over problems, each problem's
// latency the median of its passes: every pass solves the same problems in
// the same order, so operation i of one pass is operation i of the next.
// The percentiles then describe the problems, and a pass slowed by a
// neighbour on a shared machine moves no problem's median.
func perProblem(passes []*phase) *phase {
	out := &phase{name: "per-problem"}
	for i := range passes[0].lat {
		var v []float64
		for _, p := range passes {
			v = append(v, p.lat[i])
		}
		out.lat = append(out.lat, median(v))
	}
	return out
}

// check verifies every solve: the same answer for the same problem on every
// pass (each pass solves on a fresh session), and every feasible grouping
// re-verified from scratch.
func (s *sweep) check(rep *report, recs []sweepRecord) {
	first := make(map[int]outcome)
	indexes := make([]*eventlog.Index, len(s.logs))
	for _, r := range recs {
		if r.err != nil {
			rep.failures = append(rep.failures, fmt.Sprintf("problem %d: %v", r.prob, r.err))
			continue
		}
		pr := s.probs[r.prob]
		fail := func(format string, args ...any) {
			rep.fail("log %s set %s %s: %s", sweepRefs[pr.log], experiments.CoreSets()[pr.set], pr.mode, fmt.Sprintf(format, args...))
		}
		if !r.hasLog {
			fail("result carries no log")
			continue
		}
		if want, ok := first[r.prob]; ok {
			if err := r.out.diff(want); err != nil {
				fail("differs from the first pass: %v", err)
			}
			continue
		}
		first[r.prob] = r.out
		if !r.out.Feasible {
			continue
		}
		if indexes[pr.log] == nil {
			indexes[pr.log] = eventlog.NewIndex(s.logs[pr.log])
		}
		if err := verifyGrouping(indexes[pr.log], s.sets[pr.log][pr.set], instances.SplitOnRepeat, r.out.Groups, r.out.Distance); err != nil {
			fail("%v", err)
		}
	}
}
