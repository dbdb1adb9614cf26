// Package gecco is a Go implementation of GECCO — Constraint-driven
// Abstraction of Low-level Event Logs (Rebmann, Weidlich, van der Aa,
// ICDE 2022). It groups the event classes of a log into higher-level
// activities such that user-declared constraints hold and a behavioural
// distance to the original log is minimal, then rewrites the log in terms
// of the found activities.
//
// # Quick start
//
//	log, _ := gecco.ReadXESFile("events.xes")
//	res, err := gecco.Abstract(log, "distinct(role) <= 1\n|g| <= 8", gecco.Config{Mode: gecco.ModeDFGUnbounded})
//	if err != nil { ... }
//	if res.Feasible {
//	    gecco.WriteXESFile("abstracted.xes", res.Abstracted)
//	}
//
// Constraints are declared in a small textual language; see
// internal/constraints.Parse for the full grammar. Three pipeline
// configurations mirror the paper: exhaustive candidate computation
// (ModeExhaustive), DFG-guided search (ModeDFGUnbounded), and beam-pruned
// DFG search (ModeDFGBeam, the paper's DFGk with k = 5·|C_L| by default).
//
// Candidate computation and distance evaluation run on a worker pool sized
// by Config.Workers (default: one worker per CPU). Parallel runs are
// deterministic — without a wall-clock Budget.TimeLimit, any worker count
// produces byte-identical results; set Workers to 1 for the paper's
// sequential execution.
//
// # Interactive sessions
//
// Abstract rebuilds the log's index, DFG, and distance memo on every call,
// yet none of those depend on the constraints. NewSession builds them once;
// Session.Solve then explores constraint set after constraint set on the
// frozen artifacts with a warm distance memo, byte-identical to the
// one-shot path:
//
//	sess, _ := gecco.NewSession(log)
//	for _, rules := range alternatives {
//	    res, _ := sess.Solve(rules, cfg)
//	    ...
//	}
//
// # Cancellation
//
// AbstractContext and AbstractSetContext are the context-aware entry points
// for long-running or served workloads. Cancelling the context — a
// disconnected HTTP client, a server shutdown, a caller-side timeout —
// stops the pipeline mid-frontier and mid-solve and returns an error
// wrapping context.Canceled or context.DeadlineExceeded. A context deadline
// composes with Config.Budget.TimeLimit: whichever expires first cuts the
// candidate frontier, but only the context's own expiry becomes an error
// (TimeLimit expiry returns the partial result, as in the paper's 5-hour
// budget). With a context that is never cancelled, results are
// byte-identical to Abstract/AbstractSet. The gecco-serve command exposes
// these entry points over HTTP with a sharded result cache; see
// internal/service.
package gecco

import (
	"context"
	"fmt"
	"io"
	"os"

	"gecco/internal/abstraction"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/csvlog"
	"gecco/internal/dfg"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
	"gecco/internal/logfilter"
	"gecco/internal/suggest"
	"gecco/internal/xes"
)

// Re-exported data model types. A Log is a set of traces; each Trace is a
// sequence of Events with a class and typed attributes.
type (
	Log   = eventlog.Log
	Trace = eventlog.Trace
	Event = eventlog.Event
	Value = eventlog.Value

	// Config tunes the pipeline; its zero value runs exhaustive candidate
	// computation with unlimited budget and completion-only abstraction.
	Config = core.Config
	// Result is the pipeline outcome: the grouping, its distance, the
	// abstracted log, timings, and infeasibility diagnostics.
	Result = core.Result
	// ConstraintSet is a parsed, categorised set of constraints.
	ConstraintSet = constraints.Set
)

// Pipeline configurations (§VI-A of the paper).
const (
	ModeExhaustive   = core.Exhaustive
	ModeDFGUnbounded = core.DFGUnbounded
	ModeDFGBeam      = core.DFGBeam
)

// Abstraction strategies (§V-D).
const (
	StrategyCompletionOnly = abstraction.CompletionOnly
	StrategyStartComplete  = abstraction.StartComplete
)

// Step 2 solvers.
const (
	SolverBranchAndBound = core.SolverBB
	SolverMIP            = core.SolverMIP
)

// ParseConstraints parses newline-separated constraint declarations; blank
// lines and '#' comments are skipped.
func ParseConstraints(text string) (*ConstraintSet, error) {
	return constraints.ParseSet(text)
}

// Abstract runs the GECCO pipeline on the log under textual constraints.
func Abstract(log *Log, constraintText string, cfg Config) (*Result, error) {
	//lint:gecco-allow(ctxflow): convenience wrapper; AbstractContext is the cancellable variant
	return AbstractContext(context.Background(), log, constraintText, cfg)
}

// AbstractContext is Abstract under a context; see the package
// documentation for the cancellation and deadline-composition semantics.
func AbstractContext(ctx context.Context, log *Log, constraintText string, cfg Config) (*Result, error) {
	set, err := ParseConstraints(constraintText)
	if err != nil {
		return nil, fmt.Errorf("gecco: %w", err)
	}
	return AbstractSetContext(ctx, log, set, cfg)
}

// AbstractSet runs the GECCO pipeline with an already-built constraint set.
func AbstractSet(log *Log, set *ConstraintSet, cfg Config) (*Result, error) {
	//lint:gecco-allow(ctxflow): convenience wrapper; AbstractSetContext is the cancellable variant
	return AbstractSetContext(context.Background(), log, set, cfg)
}

// AbstractSetContext is AbstractSet under a context; cancellation stops the
// pipeline mid-frontier and returns an error wrapping ctx.Err().
func AbstractSetContext(ctx context.Context, log *Log, set *ConstraintSet, cfg Config) (*Result, error) {
	return core.Run(ctx, log, set, cfg)
}

// Session binds GECCO's constraint-independent analysis state to one log:
// the interned index, the directly-follows graph, class-level attribute
// extraction, and the distance memo of Eq. 1 — none of which depend on the
// declared constraints. Build a Session once, then Solve repeatedly with
// different constraint sets; every solve after the first skips the indexing
// work and starts with a warm distance memo, which is the dominant cost of
// re-abstracting a known log. Results are byte-identical to Abstract with
// the same inputs, and a Session is safe for concurrent Solve calls.
//
//	sess, _ := gecco.NewSession(log)
//	loose, _ := sess.Solve("distinct(role) <= 1", cfg)
//	tight, _ := sess.Solve("distinct(role) <= 1\n|g| <= 4", cfg)
type Session struct {
	s *core.Session
}

// NewSession indexes the log and freezes the constraint-independent
// artifacts into a self-contained columnar store. The session keeps no
// reference to the log: callers may release (or mutate) it once NewSession
// returns — later mutations are not reflected in the session.
func NewSession(log *Log) (*Session, error) {
	s, err := core.NewSession(log)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Log returns a log equivalent to the one the session was built from (same
// name, trace ids, event order and attribute values, serialising
// byte-identically) — not the original *Log pointer, which the session
// releases at construction. The copy is materialised from the columnar
// index on first use and cached for the session's lifetime.
func (s *Session) Log() *Log { return s.s.Log() }

// Solve runs the pipeline on the session's log under textual constraints.
func (s *Session) Solve(constraintText string, cfg Config) (*Result, error) {
	//lint:gecco-allow(ctxflow): convenience wrapper; SolveContext is the cancellable variant
	return s.SolveContext(context.Background(), constraintText, cfg)
}

// SolveContext is Solve under a context, with the same cancellation and
// deadline-composition semantics as AbstractContext.
func (s *Session) SolveContext(ctx context.Context, constraintText string, cfg Config) (*Result, error) {
	set, err := ParseConstraints(constraintText)
	if err != nil {
		return nil, fmt.Errorf("gecco: %w", err)
	}
	return s.s.Solve(ctx, set, cfg)
}

// SolveSet runs the pipeline with an already-built constraint set.
func (s *Session) SolveSet(set *ConstraintSet, cfg Config) (*Result, error) {
	//lint:gecco-allow(ctxflow): convenience wrapper; SolveSetContext is the cancellable variant
	return s.s.Solve(context.Background(), set, cfg)
}

// SolveSetContext is SolveSet under a context.
func (s *Session) SolveSetContext(ctx context.Context, set *ConstraintSet, cfg Config) (*Result, error) {
	return s.s.Solve(ctx, set, cfg)
}

// ReadXES parses an event log in IEEE XES format.
func ReadXES(r io.Reader) (*Log, error) { return xes.Read(r) }

// WriteXES serialises an event log in IEEE XES format.
func WriteXES(w io.Writer, log *Log) error { return xes.Write(w, log) }

// ReadXESFile reads an XES file.
func ReadXESFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xes.Read(f)
}

// WriteXESFile writes an XES file.
func WriteXESFile(path string, log *Log) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := xes.Write(f, log); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CSVOptions configures CSV import; zero value expects columns "case",
// "activity" and optionally "time".
type CSVOptions = csvlog.Options

// ReadCSV parses an event log from CSV (one event per row).
func ReadCSV(r io.Reader, opts CSVOptions) (*Log, error) { return csvlog.Read(r, opts) }

// WriteCSV serialises an event log as CSV.
func WriteCSV(w io.Writer, log *Log) error { return csvlog.Write(w, log) }

// DFGDot renders the log's directly-follows graph in Graphviz DOT format.
// fraction < 1 keeps only the most frequent edges covering that share of
// total edge frequency (e.g. 0.8 for the paper's "80/20" views); pass 1 for
// the full graph.
func DFGDot(log *Log, fraction float64) string {
	g := dfg.Build(eventlog.NewIndex(log))
	if fraction < 1 {
		g = g.FilterTopEdges(fraction)
	}
	return g.DOT(log.Name)
}

// Stats summarises a log (classes, traces, variants, DFG edges, average
// trace length) in the shape of the paper's Table III.
func Stats(log *Log) eventlog.Stats { return log.ComputeStats() }

// InstancePolicies control how group instances are segmented (§IV-A).
const (
	PolicySplitOnRepeat = instances.SplitOnRepeat
	PolicyWholeTrace    = instances.WholeTrace
)

// Log preprocessing helpers (see internal/logfilter for the full set).
// These wrappers keep the package-level *Log convenience API; the
// underlying operations run on the columnar index and cannot fail on an
// uncancelled context, so errors reduce to panics on impossible states.

// FilterTopVariants keeps the traces of the most frequent variants covering
// the given fraction of the log (e.g. 0.8).
func FilterTopVariants(log *Log, fraction float64) *Log {
	//lint:gecco-allow(ctxflow): convenience wrapper; use internal/logfilter for cancellation
	x, err := logfilter.TopVariants(context.Background(), eventlog.NewIndex(log), fraction)
	return mustLog(x, err)
}

// FilterSample keeps each trace with probability p, deterministically.
func FilterSample(log *Log, p float64, seed int64) *Log {
	//lint:gecco-allow(ctxflow): convenience wrapper; use internal/logfilter for cancellation
	x, err := logfilter.Sample(context.Background(), eventlog.NewIndex(log), p, seed)
	return mustLog(x, err)
}

// FilterProjectClasses keeps only events of the given classes.
func FilterProjectClasses(log *Log, classes []string) *Log {
	//lint:gecco-allow(ctxflow): convenience wrapper; use internal/logfilter for cancellation
	x, err := logfilter.ProjectClasses(context.Background(), eventlog.NewIndex(log), classes)
	return mustLog(x, err)
}

// SuggestConstraints profiles the log and returns ranked constraint
// proposals (§VIII future work; see internal/suggest).
func SuggestConstraints(log *Log) []suggest.Suggestion {
	//lint:gecco-allow(ctxflow): convenience wrapper; use internal/suggest for cancellation
	sugs, err := suggest.Suggest(context.Background(), eventlog.NewIndex(log))
	if err != nil {
		panic("gecco: " + err.Error()) // unreachable: Background is never cancelled
	}
	return sugs
}

func mustLog(x *eventlog.Index, err error) *Log {
	if err != nil {
		panic("gecco: " + err.Error()) // unreachable: Background is never cancelled
	}
	return x.ReconstructLog()
}
