// Command gecco-bench regenerates the paper's evaluation (§VI): Table III
// (log collection), Table V (Exh per constraint set), Table VI (the three
// configurations), Table VII (baselines), and the DOT sources of Figures 1,
// 2, 3 and 8. Measured values print next to the paper's reported numbers.
//
// Usage:
//
//	gecco-bench -table all          # everything (minutes)
//	gecco-bench -table 5 -quick     # Table V on a subset, small budgets
//	gecco-bench -figures -out figs/ # DOT files for the figures
//	gecco-bench -table none -session-bench
//	                                # cold vs warm constraint sweep (session reuse)
//	gecco-bench -table none -stream-bench
//	                                # online per-arrival cost, flat in window size
//
// CI benchmark gate:
//
//	gecco-bench -table 6 -quick -stream-bench -json BENCH_pr.json -baseline BENCH_baseline.json
//
// -json writes the measured rows (per-config wall-time and distance) in a
// machine-readable report; -baseline compares them against a checked-in
// report and exits non-zero when any configuration's wall-time regresses by
// more than -max-regress (default 25%).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"gecco"
	"gecco/internal/bitset"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/experiments"
	"gecco/internal/instances"
	"gecco/internal/procgen"
	"gecco/internal/stream"
	"gecco/internal/xes"
)

// benchReport is the machine-readable format of -json; rows are keyed by
// configuration label (Exh, DFG∞, DFGk).
type benchReport struct {
	Table    string            `json:"table"`
	Quick    bool              `json:"quick"`
	Budget   int               `json:"budget"`
	Stream   bool              `json:"streamBench"`
	Index    bool              `json:"indexBench"`
	Eval     bool              `json:"evalBench"`
	Pipeline bool              `json:"pipelineBench"`
	Shard    bool              `json:"shardBench"`
	GOOS     string            `json:"goos"`
	GOARCH   string            `json:"goarch"`
	NumCPU   int               `json:"numCPU"`
	Workers  int               `json:"workers"`
	Rows     []experiments.Row `json:"rows"`
}

func main() {
	var (
		table      = flag.String("table", "all", "which table to run: 3 | 5 | 6 | 7 | all | none")
		figures    = flag.Bool("figures", false, "emit Figures 1, 2, 3, 8 as DOT files")
		outDir     = flag.String("out", "figures", "output directory for -figures")
		quick      = flag.Bool("quick", false, "small budgets and a log subset (for CI/smoke)")
		detail     = flag.Bool("detail", false, "print the per-problem breakdown (DFGk) and the solved matrix")
		budget     = flag.Int("budget", 0, "candidate checks per problem (0 = default)")
		timeout    = flag.Duration("solver-timeout", 0, "Step 2 limit per problem (0 = default)")
		workers    = flag.Int("workers", 0, "worker threads per problem (0 = all cores, 1 = the paper's sequential runs)")
		sessions   = flag.Bool("session-bench", false, "measure the fixed loan-log refinement sweep: cold (pipeline per set) vs warm (one session)")
		streams    = flag.Bool("stream-bench", false, "measure the online abstractor's per-arrival cost at window sizes 200 and 2000 (rows feed -json/-baseline; fails if the cost is not flat in the window)")
		evals      = flag.Bool("eval-bench", false, "measure the solver kernels in isolation: screened HoldsInstance checks/s, exact Eq. 1 distance evals/s on a cold memo, and the beam frontier prune rate of the admissible lower bound (rows feed -json/-baseline; fails if screening or pruning never fires)")
		pipelines  = flag.Bool("pipeline-bench", false, "measure the staged pipeline engine end to end on the loan-application case study: the cold filter→abstract→discover→conform run, the fully cached warm re-run (bounding the engine's per-request overhead), and a tail-only change that must adopt the cached abstract stage (rows feed -json/-baseline; fails if any cached stage re-executes)")
		shardsB    = flag.Bool("shard-bench", false, "measure cluster throughput through the digest router at 1, 2, and 4 in-process shards on the Table VI workload (rows feed -json/-baseline; fails unless 4-shard throughput is >= 2.5x single-shard)")
		indexes    = flag.Bool("index-bench", false, "measure the columnar index: build throughput (events/s), estimated bytes/event vs the pointer-heavy *Log, and restart cost (re-parse+build vs OpenIndex on the persistent file); fails unless the index is >= 2x smaller and OpenIndex >= 5x faster")
		jsonOut    = flag.String("json", "", "write the measured rows as a JSON bench report to this file")
		baseline   = flag.String("baseline", "", "compare the measured rows against this JSON bench report and fail on regression")
		maxRegress = flag.Float64("max-regress", 0.25, "maximum tolerated per-config wall-time regression vs -baseline (0.25 = +25%)")
	)
	flag.Parse()

	// One root context for every table run: Ctrl-C aborts the in-flight
	// solve instead of leaving a long Exh sweep running to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println("generating the synthetic log collection (Table III substitutes)...")
	start := time.Now()
	logs := procgen.Collection()
	fmt.Printf("done in %v\n\n", time.Since(start).Round(time.Millisecond))

	opts := experiments.Options{Logs: logs, MaxChecks: *budget, SolverTimeout: *timeout, Workers: *workers}
	if *quick {
		opts.Logs = []*eventlog.Log{logs[0], logs[3], logs[6], logs[8], logs[10]}
		if opts.MaxChecks == 0 {
			opts.MaxChecks = 5000
		}
		if opts.SolverTimeout == 0 {
			opts.SolverTimeout = 3 * time.Second
		}
	}

	if *table == "3" || *table == "all" {
		experiments.PrintTable3(os.Stdout, logs)
	}
	// measured collects the rows of every table that ran, for -json/-baseline.
	var measured []experiments.Row
	if *table == "5" || *table == "all" {
		run("Table V — Exh per constraint set", func() {
			rows := experiments.Table5(ctx, opts)
			measured = append(measured, rows...)
			experiments.PrintRows(os.Stdout, "Table V", rows, experiments.PaperTable5)
		})
	}
	if *table == "6" || *table == "all" {
		run("Table VI — configurations", func() {
			rows := experiments.Table6(ctx, opts)
			measured = append(measured, rows...)
			experiments.PrintRows(os.Stdout, "Table VI", rows, experiments.PaperTable6)
		})
	}
	if *table == "7" || *table == "all" {
		run("Table VII — baselines", func() {
			rows := experiments.Table7(ctx, opts)
			measured = append(measured, rows...)
			experiments.PrintRows(os.Stdout, "Table VII", rows, experiments.PaperTable7)
		})
	}
	if *streams {
		rows, err := streamBench(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
		measured = append(measured, rows...)
	}
	if *indexes {
		rows, err := indexBench()
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
		measured = append(measured, rows...)
	}
	if *evals {
		rows, err := evalBench(ctx, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
		measured = append(measured, rows...)
	}
	if *pipelines {
		rows, err := experiments.PipelineBench(ctx, os.Stdout, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
		measured = append(measured, rows...)
	}
	if *shardsB {
		rows, err := experiments.ShardBench(ctx, os.Stdout, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
		measured = append(measured, rows...)
	}
	if *jsonOut != "" {
		report := benchReport{
			Table:    *table,
			Quick:    *quick,
			Budget:   opts.MaxChecks,
			Stream:   *streams,
			Index:    *indexes,
			Eval:     *evals,
			Pipeline: *pipelines,
			Shard:    *shardsB,
			GOOS:     runtime.GOOS,
			GOARCH:   runtime.GOARCH,
			NumCPU:   runtime.NumCPU(),
			Workers:  *workers,
			Rows:     measured,
		}
		if err := writeReport(*jsonOut, report); err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("bench report written to %s\n", *jsonOut)
	}
	if *baseline != "" {
		current := benchReport{Table: *table, Quick: *quick, Budget: opts.MaxChecks, Stream: *streams, Index: *indexes, Eval: *evals, Pipeline: *pipelines, Shard: *shardsB, Workers: *workers}
		if err := gate(*baseline, current, measured, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench: REGRESSION GATE FAILED:", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate passed (max tolerated wall-time regression %.0f%%)\n", *maxRegress*100)
	}
	if *sessions {
		if err := sessionBench(opts); err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
	}
	if *detail {
		run("per-problem detail (DFGk)", func() {
			details := experiments.DetailTable(ctx, core.DFGBeam, opts)
			experiments.PrintDetails(os.Stdout, details)
			fmt.Println()
			fmt.Print(experiments.SolvedMatrix(details))
		})
	}
	if *figures {
		if err := emitFigures(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, "gecco-bench:", err)
			os.Exit(1)
		}
	}
}

func writeReport(path string, report benchReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gateAbsSlackSeconds is an absolute slack added on top of the relative
// threshold. Quick-run rows are sub-second, where scheduler jitter alone
// exceeds 25%; the floor keeps the gate meaningful (a real 2× regression on
// any non-trivial row still trips it) without false-failing on noise.
const gateAbsSlackSeconds = 0.25

// gate compares measured rows against the baseline report: any
// configuration whose mean wall-time grew by more than maxRegress (plus a
// small absolute slack absorbing sub-second jitter) fails the gate.
// Distance drift is reported as a warning — quick runs are deterministic,
// so a drift means the pipeline's output changed, which may be intentional
// (then the baseline needs regenerating) but is worth eyes.
func gate(baselinePath string, current benchReport, measured []experiments.Row, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	// A run with different table/quick/budget/workers settings measures
	// different work (or the same work at a different parallelism);
	// wall-times are incomparable and the gate refuses rather than
	// reporting a spurious verdict.
	if base.Table != current.Table || base.Quick != current.Quick ||
		base.Budget != current.Budget || base.Workers != current.Workers ||
		base.Stream != current.Stream || base.Index != current.Index ||
		base.Eval != current.Eval || base.Pipeline != current.Pipeline ||
		base.Shard != current.Shard {
		return fmt.Errorf("run settings (table=%s quick=%t budget=%d workers=%d stream=%t index=%t eval=%t pipeline=%t shard=%t) do not match baseline (table=%s quick=%t budget=%d workers=%d stream=%t index=%t eval=%t pipeline=%t shard=%t); rerun with the baseline's flags or regenerate it",
			current.Table, current.Quick, current.Budget, current.Workers, current.Stream, current.Index, current.Eval, current.Pipeline, current.Shard,
			base.Table, base.Quick, base.Budget, base.Workers, base.Stream, base.Index, base.Eval, base.Pipeline, base.Shard)
	}
	if base.GOOS != runtime.GOOS || base.GOARCH != runtime.GOARCH || base.NumCPU != runtime.NumCPU() {
		fmt.Printf("gate WARNING: baseline recorded on %s/%s numCPU=%d, this run is %s/%s numCPU=%d — wall-times are only roughly comparable\n",
			base.GOOS, base.GOARCH, base.NumCPU, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	}
	byLabel := make(map[string]experiments.Row, len(measured))
	for _, r := range measured {
		byLabel[r.Label] = r
	}
	// offender captures one failing row with both sides of the comparison,
	// so the failure output can print them side by side.
	type offender struct {
		label      string
		metric     string
		baseVal    float64
		gotVal     float64
		allowedVal float64
	}
	var offenders []offender
	var missing []string
	compared := 0
	for _, b := range base.Rows {
		got, ok := byLabel[b.Label]
		if !ok {
			// A configuration that vanished or was renamed is itself a
			// gate failure — otherwise dropping a slow config "fixes" it.
			missing = append(missing, b.Label)
			continue
		}
		if b.Seconds <= 0 {
			continue
		}
		compared++
		allowed := b.Seconds*(1+maxRegress) + gateAbsSlackSeconds
		ratio := got.Seconds / b.Seconds
		status := "ok"
		if got.Seconds > allowed {
			status = "REGRESSED"
			offenders = append(offenders, offender{b.Label, "wall-time (s)", b.Seconds, got.Seconds, allowed})
		}
		fmt.Printf("gate %-14s %8.2fs vs baseline %8.2fs (%+.0f%%, allowed %.2fs) %s\n",
			b.Label, got.Seconds, b.Seconds, (ratio-1)*100, allowed, status)
		if math.Abs(got.Dist-b.Dist) > 1e-6 {
			fmt.Printf("gate %-14s WARNING: mean distance %.6f differs from baseline %.6f — pipeline output changed\n",
				b.Label, got.Dist, b.Dist)
		}
		// Memory gate: index-bench rows also carry bytes/event. Unlike
		// wall-time it is deterministic, so no absolute slack is needed.
		if b.BytesPerEvent > 0 && got.BytesPerEvent > b.BytesPerEvent*(1+maxRegress) {
			offenders = append(offenders, offender{b.Label, "bytes/event", b.BytesPerEvent, got.BytesPerEvent, b.BytesPerEvent * (1 + maxRegress)})
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("baseline configuration(s) %v produced no measurement in this run (renamed or dropped? regenerate the baseline if intentional)", missing)
	}
	if compared == 0 {
		return fmt.Errorf("no comparable rows between this run and %s", baselinePath)
	}
	if len(offenders) > 0 {
		// Side-by-side detail of every offending row: the error line below
		// is what CI greps, this block is what a human reads.
		fmt.Printf("\ngate FAILED — offending row(s), baseline vs current:\n")
		fmt.Printf("  %-16s %-14s %12s %12s %12s %8s\n", "row", "metric", "baseline", "current", "allowed", "over")
		var labels []string
		for _, o := range offenders {
			fmt.Printf("  %-16s %-14s %12.3f %12.3f %12.3f %+7.0f%%\n",
				o.label, o.metric, o.baseVal, o.gotVal, o.allowedVal, (o.gotVal/o.baseVal-1)*100)
			labels = append(labels, o.label)
		}
		return fmt.Errorf("%d measurement(s) regressed beyond the allowed threshold: %v", len(offenders), labels)
	}
	return nil
}

// sessionBench measures the workload the session engine targets: an
// interactive refinement sweep re-abstracting one log under progressively
// tightened constraint sets (the §VI-D case-study constraint with shrinking
// group-size bounds — exactly what an analyst comparing granularities
// runs). Cold runs the full pipeline per set; warm builds one core.Session
// and solves the same sets on it, so sets 2..N start with the index, DFG,
// and a warm distance memo. Results must match exactly — the speedup is
// free, not bought with approximation — so any divergence is a hard error.
func sessionBench(opts experiments.Options) error {
	log := procgen.LoanLog(1000, 17)
	sweep := []string{
		"distinct(class.org) <= 1",
		"distinct(class.org) <= 1\n|g| <= 8",
		"distinct(class.org) <= 1\n|g| <= 6",
		"distinct(class.org) <= 1\n|g| <= 4",
	}
	cfg := core.Config{
		Mode:    core.DFGUnbounded,
		Workers: opts.Workers,
	}
	if opts.MaxChecks > 0 {
		cfg.Budget.MaxChecks = opts.MaxChecks
	}
	sets := make([]*gecco.ConstraintSet, len(sweep))
	for i, text := range sweep {
		set, err := gecco.ParseConstraints(text)
		if err != nil {
			return err
		}
		sets[i] = set
	}

	fmt.Printf("session reuse — refinement sweep of %d constraint sets on %s (%d traces):\n",
		len(sets), log.Name, len(log.Traces))
	coldTimes := make([]time.Duration, len(sets))
	cold := make([]*core.Result, len(sets))
	t0 := time.Now()
	for i, set := range sets {
		t := time.Now()
		res, err := core.Run(context.Background(), log, set, cfg)
		if err != nil {
			return err
		}
		cold[i], coldTimes[i] = res, time.Since(t)
	}
	coldTotal := time.Since(t0)

	t1 := time.Now()
	sess, err := core.NewSession(log)
	if err != nil {
		return err
	}
	build := time.Since(t1)
	warmTimes := make([]time.Duration, len(sets))
	warm := make([]*core.Result, len(sets))
	t2 := time.Now()
	for i, set := range sets {
		t := time.Now()
		res, err := sess.Solve(context.Background(), set, cfg)
		if err != nil {
			return err
		}
		warm[i], warmTimes[i] = res, time.Since(t)
	}
	warmTotal := time.Since(t2)

	for i := range sets {
		if cold[i].Feasible != warm[i].Feasible || cold[i].Distance != warm[i].Distance ||
			cold[i].NumCandidates != warm[i].NumCandidates {
			return fmt.Errorf("session bench: set %d diverged between cold and warm runs (dist %v vs %v)",
				i+1, cold[i].Distance, warm[i].Distance)
		}
		fmt.Printf("  set %d: cold %8v   warm %8v\n",
			i+1, coldTimes[i].Round(time.Millisecond), warmTimes[i].Round(time.Millisecond))
	}
	fmt.Printf("  total: cold %v, warm %v (+ %v one-time session build)\n",
		coldTotal.Round(time.Millisecond), warmTotal.Round(time.Millisecond), build.Round(time.Millisecond))
	if warmTotal > 0 {
		fmt.Printf("  sweep speedup %.2fx; warm solves after the first: %.2fx (results identical)\n",
			float64(coldTotal)/float64(warmTotal),
			float64(coldTotal-coldTimes[0])/float64(warmTotal-warmTimes[0]))
	}
	return nil
}

// streamBench measures the online abstractor's steady-state per-arrival
// cost at two window sizes an order of magnitude apart, on the same trace
// stream. Drift detection is disabled and the refresh cadence pushed out of
// reach so the measurement isolates the arrival path — ring-buffer
// insertion, edge-refcount maintenance, the O(1) drift check, and the
// per-trace rewrite — which must be O(|trace|), independent of the window.
// The two rows feed the -json report and the -baseline gate; a per-arrival
// cost that grows with the window (the pre-incremental implementation
// rescanned the whole window per Push, ~10× here) fails immediately.
func streamBench(opts experiments.Options) ([]experiments.Row, error) {
	const (
		warmup   = 2000 // fills the larger window before timing starts
		arrivals = 6000 // timed steady-state arrivals, same for both windows
	)
	set := constraints.NewSet(constraints.MustParse("distinct(role) <= 1"))
	traces := procgen.RunningExample(warmup+arrivals, 41).Traces

	fmt.Printf("online abstractor — steady-state per-arrival cost over %d arrivals:\n", arrivals)
	rows := make([]experiments.Row, 0, 2)
	perArrival := make([]float64, 0, 2)
	for _, window := range []int{200, 2000} {
		a := stream.New(set, stream.Config{
			WindowSize:     window,
			RefreshEvery:   1 << 30,
			DriftThreshold: -1, // sentinel: drift detection off
			Pipeline:       core.Config{Mode: core.DFGUnbounded, Workers: opts.Workers},
		})
		for _, tr := range traces[:warmup] {
			if _, err := a.Push(tr); err != nil {
				return nil, fmt.Errorf("stream bench warmup (W=%d): %w", window, err)
			}
		}
		start := time.Now()
		for _, tr := range traces[warmup:] {
			if _, err := a.Push(tr); err != nil {
				return nil, fmt.Errorf("stream bench (W=%d): %w", window, err)
			}
		}
		elapsed := time.Since(start)
		per := elapsed.Seconds() / arrivals
		perArrival = append(perArrival, per)
		rows = append(rows, experiments.Row{
			Label:   fmt.Sprintf("Stream/W=%d", window),
			Seconds: elapsed.Seconds(),
			N:       arrivals,
		})
		fmt.Printf("  W=%-5d %8.2f µs/arrival (%v total, %d regroupings)\n",
			window, per*1e6, elapsed.Round(time.Millisecond), a.Regroupings)
	}
	ratio := perArrival[1] / perArrival[0]
	fmt.Printf("  per-arrival cost ratio W=2000 / W=200: %.2fx (flat within noise expected)\n", ratio)
	// A generous bound: genuine O(|trace|) arrivals stay near 1× with
	// scheduler jitter; the old per-Push window rescan sat near the window
	// ratio (10×).
	if ratio > 3 {
		return nil, fmt.Errorf("per-arrival cost is not flat in the window size: %.2fx at 10x the window", ratio)
	}
	return rows, nil
}

// indexBench measures the columnar event-log core: how fast NewIndex turns
// a parsed *Log into the arena-plus-columns layout (events/second), and how
// much smaller that layout is than the pointer-heavy Log it replaces
// (estimated bytes/event, same allocation model on both sides — see
// eventlog.EstimateLogBytes). The rows feed the -json report and the
// -baseline gate; the ≥2x size improvement the columnar refactor exists for
// is asserted here directly, so a layout regression fails even before a
// baseline comparison.
func indexBench() ([]experiments.Row, error) {
	const reps = 5
	benchLogs := []*eventlog.Log{
		procgen.LoanLog(1000, 17),
		procgen.RunningExample(2000, 7),
	}
	tmp, err := os.MkdirTemp("", "gecco-index-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	fmt.Println("columnar index — build throughput, footprint, and cold start vs open:")
	rows := make([]experiments.Row, 0, 3*len(benchLogs))
	for _, log := range benchLogs {
		events := log.NumEvents()
		start := time.Now()
		var x *eventlog.Index
		for r := 0; r < reps; r++ {
			x = eventlog.NewIndex(log)
		}
		elapsed := time.Since(start)
		idxBytes := x.EstimatedBytes()
		logBytes := eventlog.EstimateLogBytes(log)
		perEvent := float64(idxBytes) / float64(events)
		naivePerEvent := float64(logBytes) / float64(events)
		evPerSec := float64(reps*events) / elapsed.Seconds()
		fmt.Printf("  %-22s %8.2f Mevents/s build   %6.1f bytes/event (log: %6.1f, %4.1fx smaller)\n",
			log.Name, evPerSec/1e6, perEvent, naivePerEvent, naivePerEvent/perEvent)
		if float64(idxBytes)*2 > float64(logBytes) {
			return nil, fmt.Errorf("index of %s is only %.2fx smaller than the log (%d vs %d bytes); the columnar layout must stay >= 2x smaller",
				log.Name, naivePerEvent/perEvent, idxBytes, logBytes)
		}
		rows = append(rows, experiments.Row{
			Label:         "Index/" + log.Name,
			Seconds:       elapsed.Seconds(),
			N:             reps * events,
			BytesPerEvent: perEvent,
		})

		// Cold start vs warm open: what a server restart pays per log without
		// and with the persistent index. Cold is the full pipeline a cache
		// miss runs (parse the XES text, build the index); open is
		// eventlog.OpenIndex on the spilled file.
		var xesText bytes.Buffer
		if err := xes.Write(&xesText, log); err != nil {
			return nil, err
		}
		coldStart := time.Now()
		for r := 0; r < reps; r++ {
			parsed, err := xes.Read(bytes.NewReader(xesText.Bytes()))
			if err != nil {
				return nil, err
			}
			eventlog.NewIndex(parsed)
		}
		cold := time.Since(coldStart)

		path := filepath.Join(tmp, log.Name+".gidx")
		if err := eventlog.WriteIndexFile(path, x); err != nil {
			return nil, err
		}
		openStart := time.Now()
		for r := 0; r < reps; r++ {
			opened, err := eventlog.OpenIndex(path)
			if err != nil {
				return nil, err
			}
			opened.Close()
		}
		open := time.Since(openStart)

		speedup := cold.Seconds() / open.Seconds()
		fmt.Printf("  %-22s cold %8.2fms (parse+build)   open %8.2fms   %5.1fx faster\n",
			log.Name, cold.Seconds()*1e3/reps, open.Seconds()*1e3/reps, speedup)
		if speedup < 5 {
			return nil, fmt.Errorf("OpenIndex on %s is only %.1fx faster than re-parse+build (%.2fms vs %.2fms per rep); the persistent format must stay >= 5x faster",
				log.Name, speedup, open.Seconds()*1e3/reps, cold.Seconds()*1e3/reps)
		}
		rows = append(rows,
			experiments.Row{Label: "IndexCold/" + log.Name, Seconds: cold.Seconds(), N: reps * events},
			experiments.Row{Label: "IndexOpen/" + log.Name, Seconds: open.Seconds(), N: reps * events},
		)
	}
	return rows, nil
}

// evalBench measures the solver kernels in isolation, the micro-counterpart
// of the Table VI end-to-end rows:
//
//   - Eval/HoldsInstance: screened instance-constraint verdicts over an
//     exhaustive pair+triple group enumeration (checks/s); the screened
//     share prints alongside, since the speedup comes from verdicts decided
//     without materialising instances.
//   - Eval/Distance: exact Eq. 1 evaluations on a cold memo over the same
//     enumeration (evals/s), exercising the streaming variantTerm path.
//   - Eval/BeamPrune: a DFG beam run with a tight width, timed end to end;
//     N records the frontier nodes the admissible lower bound discharged,
//     and the prune rate (pruned / (pruned + exact evals)) prints.
//
// Rows feed -json/-baseline like every other section. Screening or pruning
// never firing is a hard error: it means the kernels degenerated to the
// scan/full-sort fallbacks and the micro numbers are measuring nothing.
func evalBench(ctx context.Context, opts experiments.Options) ([]experiments.Row, error) {
	log := procgen.LoanLog(1000, 17)
	x := eventlog.NewIndex(log)
	set := constraints.NewSet(
		constraints.MustParse("distinct(role) <= 2"),
		constraints.MustParse("max(cost) <= 400"),
		constraints.MustParse("gap <= 3600"),
	)
	nc := x.NumClasses()
	var groups []bitset.Set
	for a := 0; a < nc; a++ {
		for b := a + 1; b < nc; b++ {
			g := bitset.New(nc)
			g.Add(a)
			g.Add(b)
			groups = append(groups, g)
			for c := b + 1; c < nc; c++ {
				g3 := bitset.New(nc)
				g3.Add(a)
				g3.Add(b)
				g3.Add(c)
				groups = append(groups, g3)
			}
		}
	}
	fmt.Printf("solver kernels — %d classes, %d pair/triple groups on %s:\n", nc, len(groups), log.Name)

	const reps = 5
	rows := make([]experiments.Row, 0, 3)

	// Screened instance evaluation. A fresh evaluator per rep keeps the
	// counters per-rep comparable; the attribute cache warms on rep one,
	// which is exactly the amortisation a solve run sees.
	attrs := constraints.NewAttrCache(x)
	var ev *constraints.Evaluator
	start := time.Now()
	for r := 0; r < reps; r++ {
		ev = constraints.NewEvaluatorCached(x, set, instances.SplitOnRepeat, attrs)
		for _, g := range groups {
			ev.HoldsInstance(g)
		}
	}
	holdElapsed := time.Since(start)
	holdN := reps * len(groups)
	screened := ev.ScreenHits()
	if screened == 0 {
		return nil, fmt.Errorf("eval bench: screens never decided a verdict across %d checks", len(groups))
	}
	fmt.Printf("  HoldsInstance  %10.0f checks/s   (%d/%d verdicts screened without a log pass)\n",
		float64(holdN)/holdElapsed.Seconds(), screened, len(groups)*len(set.Instance))
	rows = append(rows, experiments.Row{Label: "Eval/HoldsInstance", Seconds: holdElapsed.Seconds(), N: holdN})

	// Exact Eq. 1 on a cold memo: a fresh Calc per rep, so every Group call
	// is a real streaming evaluation rather than a memo hit.
	start = time.Now()
	for r := 0; r < reps; r++ {
		dc := distance.NewCalc(x, instances.SplitOnRepeat)
		for _, g := range groups {
			dc.Group(g)
		}
	}
	distElapsed := time.Since(start)
	distN := reps * len(groups)
	fmt.Printf("  Distance       %10.0f evals/s\n", float64(distN)/distElapsed.Seconds())
	rows = append(rows, experiments.Row{Label: "Eval/Distance", Seconds: distElapsed.Seconds(), N: distN})

	// Beam frontier pruning: a tight beam forces the LB-gated sort to gate,
	// and the session surfaces both counters on the Result. The bound only
	// separates paths whose class sets the log hosts with different degrees
	// of partial coverage, so this section runs on the collection's
	// second log (40 classes, noisy variants); on the loan log nearly every
	// class co-occurs with every other and the bounds barely spread.
	beamLog := procgen.BuildLog(procgen.CollectionSpecs()[1])
	sess, err := core.NewSession(beamLog)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Mode: core.DFGBeam, BeamWidth: 4, Workers: opts.Workers}
	if opts.MaxChecks > 0 {
		cfg.Budget.MaxChecks = opts.MaxChecks
	}
	start = time.Now()
	res, err := sess.Solve(ctx, set, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval bench: beam run: %w", err)
	}
	beamElapsed := time.Since(start)
	exact := sess.Calc(cfg.Policy).Evals()
	if res.LBPruned == 0 {
		return nil, fmt.Errorf("eval bench: the lower bound pruned no frontier nodes (beam width %d, %d exact evals)", cfg.BeamWidth, exact)
	}
	rate := float64(res.LBPruned) / float64(res.LBPruned+exact)
	fmt.Printf("  BeamPrune      %10.2fms solve   %d nodes pruned, %d exact evals (%.0f%% of the frontier discharged by bounds)\n",
		beamElapsed.Seconds()*1e3, res.LBPruned, exact, rate*100)
	rows = append(rows, experiments.Row{Label: "Eval/BeamPrune", Seconds: beamElapsed.Seconds(), N: res.LBPruned})
	return rows, nil
}

func run(title string, fn func()) {
	fmt.Printf("running %s...\n", title)
	start := time.Now()
	fn()
	fmt.Printf("(%s in %v)\n\n", title, time.Since(start).Round(time.Millisecond))
}

func emitFigures(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, dot string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(dot), 0o644)
	}
	// Figure 2: full DFG of the running example.
	running := procgen.RunningExampleTable1()
	if err := write("figure2_running_example_dfg.dot", gecco.DFGDot(running, 1)); err != nil {
		return err
	}
	// Figure 3: DFG after abstraction with the role constraint.
	res, err := gecco.Abstract(running, "distinct(role) <= 1", gecco.Config{Mode: gecco.ModeDFGUnbounded, NamePrefix: "clrk"})
	if err != nil {
		return err
	}
	if err := write("figure3_abstracted_dfg.dot", gecco.DFGDot(res.Abstracted, 1)); err != nil {
		return err
	}
	// Figure 1: 80/20 DFG of the (synthetic) loan log.
	loan := procgen.LoanLog(1000, 17)
	if err := write("figure1_loan_8020_dfg.dot", gecco.DFGDot(loan, 0.8)); err != nil {
		return err
	}
	// Figure 8: 80/20 DFG of the loan log abstracted under the
	// origin-system constraint (§VI-D).
	caseRes, err := gecco.Abstract(loan, "distinct(class.org) <= 1\n|g| <= 8",
		gecco.Config{Mode: gecco.ModeDFGUnbounded, NameByClassAttr: "org"})
	if err != nil {
		return err
	}
	if !caseRes.Feasible {
		return fmt.Errorf("case study infeasible: %s", caseRes.Diagnostics)
	}
	if err := write("figure8_case_study_dfg.dot", gecco.DFGDot(caseRes.Abstracted, 0.8)); err != nil {
		return err
	}
	fmt.Printf("figures written to %s/\n", dir)
	return nil
}
