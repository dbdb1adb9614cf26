// Command perfbench is the repository's benchmark. It drives one of two
// workloads from one process, checks every output it receives, and prints
// its metrics as one JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload solve-sweep --seed 1 --seconds 40 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	solve-sweep   library only: sessions and Table IV solves, one caller
//	serve-mixed   two shards behind a coordinator router, a seeded mix of
//	              cache hits, warm solves, warm opens, pipelines (some on
//	              CSV uploads) and streams
//
// With --trace 0 the run reports the end-to-end metrics: set-up time (the
// median of repeated set-ups), closed-loop throughput, latency percentiles,
// the share of operations that succeeded, and the live heap after a forced
// collection. With --trace 1 it measures the workload untraced, then sets
// up again and replays the same inputs with spans recorded around the
// calls into each module; it reports the per-layer metrics, the modules'
// self-time shares and the tracing overhead, and writes the spans to
// .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix. setup builds its inputs and references and
// starts what it drives, keeping what a traced replay needs only when
// traced; run measures it once, with spans when tr is not nil; close
// releases everything setup started.
type workload interface {
	setup(seed int64, seconds int, traced bool) error
	run(tr *tracer) (*report, error)
	close()
}

var workloads = map[string]func(dir string) workload{
	"solve-sweep": func(string) workload { return &sweep{} },
	"serve-mixed": func(dir string) workload { return &mixed{dataRoot: dir} },
}

// A run sets its workload up before the measured phase at least once and
// until setupBudget has gone, at most maxSetups times, and after it as
// many times again but at least twice; setup_s is the median, so one slow
// set-up does not move it. Cheap set-ups are repeated more: their medians
// need more samples to hold still. Set-ups come both before and after the
// measured phase so that a spell of load from outside the process slows
// only some of them.
const (
	maxSetups   = 4
	setupBudget = 2 * time.Second
)

// outDir holds what a run writes: span files and the warm tier of
// serve-mixed. It lives under the checkout's build directory.
const outDir = ".bench_build/perfbench"

func main() {
	name := flag.String("workload", "", "solve-sweep or serve-mixed")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Int("seconds", 40, "how long the measured phases run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced replay")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	dir, err := filepath.Abs(outDir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	runtime.GC()

	var out result
	if traced {
		out, err = runTraced(mk, dir, name, seed, seconds)
	} else {
		out, err = runUntraced(mk, dir, seed, seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runUntraced sets the workload up several times, measures the last
// set-up, and sets it up again.
func runUntraced(mk func(string) workload, dir string, seed int64, seconds int) (result, error) {
	var setups []float64
	var w workload
	start := time.Now()
	for i := 0; i < maxSetups && (i == 0 || time.Since(start) < setupBudget); i++ {
		if w != nil {
			w.close()
		}
		var d float64
		var err error
		if w, d, err = timedSetup(mk, dir, seed, seconds); err != nil {
			return result{}, err
		}
		setups = append(setups, d)
	}
	rep, err := w.run(nil)
	w.close()
	if err != nil {
		return result{}, err
	}
	rep.print(os.Stderr, "untraced")
	for range max(len(setups), 2) {
		w, d, err := timedSetup(mk, dir, seed, seconds)
		if err != nil {
			return result{}, err
		}
		w.close()
		setups = append(setups, d)
	}
	m := rep.endToEnd()
	m["setup_s"] = metric{median(setups), "s"}
	return rep.result(m), nil
}

// timedSetup sets a new instance of the workload up and times it. Each
// set-up starts from a collected heap, so none pays for collecting the
// garbage of the one before.
func timedSetup(mk func(string) workload, dir string, seed int64, seconds int) (workload, float64, error) {
	runtime.GC()
	w := mk(dir)
	t0 := time.Now()
	if err := w.setup(seed, seconds, false); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// runTraced measures the workload untraced, then replays the same inputs on
// a fresh set-up with spans. Per-layer numbers come from the traced replay;
// the difference between the two runs' p50 is the tracing overhead.
func runTraced(mk func(string) workload, dir, name string, seed int64, seconds int) (result, error) {
	base := mk(dir)
	if err := base.setup(seed, seconds, false); err != nil {
		base.close()
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	plain, err := base.run(nil)
	base.close()
	if err != nil {
		return result{}, err
	}
	plain.print(os.Stderr, "untraced")

	w := mk(dir)
	defer w.close()
	if err := w.setup(seed, seconds, true); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	rep, err := w.run(tr)
	if err != nil {
		return result{}, err
	}
	rep.print(os.Stderr, "traced")
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed)), spans); err != nil {
		return result{}, err
	}

	m := make(map[string]metric, len(rep.layer)+16)
	for k, v := range rep.layer {
		m[k] = v
	}
	shares := moduleShares(spans, rep.shareOps)
	for _, mod := range shareModules {
		m["share."+mod] = metric{shares[mod], "ratio"}
	}
	m["trace.overhead_p50_ms"] = metric{rep.p50() - plain.p50(), "ms"}
	printShares(os.Stderr, shares)

	// The traced run also counts against correctness: every output of both
	// runs was checked.
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	return rep.result(m), nil
}

// shareModules are the modules whose self-time share the traced run
// reports; spans of other names count towards the total only.
var shareModules = []string{"xes", "csvlog", "eventlog", "core", "candidates", "cover", "abstraction", "service", "router", "pipeline", "stream"}

func printShares(f *os.File, shares map[string]float64) {
	mods := make([]string, 0, len(shares))
	for m := range shares {
		mods = append(mods, m)
	}
	sort.Slice(mods, func(i, j int) bool { return shares[mods[i]] > shares[mods[j]] })
	fmt.Fprint(f, "self-time shares:")
	for _, m := range mods {
		fmt.Fprintf(f, " %s %.3f", m, shares[m])
	}
	fmt.Fprintln(f)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
