package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// phase is one measured phase of a run: a closed loop with one caller per
// CPU (throughput) or with one caller (latency).
type phase struct {
	name      string
	attempted int
	failed    int
	lat       []float64 // per-operation latency, ms
	elapsed   time.Duration
}

func (p *phase) succeeded() int { return p.attempted - p.failed }

// report is what one measured run of a workload yields. A run measures its
// phases in several interleaved rounds and pools them: throughput is all
// operations of the throughput rounds over their time, and the percentiles
// are taken over the latencies of every latency round together. Pooling
// uses every sample, so a run's figures hold still better than a median of
// per-round figures, each of which rests on a few of them.
type report struct {
	phases     []*phase
	throughput []*phase // rounds whose rate gives throughput_ops_s
	latency    []*phase // rounds whose latencies give p50/p90
	heapMB     float64
	// layer holds the per-layer metrics (traced runs only).
	layer map[string]metric
	// shareOps selects the spans the self-time shares are computed over
	// (nil: all).
	shareOps  func(span) bool
	attempted int
	failed    int
	failures  []string
}

func (r *report) add(p *phase) {
	r.phases = append(r.phases, p)
	r.attempted += p.attempted
	r.failed += p.failed
}

// fail records an output-check failure found after the phases ran; it counts
// against the operation it concerns, which was already attempted.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// pooled gathers the given samples of every round into one slice.
func pooled(rounds []*phase, samples func(*phase) []float64) []float64 {
	var all []float64
	for _, p := range rounds {
		all = append(all, samples(p)...)
	}
	return all
}

func latencies(p *phase) []float64 { return p.lat }

// rate is the operations that succeeded per second over all the rounds.
func rate(rounds []*phase) float64 {
	var ok int
	var elapsed time.Duration
	for _, p := range rounds {
		ok += p.succeeded()
		elapsed += p.elapsed
	}
	return ratio(float64(ok), elapsed.Seconds())
}

func (r *report) p50() float64 { return quantile(pooled(r.latency, latencies), 0.5) }

func (r *report) endToEnd() map[string]metric {
	return map[string]metric{
		"throughput_ops_s": {rate(r.throughput), "1/s"},
		"p50_ms":           {r.p50(), "ms"},
		"p90_ms":           {quantile(pooled(r.latency, latencies), 0.9), "ms"},
		"ok_share":         {ratio(float64(r.attempted-r.failed), float64(r.attempted)), "ratio"},
		"retained_heap_mb": {r.heapMB, "MB"},
	}
}

func (r *report) result(m map[string]metric) result {
	attempted := max(r.attempted, 1)
	return result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: m}
}

func (r *report) print(w io.Writer, label string) {
	for _, p := range r.phases {
		fmt.Fprintf(w, "%s %-8s attempted %5d succeeded %5d failed %3d  %6.2fs  p50 %8.2fms p90 %8.2fms (%d beyond p90)\n",
			label, p.name, p.attempted, p.succeeded(), p.failed, p.elapsed.Seconds(),
			quantile(p.lat, 0.5), quantile(p.lat, 0.9), beyond(p.lat, 0.9))
	}
	fmt.Fprintf(w, "%s retained heap %.1f MB\n", label, r.heapMB)
	for _, f := range r.failures {
		fmt.Fprintf(w, "%s check failed: %s\n", label, f)
	}
	if len(r.layer) > 0 {
		keys := make([]string, 0, len(r.layer))
		for k := range r.layer {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s %-34s %14.4f %s\n", label, k, r.layer[k].Value, r.layer[k].Unit)
		}
	}
}

// liveHeapMB forces a collection and returns the live heap: what the
// workload's long-lived state pins once the measured phase is over.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// allocs samples the runtime's cumulative allocation and GC counters.
type allocs struct {
	bytes uint64
	gcs   uint32
}

func readAllocs() allocs {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocs{ms.TotalAlloc, ms.NumGC}
}

// goMetrics reports allocation per operation and collections over the
// measured phases. The whole process counts: in-process servers and the
// clients that drive them alike.
func goMetrics(l layers, before, after allocs, ops int) {
	l.set("go.alloc_kb_per_op", ratio(float64(after.bytes-before.bytes)/1024, float64(ops)))
	l.set("go.gc_cycles", float64(after.gcs-before.gcs))
}

// sample is one operation's outcome as a loop sees it.
type sample struct {
	lat time.Duration
	ok  bool
}

// doFunc performs operation i and returns when its answer had arrived, so
// work the caller does afterwards (checks, bookkeeping) is not latency.
type doFunc func(i int) (end time.Time, ok bool)

// closedLoop runs operations first..first+n-1 with the given number of
// callers, each sending its next operation only when the previous one
// returned.
func closedLoop(name string, first, n, callers int, do doFunc) *phase {
	p := &phase{name: name, attempted: n}
	out := make([]sample, n)
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				end, ok := do(first + i)
				out[i] = sample{lat: end.Sub(t0), ok: ok}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	p.elapsed = time.Since(start)
	for _, s := range out {
		p.lat = append(p.lat, ms(s.lat))
		if !s.ok {
			p.failed++
		}
	}
	return p
}
