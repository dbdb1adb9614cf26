package main

import (
	"fmt"
	"math/rand"
	"strings"

	"gecco/internal/csvlog"
	"gecco/internal/eventlog"
	"gecco/internal/procgen"
	"gecco/internal/xes"
)

// sweepRefs are the Table III logs solve-sweep runs. They are the logs on
// which all 18 (core set × mode) problems finish in well under a second at
// sweepMaxChecks without any time limit, so every output is exact and
// checkable; [17] and [19] under Exh are the problems where Step 2 (the
// exact set-partitioning solve) dominates.
var sweepRefs = []string{"[14]", "[17]", "[19]", "[20]", "[22]", "[24]", "[26]"}

// sweepMaxChecks bounds Step 1 the only way solve-sweep bounds anything:
// by candidate count, never by wall clock.
const sweepMaxChecks = 3000

// perturb derives the seeded variant of a log: its traces in a seeded order
// under fresh case IDs. The bytes, the log digest and the order in which
// the index meets the traces differ with the seed; the multiset of trace
// variants does not, so an abstraction problem costs the same on every
// seed and run-to-run spread measures the program, not the draw. (With a
// tenth of the traces drawn anew, solve-sweep's throughput had a quartile
// spread of 23% of its median over five seeds on a 2-CPU box, against 6%
// over five repeats of one seed at the time.)
func perturb(base *eventlog.Log, rng *rand.Rand, tag string) *eventlog.Log {
	out := &eventlog.Log{Name: base.Name, Attrs: base.Attrs, Traces: make([]eventlog.Trace, len(base.Traces))}
	for i, p := range rng.Perm(len(base.Traces)) {
		tr := base.Traces[p]
		tr.ID = fmt.Sprintf("%s-%d", tag, i)
		out.Traces[i] = tr
	}
	return out
}

// sweepLogs returns the seeded solve-sweep logs, in sweepRefs order.
func sweepLogs(seed int64) []*eventlog.Log {
	rng := rand.New(rand.NewSource(seed))
	byRef := make(map[string]procgen.CollectionSpec)
	for _, s := range procgen.CollectionSpecs() {
		byRef[s.Ref] = s
	}
	logs := make([]*eventlog.Log, len(sweepRefs))
	for i, ref := range sweepRefs {
		logs[i] = perturb(procgen.BuildLog(byRef[ref]), rng, fmt.Sprintf("s%d-l%d", seed, i))
	}
	return logs
}

// smallLog simulates a small serving-sized log: classes event classes,
// traces traces, with a process model drawn from modelSeed. The serving
// workloads keep the model seeds fixed and derive their seeded inputs with
// perturb, so a request's cost does not depend on the run's seed.
func smallLog(name string, classes, traces int, modelSeed int64) *eventlog.Log {
	spec := procgen.CollectionSpec{
		Ref:           name,
		Classes:       classes,
		Traces:        traces,
		Seed:          modelSeed,
		PaperVariants: traces / 2,
		PaperAvgLen:   float64(classes) * 1.2,
	}
	l := procgen.BuildLog(spec)
	l.Name = name
	return l
}

// parseText reads a log back with the library reader of its format.
func parseText(format, text string) (*eventlog.Log, error) {
	if format == "csv" {
		return csvlog.Read(strings.NewReader(text), csvlog.Options{})
	}
	return xes.Read(strings.NewReader(text))
}
