package main

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. Every workload reports all of them; a layer a workload does not
// reach reads 0 there. Times and counts are means per operation of the
// layer (per solve, per request, per session built) unless named a ratio.
var layerUnits = map[string]string{
	"xes.read_ms":               "ms",
	"xes.read_mb_s":             "MB/s",
	"csvlog.read_ms":            "ms",
	"xes.write_ms":              "ms",
	"eventlog.index_build_ms":   "ms",
	"eventlog.bytes_per_event":  "B",
	"eventlog.index_open_ms":    "ms",
	"core.session_build_ms":     "ms",
	"candidates.ms":             "ms",
	"candidates.count":          "count",
	"constraints.checks":        "count",
	"constraints.screen_ratio":  "ratio",
	"distance.evals":            "count",
	"distance.lb_prune_ratio":   "ratio",
	"distance.memo_entries":     "count",
	"cover.ms":                  "ms",
	"cover.nodes":               "count",
	"abstraction.ms":            "ms",
	"service.overhead_ms":       "ms",
	"service.result_hit_ratio":  "ratio",
	"service.session_hit_ratio": "ratio",
	"service.coalesced_share":   "ratio",
	"service.shed_share":        "ratio",
	"service.spills":            "count",
	"service.warm_opens":        "count",
	"router.hop_ms":             "ms",
	"router.forward_share":      "ratio",
	"hits.render_share":         "ratio",
	"hits.hop_share":            "ratio",
	"pipeline.filter_ms":        "ms",
	"pipeline.abstract_ms":      "ms",
	"pipeline.discover_ms":      "ms",
	"pipeline.conform_ms":       "ms",
	"pipeline.stage_hit_ratio":  "ratio",
	"stream.push_us":            "us",
	"stream.regroups":           "count",
	"go.alloc_kb_per_op":        "KB",
	"go.gc_cycles":              "count",
}

// layers is a set of per-layer metrics under construction.
type layers map[string]metric

func newLayers() layers {
	l := make(layers, len(layerUnits))
	for name, unit := range layerUnits {
		l[name] = metric{0, unit}
	}
	return l
}

func (l layers) set(name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unknown layer metric " + name)
	}
	l[name] = metric{v, unit}
}

// mean accumulates a per-operation mean.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(v float64)  { m.sum += v; m.n++ }
func (m *mean) value() float64 { return ratio(m.sum, float64(m.n)) }
