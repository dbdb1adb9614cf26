package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of one module. Spans of one operation share Op; Parent is
// the ID of the span that caused this one (0 for an operation's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

// tracer keeps spans in memory for the traced run and writes them out when
// the run ends. A nil *tracer records nothing, so untraced code paths call
// the same methods at no cost.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the current offset from the tracer's epoch.
func (t *tracer) now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// add records a span with explicit bounds and returns its ID (0 when t is
// nil). Spans derived from timings the program reports, rather than timed
// by the benchmark, are recorded this way.
func (t *tracer) add(op, parent int, name string, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// begin opens a span ending at the matching finish.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := t.now()
	return t.add(op, parent, name, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// bounds returns a recorded span's start and end.
func (t *tracer) bounds(id int) (time.Duration, time.Duration) {
	if t == nil || id == 0 {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.Start, s.End
}

// layout lays child spans of known durations back to back from start, in
// the order given, inside the parent span. It places durations that were
// measured elsewhere — by the program (Result.Timings, stage statuses) or by
// the benchmark replaying a layer on the same input — into the request they
// belong to, so the parent's self time becomes what no layer accounts for.
// Only the durations are measured; the positions follow the order in which
// the program runs the layers.
func (t *tracer) layout(op, parent int, start time.Duration, parts []part) {
	at := start
	for _, p := range parts {
		if p.d <= 0 {
			continue
		}
		t.add(op, parent, p.name, at, at+p.d)
		at += p.d
	}
}

type part struct {
	name string
	d    time.Duration
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the parent's
// interval and overlapping children count once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within
// [start, end].
func covered(start, end time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// module is the layer a span name belongs to: the part before the first
// dot ("xes.read" → "xes").
func module(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// moduleShares sums self time per module over the spans accepted by keep
// and returns each module's share of the total.
func moduleShares(spans []span, keep func(span) bool) map[string]float64 {
	self := selfTimes(spans)
	per := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range spans {
		if keep != nil && !keep(s) {
			continue
		}
		per[module(s.Name)] += self[s.ID]
		total += self[s.ID]
	}
	out := make(map[string]float64, len(per))
	for m, d := range per {
		out[m] = ratio(float64(d), float64(total))
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
