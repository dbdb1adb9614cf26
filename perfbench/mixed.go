package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/csvlog"
	"gecco/internal/eventlog"
	"gecco/internal/pipeline"
	"gecco/internal/service"
	"gecco/internal/shard"
	"gecco/internal/stream"
	"gecco/internal/xes"
)

// mixed is the serve-mixed workload: two shards with default Options and a
// shared warm tier, behind a pure-coordinator router, under a seeded mix of
//
//	45% reads: re-uploads of a solved (log, set), served by the result cache
//	10% warm:  a hot log with a constraint set it has not seen: a solve on a
//	           live session
//	10% evict: a cold log with a new set; its session was evicted and spilled,
//	           so the shard warm-opens its .gidx file instead of parsing
//	20% pipe:  /pipeline runs (filter, abstract, discover, conform); after
//	           the set-up primed them, some change only the conform stage
//	15% stream: NDJSON appends of eight traces to one of four named streams
//
// 48 logs (24 per shard) exceed the two shards' 2×16 sessions; the 16 hot
// logs and the cold ones that were opened last fit. The 96 read pairs, the
// only (log, set) pairs requested more than once, fit in the 2×256 result
// cache many times over; the new pairs of warm and evict operations are
// requested once and age out in LRU order. Here the caches, the wire memo,
// the router hop, the disk tier and the streams do the work, and parsing
// is mostly skipped: only pipelines parse their upload, one pipeline log
// per shard as CSV.
type mixed struct {
	dataRoot string
	dataDir  string
	seconds  int

	svcs   []*service.Service
	shards []*server
	coord  *server
	ring   *shard.Ring
	urls   map[string]string // ring member → shard URL
	client *http.Client

	logs    []*mixedLog
	pipes   []int // logs that pipeline ops run on
	streams []*mixedStream
	ops     []mixedOp
	primed  int    // ops[:primed] run during set-up
	seq     []bool // ops of the latency loop
	recs    []mixedRec
	refs    refCounters
	pipeRef map[[2]int]pipeRef
}

const (
	opRead = iota
	opWarm
	opEvict
	opPipe
	opStream
	numKinds
)

var kindNames = [numKinds]string{"read", "warm", "evict", "pipe", "stream"}

// mixDeck is how many of every 20 measured operations are of each kind, in
// kind order; each block of 20 is dealt in a seeded order. Pipelines on XES
// uploads, the slowest operations, are three of every 20 (the fourth
// pipeline uploads CSV), so p90 falls a third of the way into their
// latencies rather than on the edge between them and the solves, where a
// small shift of either kind would move it far.
var mixDeck = [numKinds]int{9, 2, 2, 4, 3}

const (
	mixedShards       = 2
	mixedLogsPerShard = 24
	mixedHotPerShard  = 8
	mixedPipePerShard = 4
	mixedReadSets     = 2
	mixedStreams      = 4
	streamBatch       = 8
	streamWindow      = 60
	streamRefresh     = 40
	streamConstraints = "|g| <= 4\ndistinct(role) <= 2"
	// defaultSessions is the session capacity of a shard with default
	// Options.
	defaultSessions = 16
)

var mixedSizing = sizing{closedPerSecond: 140, seqPerSecond: 75, seqShare: 0.5}

type mixedLog struct {
	text   string
	log    *eventlog.Log
	digest string
	owner  string
	hot    bool
	sess   *core.Session
	refs   map[int]mixedRef // per set variant
	next   int              // next unused set variant
	// pipe is what /pipeline runs on this log upload: the XES text, or for
	// the first pipeline log of each shard its CSV rendering.
	pipe pipeUpload
}

// pipeUpload is a log as a /pipeline request carries it, with the log the
// server reads back from it (set-up only, for the references).
type pipeUpload struct {
	format string
	text   string
	log    *eventlog.Log
	digest string
}

type mixedRef struct {
	out        outcome
	abstracted *eventlog.Log
}

// mixedSet is constraint set variant k: every k yields a distinct set, all
// cheap, all feasible (singletons always satisfy them).
func mixedSet(k int) string {
	return fmt.Sprintf("|g| <= %d\ndistinct(role) <= %d\navg(duration) <= %d", 3+k%6, 1+(k/6)%4, 500000+k/24)
}

// pipeSpecs is pipeline variant v: two filter settings × conform details
// off and on. The set-up runs the details-off variants; the measured ones
// that switch details on change only the tail stage.
func pipeSpecs(v int) []pipeline.StageSpec {
	return []pipeline.StageSpec{
		{Stage: "filter", TopVariants: []float64{0.8, 0.9}[v%2]},
		{Stage: "abstract", Mode: "dfg", MaxChecks: servedMaxChecks},
		{Stage: "discover"},
		{Stage: "conform", Details: v >= 2},
	}
}

const pipeConstraints = "|g| <= 4\ndistinct(role) <= 3"

type pipeRef struct {
	out       outcome
	edges     int
	fitness   float64
	precision float64
}

type mixedStream struct {
	name    string
	batches []string // NDJSON bodies; append n sends batch n mod len
	appends int
	want    [][][]string // per append, per trace: the activities
	mu      sync.Mutex
	cond    *sync.Cond
	done    int
}

type mixedOp struct {
	kind   int
	log    int
	set    int // set variant (read, warm, evict) or pipeline variant
	stream int
	seq    int // the append's position in its stream
}

type mixedRec struct {
	abstractRec
	stages []service.PipelineStageStatus
	traces int
}

func (m *mixed) setup(seed int64, seconds int, traced bool) error {
	m.seconds = seconds
	rng := rand.New(rand.NewSource(seed))
	ids := make([]string, mixedShards)
	for i := range ids {
		ids[i] = fmt.Sprintf("shard-%d", i)
	}
	m.ring = shard.New(ids, 0)
	if err := m.makeLogs(rng, seed); err != nil {
		return err
	}
	if err := m.makeStreams(rng, seed); err != nil {
		return err
	}
	m.makeOps(rng)
	if err := m.references(traced); err != nil {
		return err
	}
	if err := m.start(ids); err != nil {
		return err
	}
	// Prime: streams created, pipelines run once per filter setting, and
	// every log's read pairs solved — cold logs first, so their sessions
	// are the ones evicted and spilled, then the hot ones.
	for _, kind := range []int{opStream, opPipe, opEvict, opWarm} {
		var idx []int
		for i, op := range m.ops[:m.primed] {
			if op.kind == kind {
				idx = append(idx, i)
			}
		}
		p := closedLoop("prime", 0, len(idx), callers, func(j int) (time.Time, bool) { return m.do(nil)(idx[j]) })
		if p.failed > 0 {
			return fmt.Errorf("priming %s: %d of %d operations failed", kindNames[kind], p.failed, p.attempted)
		}
	}
	// Let the evicted sessions' spills land before the measured phases:
	// evict operations are meant to find their index files. Each shard
	// built a session per log and per pipeline filter setting, and keeps
	// defaultSessions of them.
	spilled := int64(mixedShards * (mixedLogsPerShard + 2*mixedPipePerShard - defaultSessions))
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var st service.ClusterStats
		if err := getJSON(m.client, m.coord.url+"/stats", &st); err != nil {
			return err
		}
		if st.Disk != nil && st.Disk.SpillWrites >= spilled {
			return nil
		}
		if time.Now().After(deadline) {
			var got int64
			if st.Disk != nil {
				got = st.Disk.SpillWrites
			}
			return fmt.Errorf("priming: %d of %d index spills landed", got, spilled)
		}
	}
}

// mixedModels are the process models the logs are drawn from, as (classes,
// traces); each shard owns the same number of logs of each model, so the
// cost of the mix does not depend on where the ring places them.
var mixedModels = [][2]int{{8, 40}, {9, 50}, {10, 60}, {11, 70}}

// pipeModel is the model of the pipeline logs. Pipelines parse their
// upload on every run, which makes them the slowest kind; logs of one model
// cost the same to parse, so p90 falls amid one cluster of latencies, not
// on the edge between clusters of different sizes.
const pipeModel = 3

// makeLogs derives seeded logs from the fixed models until each shard owns
// mixedLogsPerShard of them, an equal number per model; the first of each
// shard's logs are hot, and the first of pipeModel take the pipeline runs.
func (m *mixed) makeLogs(rng *rand.Rand, seed int64) error {
	var bases []*eventlog.Log
	for k, size := range mixedModels {
		bases = append(bases, smallLog(fmt.Sprintf("mixed-%d", k), size[0], size[1], int64(9000+k)))
	}
	quota := mixedLogsPerShard / len(mixedModels)
	perModel := make(map[[2]string]int)
	for i := 0; len(m.logs) < mixedShards*mixedLogsPerShard; i++ {
		if i > 20*mixedShards*mixedLogsPerShard {
			return fmt.Errorf("could not place %d logs on %d shards", mixedLogsPerShard, mixedShards)
		}
		k := i % len(mixedModels)
		l := perturb(bases[k], rng, fmt.Sprintf("m%d-%d", seed, i))
		l.Name = fmt.Sprintf("mixed-%d-%d", seed, i)
		var b strings.Builder
		if err := xes.Write(&b, l); err != nil {
			return err
		}
		text := b.String()
		owner := m.ring.Owner(text)
		key := [2]string{owner, fmt.Sprint(k)}
		if perModel[key] == quota {
			continue
		}
		// Solve what the server will parse, so wire rounding cannot differ.
		parsed, err := parseText("xes", text)
		if err != nil {
			return err
		}
		// Within a shard, logs are hot in the order the models come round,
		// so the hot set holds every model equally. The first logs of
		// pipeModel on a shard take the pipelines; the first of those is
		// uploaded as CSV, so the csvlog reader is on the served path.
		rank := perModel[key]*len(mixedModels) + k
		pipe := -1
		if k == pipeModel && perModel[key] < mixedPipePerShard {
			pipe = perModel[key]
		}
		ml := &mixedLog{text: text, log: parsed, digest: service.LogDigest(parsed), owner: owner,
			hot: rank < mixedHotPerShard, refs: make(map[int]mixedRef), next: mixedReadSets}
		ml.pipe = pipeUpload{format: "xes", text: text, log: parsed, digest: ml.digest}
		if pipe == 0 {
			// The router places a pipeline by its upload's text: keep only
			// logs whose CSV rendering has the same owner, so the shards'
			// session counts stay those of the XES design.
			var c strings.Builder
			if err := csvlog.Write(&c, l); err != nil {
				return err
			}
			if m.ring.Owner(c.String()) != owner {
				continue
			}
			back, err := parseText("csv", c.String())
			if err != nil {
				return err
			}
			ml.pipe = pipeUpload{format: "csv", text: c.String(), log: back, digest: service.LogDigest(back)}
		}
		if pipe >= 0 {
			m.pipes = append(m.pipes, len(m.logs))
		}
		perModel[key]++
		m.logs = append(m.logs, ml)
	}
	return nil
}

func (m *mixed) makeStreams(rng *rand.Rand, seed int64) error {
	for s := 0; s < mixedStreams; s++ {
		src := perturb(smallLog(fmt.Sprintf("stream-%d", s), 10, 200, int64(9500+s)), rng, fmt.Sprintf("st%d-%d", seed, s))
		st := &mixedStream{name: fmt.Sprintf("bench-%d-%d", seed, s)}
		st.cond = sync.NewCond(&st.mu)
		for b := 0; b*streamBatch < len(src.Traces); b++ {
			var body bytes.Buffer
			for _, tr := range src.Traces[b*streamBatch : min((b+1)*streamBatch, len(src.Traces))] {
				line, err := json.Marshal(wireTrace(tr))
				if err != nil {
					return err
				}
				body.Write(line)
				body.WriteByte('\n')
			}
			st.batches = append(st.batches, body.String())
		}
		m.streams = append(m.streams, st)
	}
	return nil
}

// makeOps builds the operation sequence: the priming operations, then the
// measured ones, dealt from mixDeck in blocks of 20. Reads pick a seeded
// pair; the other targets cycle, so hot logs are revisited at even
// intervals and evict operations reach the cold logs in the order they were
// evicted. (Priming solves the cold logs' read pairs under kind opEvict and
// the hot logs' under opWarm; that is only how setup tells the groups apart.)
func (m *mixed) makeOps(rng *rand.Rand) {
	var hot, cold []int
	for i, l := range m.logs {
		if l.hot {
			hot = append(hot, i)
		} else {
			cold = append(cold, i)
		}
	}
	appends := make([]int, len(m.streams))
	streamOp := func(s int) mixedOp {
		appends[s]++
		return mixedOp{kind: opStream, stream: s, seq: appends[s] - 1}
	}
	for s := range m.streams {
		m.ops = append(m.ops, streamOp(s))
	}
	for _, li := range m.pipes {
		for v := 0; v < 2; v++ {
			m.ops = append(m.ops, mixedOp{kind: opPipe, log: li, set: v})
		}
	}
	for _, group := range [][]int{cold, hot} {
		kind := opEvict
		if m.logs[group[0]].hot {
			kind = opWarm
		}
		for _, li := range group {
			for k := 0; k < mixedReadSets; k++ {
				m.ops = append(m.ops, mixedOp{kind: kind, log: li, set: k})
			}
		}
	}
	m.primed = len(m.ops)

	closed, seq := mixedSizing.perRound(m.seconds)
	var reads [][2]int
	for li := range m.logs {
		for k := 0; k < mixedReadSets; k++ {
			reads = append(reads, [2]int{li, k})
		}
	}
	var deck []int
	for kind, n := range mixDeck {
		for j := 0; j < n; j++ {
			deck = append(deck, kind)
		}
	}
	var nh, nc, np, ns int
	total := m.primed + rounds*(closed+seq)
	for len(m.ops) < total {
		for _, d := range rng.Perm(len(deck)) {
			var op mixedOp
			switch kind := deck[d]; kind {
			case opRead:
				r := reads[rng.Intn(len(reads))]
				op = mixedOp{kind: opRead, log: r[0], set: r[1]}
			case opWarm, opEvict:
				li := hot[nh%len(hot)]
				if kind == opWarm {
					nh++
				} else {
					li = cold[nc%len(cold)]
					nc++
				}
				op = mixedOp{kind: kind, log: li, set: m.logs[li].next}
				m.logs[li].next++
			case opPipe:
				op = mixedOp{kind: opPipe, log: m.pipes[np%len(m.pipes)], set: (np / len(m.pipes)) % 4}
				np++
			default:
				op = streamOp(ns % len(m.streams))
				ns++
			}
			m.ops = append(m.ops, op)
		}
	}
	m.ops = m.ops[:total]
	m.seq = make([]bool, total)
	for r := 0; r < rounds; r++ {
		for i := 0; i < seq; i++ {
			m.seq[m.primed+r*(closed+seq)+closed+i] = true
		}
	}
	m.recs = make([]mixedRec, total)
	for s, st := range m.streams {
		st.appends = appends[s]
	}
}

// references solves every (log, set) pair, pipeline and stream the
// operations will touch through the library, on one session per log. Only
// the outcomes are kept, and the abstracted logs when a traced replay will
// render them, so the harness pins little of the live heap the run reports.
func (m *mixed) references(traced bool) error {
	ctx := context.Background()
	m.pipeRef = make(map[[2]int]pipeRef)
	for _, op := range m.ops {
		switch op.kind {
		case opRead, opWarm, opEvict:
			l := m.logs[op.log]
			if _, ok := l.refs[op.set]; ok {
				continue
			}
			if l.sess == nil {
				sess, err := core.NewSession(l.log)
				if err != nil {
					return err
				}
				l.sess = sess
			}
			set, err := constraints.ParseSet(mixedSet(op.set))
			if err != nil {
				return err
			}
			res, err := m.refs.solve(l.sess, set, servedConfig())
			if err != nil {
				return err
			}
			ref := mixedRef{out: outcome{res.Feasible, res.Distance, res.GroupClasses}}
			if traced {
				ref.abstracted = res.Abstracted
			}
			l.refs[op.set] = ref
		case opPipe:
			key := [2]int{op.log, op.set}
			if _, ok := m.pipeRef[key]; ok {
				continue
			}
			ref, err := m.pipelineRef(ctx, m.logs[op.log], op.set)
			if err != nil {
				return err
			}
			m.pipeRef[key] = ref
		}
	}
	for _, st := range m.streams {
		if err := st.reference(); err != nil {
			return err
		}
	}
	for _, l := range m.logs {
		if l.sess != nil {
			m.refs.session(l.sess)
		}
		l.log, l.sess, l.pipe.log = nil, nil, nil
	}
	return nil
}

func (m *mixed) pipelineRef(ctx context.Context, l *mixedLog, v int) (pipeRef, error) {
	stages, err := pipeline.BuildStages(pipeSpecs(v))
	if err != nil {
		return pipeRef{}, err
	}
	set, err := constraints.ParseSet(pipeConstraints)
	if err != nil {
		return pipeRef{}, err
	}
	base := &pipeline.State{Index: eventlog.NewIndex(l.pipe.log), IndexKey: l.pipe.digest, Constraints: set}
	out, err := pipeline.Run(ctx, stages, base, l.pipe.digest, nil)
	if err != nil {
		return pipeRef{}, err
	}
	st := out.State
	res := st.Abstraction
	return pipeRef{
		out:       outcome{res.Feasible, res.Distance, res.GroupClasses},
		edges:     st.Model.Graph.NumEdges(),
		fitness:   st.Conformance.Fitness,
		precision: st.Conformance.Precision,
	}, nil
}

// reference feeds the stream's appends, in order, to a library online
// abstractor configured like the server's stream, and keeps each output
// trace's activity sequence.
func (st *mixedStream) reference() error {
	set, err := constraints.ParseSet(streamConstraints)
	if err != nil {
		return err
	}
	a := stream.New(set, stream.Config{
		WindowSize:     streamWindow,
		RefreshEvery:   streamRefresh,
		DriftThreshold: stream.DefaultDriftThreshold,
		Pipeline:       servedConfig(),
	})
	for n := 0; n < st.appends; n++ {
		var want [][]string
		sc := bufio.NewScanner(strings.NewReader(st.batches[n%len(st.batches)]))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var wt service.StreamTrace
			if err := json.Unmarshal(sc.Bytes(), &wt); err != nil {
				return err
			}
			out, err := a.Push(fromWire(wt))
			if err != nil {
				return err
			}
			want = append(want, classes(out))
		}
		st.want = append(st.want, want)
	}
	return nil
}

func (m *mixed) start(ids []string) error {
	m.dataDir = filepath.Join(m.dataRoot, fmt.Sprintf("mixed-%d-%d", os.Getpid(), time.Now().UnixNano()))
	peers := make([]string, len(ids))
	m.urls = make(map[string]string)
	for i := range ids {
		svc := service.New(service.Options{DataDir: m.dataDir, JobIDPrefix: fmt.Sprintf("s%d-", i)})
		m.svcs = append(m.svcs, svc)
		srv, err := startServer(service.Handler(svc))
		if err != nil {
			return err
		}
		m.shards = append(m.shards, srv)
		peers[i] = srv.url
		m.urls[ids[i]] = srv.url
	}
	rt, err := service.NewRouter(nil, service.ShardOptions{Peers: peers, MemberIDs: ids, Self: -1})
	if err != nil {
		return err
	}
	if m.coord, err = startServer(rt); err != nil {
		return err
	}
	m.client = newClient()
	return nil
}

func (m *mixed) close() {
	m.coord.stop()
	for _, s := range m.shards {
		s.stop()
	}
	for _, svc := range m.svcs {
		svc.Close()
	}
	if m.client != nil {
		m.client.CloseIdleConnections()
	}
	if m.dataDir != "" {
		os.RemoveAll(m.dataDir)
	}
}

func (m *mixed) abstractURL(base string, set int) string {
	return base + "/abstract?" + url.Values{
		"constraints": {mixedSet(set)},
		"mode":        {"dfg"},
		"maxChecks":   {fmt.Sprint(servedMaxChecks)},
	}.Encode()
}

// do returns the loops' operation function: it sends operation i through
// the coordinator and checks the answer against its reference.
func (m *mixed) do(tr *tracer) doFunc {
	return func(i int) (time.Time, bool) {
		op := m.ops[i]
		rec := &m.recs[i]
		switch op.kind {
		case opPipe:
			return m.doPipe(tr, i, op, rec)
		case opStream:
			return m.doStream(tr, i, op, rec)
		}
		l := m.logs[op.log]
		rec.root = tr.begin(i, 0, "service.abstract")
		rp, err := post(m.client, m.abstractURL(m.coord.url, op.set), "application/xml", l.text)
		tr.finish(rec.root)
		if err != nil {
			return time.Now(), false
		}
		var resp service.AbstractResponse
		if err := rec.decode(rp, &resp); err != nil {
			return rp.end, false
		}
		got := outcome{resp.Feasible, resp.Distance, resp.GroupClasses}
		// A pair never requested before cannot come from a cache; whether a
		// read hit is the hit ratio's business, not a failure.
		rec.ok = (op.kind == opRead || !resp.Cached) &&
			got.diff(l.refs[op.set].out) == nil && resp.Abstracted != ""
		return rp.end, rec.ok
	}
}

func (m *mixed) doPipe(tr *tracer, i int, op mixedOp, rec *mixedRec) (time.Time, bool) {
	l := m.logs[op.log]
	body, err := json.Marshal(service.PipelineHTTPRequest{Format: l.pipe.format, Log: l.pipe.text, Constraints: pipeConstraints, Stages: pipeSpecs(op.set)})
	if err != nil {
		return time.Now(), false
	}
	rec.root = tr.begin(i, 0, "service.pipeline")
	rp, err := post(m.client, m.coord.url+"/pipeline", "application/json", string(body))
	tr.finish(rec.root)
	rec.dur = rp.dur()
	if err != nil {
		return time.Now(), false
	}
	rec.shed = rp.status == http.StatusServiceUnavailable
	var resp service.PipelineResponse
	if err := decodeOK(rp, &resp); err != nil || resp.Abstraction == nil || resp.Model == nil || resp.Conformance == nil {
		return rp.end, false
	}
	rec.stages = resp.Stages
	want := m.pipeRef[[2]int{op.log, op.set}]
	a := resp.Abstraction
	rec.ok = len(resp.Stages) == 4 && outcome{a.Feasible, a.Distance, a.GroupClasses}.diff(want.out) == nil &&
		resp.Model.Edges == want.edges && resp.Conformance.Fitness == want.fitness && resp.Conformance.Precision == want.precision
	return rp.end, rec.ok
}

// doStream appends one batch. Appends to one stream are sent in sequence
// order — each waits for its predecessor — so the server sees the order the
// reference was computed in.
func (m *mixed) doStream(tr *tracer, i int, op mixedOp, rec *mixedRec) (time.Time, bool) {
	st := m.streams[op.stream]
	st.mu.Lock()
	for st.done != op.seq {
		st.cond.Wait()
	}
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.done++
		st.cond.Broadcast()
		st.mu.Unlock()
	}()
	q := url.Values{
		"stream":      {st.name},
		"constraints": {streamConstraints},
		"mode":        {"dfg"},
		"maxChecks":   {fmt.Sprint(servedMaxChecks)},
		"window":      {fmt.Sprint(streamWindow)},
		"refresh":     {fmt.Sprint(streamRefresh)},
	}
	rec.root = tr.begin(i, 0, "service.stream")
	rp, err := post(m.client, m.coord.url+"/stream?"+q.Encode(), "application/x-ndjson", st.batches[op.seq%len(st.batches)])
	tr.finish(rec.root)
	rec.dur = rp.dur()
	if err != nil {
		return time.Now(), false
	}
	rec.shed = rp.status == http.StatusServiceUnavailable
	if rp.status != http.StatusOK {
		return rp.end, false
	}
	want := st.want[op.seq]
	sc := bufio.NewScanner(bytes.NewReader(rp.body))
	sc.Buffer(nil, 1<<20)
	n := -1 // the first line is the stream's acknowledgement
	ok := true
	for sc.Scan() {
		n++
		if n == 0 {
			continue
		}
		var line service.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" || n > len(want) {
			ok = false
			break
		}
		got := make([]string, len(line.Events))
		for k, e := range line.Events {
			got[k] = e.Class
		}
		if strings.Join(got, "\x00") != strings.Join(want[n-1], "\x00") {
			ok = false
		}
	}
	rec.traces = n
	rec.ok = ok && n == len(want)
	return rp.end, rec.ok
}

func (m *mixed) run(tr *tracer) (*report, error) {
	closed, seq := mixedSizing.perRound(m.seconds)
	var before, after service.ClusterStats
	if err := getJSON(m.client, m.coord.url+"/stats", &before); err != nil {
		return nil, err
	}
	a0 := readAllocs()
	rep := &report{}
	measure(rep, m.primed, closed, seq, m.do(tr))
	a1 := readAllocs()
	if err := getJSON(m.client, m.coord.url+"/stats", &after); err != nil {
		return nil, err
	}
	measured := m.ops[m.primed:]
	recs := m.recs[m.primed:]
	var perKind [numKinds][2]int // attempted, failed
	for i, r := range recs {
		k := measured[i].kind
		perKind[k][0]++
		if !r.ok {
			perKind[k][1]++
			if len(rep.failures) < 10 {
				rep.failures = append(rep.failures, fmt.Sprintf("%s operation %d failed its check", kindNames[k], m.primed+i))
			}
		}
	}
	fmt.Fprint(os.Stderr, "mix:")
	for k := 0; k < numKinds; k++ {
		fmt.Fprintf(os.Stderr, " %s %d (%.2f, %d failed)", kindNames[k], perKind[k][0], ratio(float64(perKind[k][0]), float64(len(recs))), perKind[k][1])
	}
	fmt.Fprintln(os.Stderr)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	sh, sm := after.Sessions.Hits-before.Sessions.Hits, after.Sessions.Misses-before.Sessions.Misses
	fmt.Fprintf(os.Stderr, "measured hits: result cache %d/%d, sessions %d/%d", hits, hits+misses, sh, sh+sm)
	if after.Disk != nil && before.Disk != nil {
		fmt.Fprintf(os.Stderr, ", warm opens %d, spills %d", after.Disk.WarmOpens-before.Disk.WarmOpens, after.Disk.SpillWrites-before.Disk.SpillWrites)
	}
	fmt.Fprintf(os.Stderr, ", result evictions %d\n", after.Cache.Evictions-before.Cache.Evictions)
	// Latency by kind: where p50 and p90 of the mix fall.
	var kindLat [numKinds][]float64
	for r, p := range rep.latency {
		for j, v := range p.lat {
			k := m.ops[m.primed+r*(closed+seq)+closed+j].kind
			kindLat[k] = append(kindLat[k], v)
		}
	}
	fmt.Fprint(os.Stderr, "latency p50/p90 by kind:")
	for k := 0; k < numKinds; k++ {
		fmt.Fprintf(os.Stderr, " %s %.2f/%.2fms", kindNames[k], quantile(kindLat[k], 0.5), quantile(kindLat[k], 0.9))
	}
	fmt.Fprintln(os.Stderr)
	rep.heapMB = liveHeapMB()
	if tr == nil {
		return rep, nil
	}

	l := newLayers()
	var solver solverStats
	var stageMs [4]mean
	var stagesCached, stagesAll float64
	var pushUs []float64
	shed := 0
	for i, r := range recs {
		if r.shed {
			shed++
		}
		if !r.ok {
			continue
		}
		switch measured[i].kind {
		case opRead, opWarm, opEvict:
			solver.add(r.abstractRec)
		case opPipe:
			for k, s := range r.stages {
				stagesAll++
				if s.Cached {
					stagesCached++
				} else {
					stageMs[k].add(s.Ms)
				}
			}
		case opStream:
			pushUs = append(pushUs, ratio(float64(r.dur.Microseconds()), float64(r.traces)))
		}
	}
	solver.report(l)
	m.refs.report(l)
	serviceStats(l, before.Stats, after.Stats, len(recs), shed)
	l.set("stream.regroups", float64(after.Streams.Regroupings-before.Streams.Regroupings))
	l.set("stream.push_us", median(pushUs))
	for k, name := range []string{"pipeline.filter_ms", "pipeline.abstract_ms", "pipeline.discover_ms", "pipeline.conform_ms"} {
		l.set(name, stageMs[k].value())
	}
	l.set("pipeline.stage_hit_ratio", ratio(stagesCached, stagesAll))
	// A pure coordinator owns no keys: every request it receives is one
	// it forwards to the owning shard.
	l.set("router.forward_share", 1)
	goMetrics(l, a0, a1, len(recs))

	replayed := m.replay(tr, l)
	rep.shareOps = func(s span) bool { return replayed[s.Op] }
	rep.layer = l
	return rep, nil
}

// replayEvery thins the operations a traced run replays: every sixth
// operation of the latency loop, so the replay stays a small part of the
// traced run.
const replayEvery = 6

// replay re-runs, for a sample of the latency loop's operations (see
// replayEvery), what the server did below the service layer, on the same
// inputs, and lays the measured durations into each request's span in the
// order the server runs them: for cache hits the router hop (the same
// request sent once to its owner shard and once through the coordinator)
// and rendering; for solves the server's solver timings, the warm open of
// the spilled index where an evict operation has one, and rendering; for
// pipelines the parse and the executed stages. On cache hits it also
// reports the median share of the request's latency that rendering and the
// router hop took.
func (m *mixed) replay(tr *tracer, l layers) map[int]bool {
	done := make(map[int]bool)
	var hop, hitRender, hitHop []float64
	var writeMs, readMs, csvMs, openMs, sessMs mean
	var readBytes, readSecs float64
	var bpe mean
	for i := range m.ops {
		r := m.recs[i]
		if !m.seq[i] || i%replayEvery != 0 || !r.ok {
			continue
		}
		op := m.ops[i]
		start, _ := tr.bounds(r.root)
		var parts []part
		switch op.kind {
		case opRead, opWarm, opEvict:
			lg := m.logs[op.log]
			var d time.Duration
			if r.cached {
				var err error
				if d, err = m.hop(lg, op.set); err != nil {
					continue
				}
				hop = append(hop, ms(d))
				parts = append(parts, part{"router.hop", d})
			} else {
				if op.kind == opEvict {
					if open, sess, bytesPerEvent, err := warmOpen(filepath.Join(m.dataDir, "index", lg.digest+".gidx")); err == nil {
						openMs.add(ms(open))
						sessMs.add(ms(sess))
						bpe.add(bytesPerEvent)
						parts = append(parts, part{"eventlog.index_open", open}, part{"core.session_build", sess})
					}
				}
				parts = append(parts, part{"candidates.step1", r.server[0]}, part{"cover.step2", r.server[1]}, part{"abstraction.apply", r.server[2]})
			}
			var b strings.Builder
			t0 := time.Now()
			if err := xes.Write(&b, lg.refs[op.set].abstracted); err != nil {
				continue
			}
			w := time.Since(t0)
			writeMs.add(ms(w))
			if r.cached {
				hitRender = append(hitRender, ratio(float64(w), float64(r.dur)))
				hitHop = append(hitHop, ratio(float64(d), float64(r.dur)))
			}
			parts = append(parts, part{"xes.write", w})
		case opPipe:
			up := m.logs[op.log].pipe
			t0 := time.Now()
			if _, err := parseText(up.format, up.text); err != nil {
				continue
			}
			d := time.Since(t0)
			if up.format == "csv" {
				csvMs.add(ms(d))
				parts = append(parts, part{"csvlog.read", d})
			} else {
				readMs.add(ms(d))
				readBytes += float64(len(up.text))
				readSecs += d.Seconds()
				parts = append(parts, part{"xes.read", d})
			}
			for _, s := range r.stages {
				parts = append(parts, part{"pipeline." + s.Stage, fromMs(s.Ms)})
			}
		case opStream:
			// The stream's regroupings run inside the request; they are not
			// replayed, and the request's time stays the service's.
		}
		tr.layout(i, r.root, start, parts)
		done[i] = true
	}
	l.set("router.hop_ms", median(hop))
	l.set("hits.render_share", median(hitRender))
	l.set("hits.hop_share", median(hitHop))
	l.set("xes.write_ms", writeMs.value())
	l.set("xes.read_ms", readMs.value())
	l.set("xes.read_mb_s", ratio(readBytes/(1<<20), readSecs))
	l.set("csvlog.read_ms", csvMs.value())
	l.set("eventlog.index_open_ms", openMs.value())
	l.set("core.session_build_ms", sessMs.value())
	l.set("eventlog.bytes_per_event", bpe.value())
	return done
}

// warmOpen opens a spilled index file and builds a session on it, as a
// shard does for an evicted log, and times both steps.
func warmOpen(path string) (open, sess time.Duration, bytesPerEvent float64, err error) {
	t0 := time.Now()
	x, err := eventlog.OpenIndex(path)
	open = time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer x.Close()
	t1 := time.Now()
	if _, err := core.NewSessionFromIndex(x); err != nil {
		return 0, 0, 0, err
	}
	return open, time.Since(t1), ratio(float64(x.EstimatedBytes()), float64(x.NumEvents())), nil
}

// hop sends the same cache-hit request to its owner shard and through the
// coordinator, and returns the coordinator's extra time.
func (m *mixed) hop(l *mixedLog, set int) (time.Duration, error) {
	direct, err := post(m.client, m.abstractURL(m.urls[l.owner], set), "application/xml", l.text)
	if err != nil || direct.status != http.StatusOK {
		return 0, fmt.Errorf("direct request failed")
	}
	routed, err := post(m.client, m.abstractURL(m.coord.url, set), "application/xml", l.text)
	if err != nil || routed.status != http.StatusOK {
		return 0, fmt.Errorf("routed request failed")
	}
	return max(routed.dur()-direct.dur(), 0), nil
}

// wireTrace renders a trace as a /stream input line.
func wireTrace(tr eventlog.Trace) service.StreamTrace {
	wt := service.StreamTrace{ID: tr.ID}
	for _, ev := range tr.Events {
		we := service.StreamEvent{Class: ev.Class}
		for k, v := range ev.Attrs {
			switch {
			case k == eventlog.AttrTimestamp && v.Kind == eventlog.KindTime:
				we.Time = v.Time.Format(time.RFC3339Nano)
			case v.Kind == eventlog.KindString:
				we.Attrs = setAttr(we.Attrs, k, v.Str)
			case v.Kind == eventlog.KindFloat || v.Kind == eventlog.KindInt:
				we.Attrs = setAttr(we.Attrs, k, v.Num)
			case v.Kind == eventlog.KindBool:
				we.Attrs = setAttr(we.Attrs, k, v.Bool)
			}
		}
		wt.Events = append(wt.Events, we)
	}
	return wt
}

func setAttr(m map[string]any, k string, v any) map[string]any {
	if m == nil {
		m = make(map[string]any)
	}
	m[k] = v
	return m
}

// fromWire converts a /stream input line into a trace the way the server
// does, so the reference abstractor sees the values the server sees.
func fromWire(wt service.StreamTrace) eventlog.Trace {
	tr := eventlog.Trace{ID: wt.ID}
	for _, we := range wt.Events {
		ev := eventlog.Event{Class: we.Class}
		if ts, err := time.Parse(time.RFC3339Nano, we.Time); err == nil && we.Time != "" {
			ev.SetAttr(eventlog.AttrTimestamp, eventlog.Time(ts))
		}
		for k, v := range we.Attrs {
			switch x := v.(type) {
			case string:
				ev.SetAttr(k, eventlog.String(x))
			case float64:
				ev.SetAttr(k, eventlog.Float(x))
			case bool:
				ev.SetAttr(k, eventlog.Bool(x))
			}
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

func classes(tr eventlog.Trace) []string {
	out := make([]string, len(tr.Events))
	for i, e := range tr.Events {
		out[i] = e.Class
	}
	return out
}
