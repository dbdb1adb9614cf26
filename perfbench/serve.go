package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"gecco/internal/candidates"
	"gecco/internal/constraints"
	"gecco/internal/core"
	"gecco/internal/instances"
	"gecco/internal/service"
)

// callers is the number of concurrent clients (and connections) the
// serving workloads use: one per CPU, so the closed loop saturates the
// server without building a queue of waiting clients.
var callers = runtime.NumCPU()

// server is an in-process HTTP server on a loopback port.
type server struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.srv.Close()
	<-s.done
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     callers,
			MaxIdleConnsPerHost: callers,
		},
	}
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	start  time.Time
	end    time.Time // when the last byte of the body arrived
}

func (r reply) dur() time.Duration { return r.end.Sub(r.start) }

func post(c *http.Client, url, contentType string, body string) (reply, error) {
	rp := reply{start: time.Now()}
	resp, err := c.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		return rp, err
	}
	defer resp.Body.Close()
	rp.body, err = io.ReadAll(resp.Body)
	rp.end = time.Now()
	rp.status = resp.StatusCode
	return rp, err
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// decodeOK checks the status and decodes a 200 reply.
func decodeOK(rp reply, v any) error {
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	return json.Unmarshal(rp.body, v)
}

// abstractRec is what the benchmark keeps of one /abstract exchange.
type abstractRec struct {
	root   int // the request's root span
	ok     bool
	shed   bool
	cached bool
	dur    time.Duration
	// server holds the candidates, cover and abstraction timings the
	// server reports for a solve it ran for this request; zero on a cache
	// hit, whose reported timings are those of the original solve.
	server [3]time.Duration
	cands  int
	checks int
}

// decode records rp and, on a 200, decodes it into resp.
func (r *abstractRec) decode(rp reply, resp *service.AbstractResponse) error {
	r.dur = rp.dur()
	r.shed = rp.status == http.StatusServiceUnavailable
	if err := decodeOK(rp, resp); err != nil {
		return err
	}
	r.cached = resp.Cached
	if !resp.Cached {
		r.server = [3]time.Duration{fromMs(resp.TimingsMs.Candidates), fromMs(resp.TimingsMs.Solve), fromMs(resp.TimingsMs.Abstract)}
		r.cands, r.checks = resp.NumCandidates, resp.ConstraintChecks
	}
	return nil
}

func fromMs(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// solverStats accumulates the solver layer metrics and the service's
// overhead over checked /abstract exchanges.
type solverStats struct {
	overhead                         []float64
	cand, cover, abst, count, checks mean
}

// add counts one exchange: its client latency less the solver time the
// server spent on it, and, when it solved, its solver timings and counts.
func (s *solverStats) add(r abstractRec) {
	s.overhead = append(s.overhead, ms(r.dur-r.server[0]-r.server[1]-r.server[2]))
	if r.cached {
		return
	}
	s.cand.add(ms(r.server[0]))
	s.cover.add(ms(r.server[1]))
	s.abst.add(ms(r.server[2]))
	s.count.add(float64(r.cands))
	s.checks.add(float64(r.checks))
}

func (s *solverStats) report(l layers) {
	l.set("candidates.ms", s.cand.value())
	l.set("cover.ms", s.cover.value())
	l.set("abstraction.ms", s.abst.value())
	l.set("candidates.count", s.count.value())
	l.set("constraints.checks", s.checks.value())
	l.set("service.overhead_ms", median(s.overhead))
}

// servedMaxChecks bounds Step 1 of every solve the serving workloads
// request, so the solver does little and answers are deterministic.
const servedMaxChecks = 200

// servedConfig is the configuration the serving workloads request (DFG
// mode, servedMaxChecks) as the service builds it, for reference solves.
func servedConfig() core.Config {
	return core.Config{Mode: core.DFGUnbounded, Budget: candidates.Budget{MaxChecks: servedMaxChecks}}
}

// rounds is how many throughput and latency rounds a serving run
// alternates. Many short rounds spread both loops over the whole run, so a
// spell in which a shared machine runs slow weighs on throughput and
// latency alike; the report pools the rounds.
const rounds = 8

// sizing sets the size of each measured round: the throughput loop (one
// caller per CPU) sends closedPerSecond operations per second of the run
// and the latency loop (one caller) seqPerSecond per second for seqShare
// of the run, both split over the rounds. The counts are fixed from
// --seconds, not from the clock, so a run performs the same work on every
// commit; on a 2-CPU box each loop takes about its share of the run.
//
// Latency comes from one caller that sends each request when the previous
// answer has arrived: no request waits behind another, and the machine is
// never idle between requests. At an open-loop rate it idles most of the
// time, and on a shared virtual machine waking it up costs more the busier
// the host is: open-loop p50 moved about twice as much as throughput from
// run to run, and spread past its bound.
type sizing struct {
	closedPerSecond float64
	seqPerSecond    float64
	seqShare        float64
}

// minLatency is the fewest latency samples a run takes, so that ten or
// more lie beyond the pooled 90th percentile.
const minLatency = 100

func (z sizing) perRound(seconds int) (closed, seq int) {
	per := float64(seconds) / rounds
	closed = max(int(z.closedPerSecond*(1-z.seqShare)*per), 10)
	seq = max(int(z.seqPerSecond*z.seqShare*per), (minLatency+rounds-1)/rounds)
	return closed, seq
}

// measure runs the rounds: round r sends operations from
// first+r*(closed+seq), the throughput loop first, then the latency loop.
func measure(rep *report, first, closed, seq int, do doFunc) {
	at := first
	for range rounds {
		cp := closedLoop("closed", at, closed, callers, do)
		at += closed
		sp := closedLoop("seq", at, seq, 1, do)
		at += seq
		rep.add(cp)
		rep.add(sp)
		rep.throughput = append(rep.throughput, cp)
		rep.latency = append(rep.latency, sp)
	}
}

// refCounters sums the solver counters of reference solves: the layer
// metrics the service's responses do not carry come from the same solves
// run through the library.
type refCounters struct {
	solves                          int
	screened, checks, pruned, evals float64
	nodes, memo                     float64
	sessions                        int
}

// solve runs one reference solve and counts it.
func (c *refCounters) solve(sess *core.Session, set *constraints.Set, cfg core.Config) (*core.Result, error) {
	calc := sess.Calc(instances.SplitOnRepeat)
	evals := calc.Evals()
	res, err := sess.Solve(context.Background(), set, cfg)
	if err != nil {
		return nil, err
	}
	c.solves++
	c.screened += float64(res.ScreenedChecks)
	c.checks += float64(res.ConstraintChecks)
	c.pruned += float64(res.LBPruned)
	c.nodes += float64(res.SolverNodes)
	c.evals += float64(calc.Evals() - evals)
	return res, nil
}

// session counts a reference session's distance memo once its solves are
// done: what a server session that served the same requests would hold.
func (c *refCounters) session(sess *core.Session) {
	c.memo += float64(sess.MemoSize())
	c.sessions++
}

func (c *refCounters) report(l layers) {
	l.set("constraints.screen_ratio", ratio(c.screened, c.checks))
	l.set("distance.evals", ratio(c.evals, float64(c.solves)))
	l.set("distance.lb_prune_ratio", ratio(c.pruned, c.pruned+c.evals))
	l.set("distance.memo_entries", ratio(c.memo, float64(c.sessions)))
	l.set("cover.nodes", ratio(c.nodes, float64(c.solves)))
}

// serviceStats fills the service layer's counters from two /stats
// snapshots taken around the measured phases.
func serviceStats(l layers, before, after service.Stats, ops, shed int) {
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	l.set("service.result_hit_ratio", ratio(hits, hits+misses))
	sh := float64(after.Sessions.Hits - before.Sessions.Hits)
	sm := float64(after.Sessions.Misses - before.Sessions.Misses)
	l.set("service.session_hit_ratio", ratio(sh, sh+sm))
	l.set("service.coalesced_share", ratio(float64(after.Jobs.Coalesced-before.Jobs.Coalesced), float64(ops)))
	l.set("service.shed_share", ratio(float64(shed), float64(ops)))
	if before.Disk != nil && after.Disk != nil {
		l.set("service.spills", float64(after.Disk.SpillWrites-before.Disk.SpillWrites))
		l.set("service.warm_opens", float64(after.Disk.WarmOpens-before.Disk.WarmOpens))
	}
}
