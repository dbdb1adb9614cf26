package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"gecco/internal/eventlog"
	"gecco/internal/lru"
	"gecco/internal/pipeline"
	"gecco/internal/procgen"
)

func postPipeline(t *testing.T, srv *httptest.Server, contentType, body string, params url.Values) (*http.Response, PipelineResponse) {
	t.Helper()
	u := srv.URL + "/pipeline"
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	resp, err := http.Post(u, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out PipelineResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// goldenJSON re-marshals a pipeline response with the wall-clock ms fields
// zeroed, leaving only deterministic content.
func goldenJSON(t *testing.T, out PipelineResponse) []byte {
	t.Helper()
	for i := range out.Stages {
		out.Stages[i].Ms = 0
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Golden end to end: the default suggest→abstract→discover→conform pipeline
// on the running example under the paper's role-homogeneity constraint
// produces the same JSON (modulo timings) on two independent service
// instances, and each section is populated.
func TestHTTPPipelineGoldenEndToEnd(t *testing.T) {
	logXES := runningExampleXES(t)
	params := url.Values{
		"constraints":       {"distinct(role) <= 1"},
		"includeAbstracted": {"true"},
	}

	run := func() PipelineResponse {
		srv, _ := newTestServer(t, Options{})
		resp, out := postPipeline(t, srv, "application/xml", logXES, params)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %+v", resp.StatusCode, out)
		}
		return out
	}
	out := run()

	if len(out.Stages) != 4 {
		t.Fatalf("ran %d stages, want the 4 defaults: %+v", len(out.Stages), out.Stages)
	}
	wantOrder := []string{"suggest", "abstract", "discover", "conform"}
	for i, st := range out.Stages {
		if st.Stage != wantOrder[i] {
			t.Fatalf("stage %d = %s, want %s", i, st.Stage, wantOrder[i])
		}
		if st.Key == "" {
			t.Fatalf("stage %s has no chain key", st.Stage)
		}
		if st.Cached {
			t.Fatalf("stage %s cached on a fresh service", st.Stage)
		}
	}
	if len(out.Constraints) != 1 {
		t.Fatalf("constraints not echoed: %v", out.Constraints)
	}
	if out.Abstraction == nil || !out.Abstraction.Feasible {
		t.Fatalf("abstraction missing or infeasible: %+v", out.Abstraction)
	}
	if got := len(out.Abstraction.GroupClasses); got != 4 {
		t.Fatalf("got %d groups, want 4 (Figure 7): %v", got, out.Abstraction.GroupClasses)
	}
	if out.Abstracted == "" {
		t.Fatal("includeAbstracted=true returned no abstracted log")
	}
	if out.Model == nil || len(out.Model.Activities) != 4 || out.Model.Edges == 0 {
		t.Fatalf("model missing or empty: %+v", out.Model)
	}
	if out.Conformance == nil {
		t.Fatal("conform stage produced no result")
	}
	if f := out.Conformance.Fitness; f <= 0 || f > 1 {
		t.Fatalf("fitness %f out of (0,1]", f)
	}
	if p := out.Conformance.Precision; p <= 0 || p > 1 {
		t.Fatalf("precision %f out of (0,1]", p)
	}

	// A second, independent instance must produce byte-identical JSON once
	// the per-stage wall-clock fields are zeroed.
	if a, b := goldenJSON(t, out), goldenJSON(t, run()); !bytes.Equal(a, b) {
		t.Fatalf("pipeline output not deterministic across instances:\n%s\n%s", a, b)
	}
}

// Re-submitting a pipeline with only the tail (conform) stage changed must
// adopt every upstream state from the per-stage cache — counter-asserted
// through /stats — so the expensive abstract stage never re-runs.
func TestHTTPPipelineTailChangeHitsCache(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	logXES := runningExampleXES(t)

	stages := func(details bool) string {
		specs := []map[string]any{
			{"stage": "suggest"},
			{"stage": "abstract"},
			{"stage": "discover"},
		}
		conform := map[string]any{"stage": "conform"}
		if details {
			conform["details"] = true
		}
		b, err := json.Marshal(append(specs, conform))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	resp, out := postPipeline(t, srv, "application/xml", logXES,
		url.Values{"stages": {stages(false)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	for _, st := range out.Stages {
		if st.Cached {
			t.Fatalf("stage %s cached on the first run", st.Stage)
		}
	}

	resp, out2 := postPipeline(t, srv, "application/xml", logXES,
		url.Values{"stages": {stages(true)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out2)
	}
	for i, st := range out2.Stages[:3] {
		if !st.Cached {
			t.Fatalf("upstream stage %s re-executed after a tail-only change", st.Stage)
		}
		if st.Key != out.Stages[i].Key {
			t.Fatalf("stage %s chain key changed by a tail edit", st.Stage)
		}
	}
	if out2.Stages[3].Cached {
		t.Fatal("edited conform stage served from cache")
	}
	if out2.Stages[3].Key == out.Stages[3].Key {
		t.Fatal("conform chain key ignored its config change")
	}
	if len(out2.Conformance.Misfits) == 0 && out2.Conformance.Fitness < 1 {
		t.Fatal("details=true with imperfect fitness reported no misfits")
	}

	var st Stats
	getJSON(t, srv.URL+"/stats", &st)
	if st.Pipeline.Runs != 2 {
		t.Fatalf("pipeline runs = %d, want 2", st.Pipeline.Runs)
	}
	for _, name := range []string{"suggest", "abstract", "discover"} {
		ctr := st.Pipeline.Stages[name]
		if ctr.Hits != 1 || ctr.Misses != 1 {
			t.Fatalf("%s counters hits=%d misses=%d, want 1/1 (second run adopted from cache)",
				name, ctr.Hits, ctr.Misses)
		}
	}
	if ctr := st.Pipeline.Stages["conform"]; ctr.Hits != 0 || ctr.Misses != 2 {
		t.Fatalf("conform counters hits=%d misses=%d, want 0/2 (both configs executed)",
			ctr.Hits, ctr.Misses)
	}
	if st.Pipeline.Entries == 0 || st.Pipeline.Capacity == 0 {
		t.Fatalf("state LRU occupancy not reported: %+v", st.Pipeline)
	}
}

// The JSON envelope path: a CSV log with explicit constraints skips the
// suggest stage's derivation and solves under the supplied set.
func TestHTTPPipelineJSONEnvelope(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	csv := "case,activity,role\n" +
		"1,a,clerk\n1,b,clerk\n1,c,boss\n" +
		"2,a,clerk\n2,c,boss\n"
	env := PipelineHTTPRequest{
		Format:      "csv",
		Log:         csv,
		Constraints: "distinct(role) <= 1",
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postPipeline(t, srv, "application/json", string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, out)
	}
	if len(out.Constraints) != 1 || !strings.Contains(out.Constraints[0], "distinct(role)") {
		t.Fatalf("user constraints not echoed: %v", out.Constraints)
	}
	if len(out.Suggestions) != 0 {
		t.Fatal("suggest stage derived constraints despite a user-supplied set")
	}
	if out.Abstraction == nil || !out.Abstraction.Feasible {
		t.Fatalf("role homogeneity infeasible: %+v", out.Abstraction)
	}
	if out.Model == nil || out.Conformance == nil {
		t.Fatal("downstream stages missing from envelope run")
	}
}

// Invalid pipelines are rejected as 400s before burning a concurrency slot.
func TestHTTPPipelineInvalidRequests(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	logXES := runningExampleXES(t)

	for name, tc := range map[string]struct {
		body   string
		params url.Values
	}{
		"bad stage list":      {logXES, url.Values{"stages": {`[{"stage":"bogus"}]`}}},
		"unknown field":       {logXES, url.Values{"stages": {`[{"stage":"abstract","nope":1}]`}}},
		"conform needs model": {logXES, url.Values{"stages": {`[{"stage":"conform"}]`}}},
		"unparsable log":      {"not xml <", nil},
		"empty body":          {"", nil},
	} {
		resp, err := http.Post(srv.URL+"/pipeline?"+tc.params.Encode(), "application/xml",
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// wireStats snapshots the wire-digest memo's counters.
func wireStats(svc *Service) lru.Stats {
	svc.wire.mu.Lock()
	defer svc.wire.mu.Unlock()
	return svc.wire.lru.Stats()
}

// postPipelineError posts a raw pipeline body and returns the status and
// the error message of the response.
func postPipelineError(t *testing.T, srv *httptest.Server, body string, params url.Values) (int, string) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/pipeline?"+params.Encode(), "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out.Error
}

// A byte-identical /pipeline re-upload resolves its digest through the wire
// memo and, with every stage cached, never loads the log: no session is
// looked up, and the JSON matches the first response once timings are
// zeroed (cached flags aside, which the second run must set throughout).
func TestHTTPPipelineReuploadHitsWireMemo(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}}

	resp, out1 := postPipeline(t, srv, "application/xml", logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %+v", resp.StatusCode, out1)
	}
	wire1, sess1 := wireStats(svc), svc.Stats().Sessions
	if wire1.Entries != 1 {
		t.Fatalf("first /pipeline upload left %d wire memo entries, want 1", wire1.Entries)
	}

	resp, out2 := postPipeline(t, srv, "application/xml", logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %+v", resp.StatusCode, out2)
	}
	if wire2 := wireStats(svc); wire2.Hits != wire1.Hits+1 {
		t.Fatalf("re-upload: wire memo hits %d -> %d, want one more", wire1.Hits, wire2.Hits)
	}
	if sess2 := svc.Stats().Sessions; sess2.Hits+sess2.Misses != sess1.Hits+sess1.Misses {
		t.Fatalf("fully cached re-run touched the session cache: %+v -> %+v", sess1.Stats, sess2.Stats)
	}
	for i := range out2.Stages {
		if !out2.Stages[i].Cached {
			t.Fatalf("stage %s re-executed on a byte-identical re-upload", out2.Stages[i].Stage)
		}
		out2.Stages[i].Cached = false
	}
	if a, b := goldenJSON(t, out1), goldenJSON(t, out2); !bytes.Equal(a, b) {
		t.Fatalf("memo-hit response differs:\n%s\n%s", a, b)
	}
}

// An empty (well-formed) /pipeline upload is a 400 on every attempt: the
// memo never learns it, so a retry cannot slip through the lazy path.
func TestHTTPPipelineEmptyLogStillRejected(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	empty := "<log xes.version=\"1.0\"></log>"
	params := url.Values{"constraints": {"distinct(role) <= 1"}}
	for i := 0; i < 2; i++ {
		status, msg := postPipelineError(t, srv, empty, params)
		if status != http.StatusBadRequest || !strings.Contains(msg, "empty log") {
			t.Fatalf("attempt %d: status %d (%s), want 400 empty log", i+1, status, msg)
		}
	}
}

// A memo hit whose stage states were evicted loads the log lazily (sessions
// off, so the loader must parse) and answers exactly as the first run did.
func TestHTTPPipelineMemoHitAfterStageEviction(t *testing.T) {
	srv, svc := newTestServer(t, Options{PipelineCacheCapacity: 1, NoSessions: true})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}, "includeAbstracted": {"true"}}

	resp, out1 := postPipeline(t, srv, "application/xml", logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %+v", resp.StatusCode, out1)
	}
	wire1 := wireStats(svc)
	resp, out2 := postPipeline(t, srv, "application/xml", logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %+v", resp.StatusCode, out2)
	}
	if wireStats(svc).Hits != wire1.Hits+1 {
		t.Fatal("second upload missed the wire memo")
	}
	if a, b := goldenJSON(t, out1), goldenJSON(t, out2); !bytes.Equal(a, b) {
		t.Fatalf("lazy reload after eviction differs:\n%s\n%s", a, b)
	}
	for _, st := range out2.Stages {
		if st.Cached {
			t.Fatalf("stage %s served from a one-entry cache that every run churns", st.Stage)
		}
	}
}

// The memo is shared by both endpoints: an /abstract upload warms it for a
// later /pipeline of the same bytes, whose answer matches a cold service's.
func TestHTTPAbstractWarmsMemoForPipeline(t *testing.T) {
	srv, svc := newTestServer(t, Options{})
	logXES := runningExampleXES(t)
	params := url.Values{"constraints": {"distinct(role) <= 1"}}

	if resp, _ := postAbstract(t, srv, logXES, params); resp.StatusCode != http.StatusOK {
		t.Fatalf("abstract: status %d", resp.StatusCode)
	}
	wire1 := wireStats(svc)
	resp, warm := postPipeline(t, srv, "application/xml", logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline: status %d: %+v", resp.StatusCode, warm)
	}
	if wireStats(svc).Hits != wire1.Hits+1 {
		t.Fatal("/pipeline missed the memo entry /abstract learned")
	}
	coldSrv, _ := newTestServer(t, Options{})
	resp, cold := postPipeline(t, coldSrv, "application/xml", logXES, params)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold pipeline: status %d: %+v", resp.StatusCode, cold)
	}
	if a, b := goldenJSON(t, cold), goldenJSON(t, warm); !bytes.Equal(a, b) {
		t.Fatalf("memo-warmed pipeline differs from a cold one:\n%s\n%s", a, b)
	}
}

// Cheap checks come first: a bad stage list with a malformed body is
// rejected for the stage list, not the parse; and on a memo hit an
// unsatisfiable stage list is the engine's 400, naming the stage.
func TestHTTPPipelineStageErrorsBeforeParse(t *testing.T) {
	srv, _ := newTestServer(t, Options{})
	status, msg := postPipelineError(t, srv, "<log><trace>not xml",
		url.Values{"stages": {`[{"stage":"bogus"}]`}})
	if status != http.StatusBadRequest || !strings.Contains(msg, `"bogus"`) || strings.Contains(msg, "parsing") {
		t.Fatalf("bad stage list + malformed body: status %d (%s), want 400 naming the stage", status, msg)
	}

	logXES := runningExampleXES(t)
	if resp, out := postPipeline(t, srv, "application/xml", logXES, url.Values{"stages": {`[{"stage":"discover"}]`}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("discover: status %d: %+v", resp.StatusCode, out)
	}
	status, msg = postPipelineError(t, srv, logXES, url.Values{"stages": {`[{"stage":"conform"}]`}})
	if status != http.StatusBadRequest || !strings.Contains(msg, "(conform) needs") {
		t.Fatalf("conform without a model: status %d (%s), want 400 naming the stage", status, msg)
	}
}

// A panic while a pipeline runs fails that run with an error (a 500 over
// HTTP), releases its slot, and leaves the service serving.
func TestRunPipelinePanicFailsOnlyTheRun(t *testing.T) {
	svc := New(Options{MaxConcurrent: 1})
	defer svc.Close()
	stages, err := pipeline.BuildStages(nil)
	if err != nil {
		t.Fatal(err)
	}
	set := mustSet(t, "distinct(role) <= 1")
	bad := PipelineRequest{
		upload:      upload{digest: "boom", loadLog: func() (*eventlog.Log, error) { panic("loader exploded") }},
		Constraints: set,
		Stages:      stages,
	}
	_, err = svc.RunPipeline(context.Background(), bad)
	if err == nil || errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), "panicked: loader exploded") {
		t.Fatalf("panicking run: %v, want a server error carrying the panic", err)
	}
	good := PipelineRequest{upload: upload{Log: procgen.RunningExampleTable1()}, Constraints: set, Stages: stages}
	if _, err := svc.RunPipeline(context.Background(), good); err != nil {
		t.Fatalf("run after a panic: %v", err)
	}
}
