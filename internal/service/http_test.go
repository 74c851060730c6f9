package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/solve"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		shutdown(t, s)
		ts.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestHTTPSolveCounterEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := &SolveRequest{Solver: "aligned", App: "counter"}

	resp, raw := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != string(JobDone) || st.Result == nil {
		t.Fatalf("unexpected status: %s", raw)
	}

	// Acceptance: the served cost is identical to the direct solve.Run
	// path.
	res := mustResolve(t, req)
	direct, err := solve.Run(context.Background(), "aligned", res.inst, res.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Cost != int64(direct.Cost) {
		t.Fatalf("served cost %d != direct cost %d", st.Result.Cost, direct.Cost)
	}
	if st.Result.Schedule == nil {
		t.Fatal("mtswitch result is missing its schedule document")
	}

	// Re-submission is a cache hit, observable in the body and in
	// /metrics.
	resp2, raw2 := postJSON(t, ts.URL+"/v1/solve", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d", resp2.StatusCode)
	}
	var st2 JobStatus
	if err := json.Unmarshal(raw2, &st2); err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatalf("resubmit was not a cache hit: %s", raw2)
	}
	if st2.Hash != st.Hash {
		t.Fatal("identical requests got different content hashes")
	}
	if st2.Result.Cost != st.Result.Cost {
		t.Fatal("cache served a different cost")
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"hyperd_cache_hits_total 1",
		"hyperd_jobs_submitted_total 1",
		"hyperd_jobs_completed_total 1",
		`hyperd_solve_seconds_count{solver="aligned"} 1`,
		`hyperd_solver_states_expanded_total{solver="aligned"}`,
		`hyperd_solver_dedup_hits_total{solver="aligned"}`,
		`hyperd_solver_peak_frontier{solver="aligned"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestHTTPRetiredWorkersShareCacheLine pins that the retired "workers"
// option no longer splits cache lines: clients that still send it get
// one request, and the repeat is a cache hit.
func TestHTTPRetiredWorkersShareCacheLine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	solveWith := func(workers int) JobStatus {
		t.Helper()
		body := fmt.Sprintf(`{"solver":"ga","app":"counter","options":{"workers":%d,"generations":5}}`, workers)
		resp, raw := postJSON(t, ts.URL+"/v1/solve", json.RawMessage(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers %d: status %d: %s", workers, resp.StatusCode, raw)
		}
		var st JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	first, second := solveWith(1), solveWith(2)
	if second.Hash != first.Hash || !second.CacheHit {
		t.Fatalf("workers 2 repeat: hash %s (first %s), cache_hit %t; want the same line, hit",
			second.Hash, first.Hash, second.CacheHit)
	}
}

func TestHTTPAsyncLifecycle(t *testing.T) {
	gate := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		select {
		case <-gate:
			return &solve.Solution{Cost: 7}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, raw := postJSON(t, ts.URL+"/v1/jobs", tinyRequest("svc-test"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	// Poll: still queued or running.
	resp, raw = getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("poll status %d", resp.StatusCode)
	}
	var polled JobStatus
	if err := json.Unmarshal(raw, &polled); err != nil {
		t.Fatal(err)
	}
	if JobState(polled.State).Terminal() {
		t.Fatalf("job terminal before the gate opened: %s", raw)
	}

	// A bounded wait returns the still-running status.
	_, raw = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/wait?timeout_ms=50")
	if err := json.Unmarshal(raw, &polled); err != nil {
		t.Fatal(err)
	}
	if JobState(polled.State).Terminal() {
		t.Fatal("bounded wait should have timed out with the job live")
	}

	close(gate)
	_, raw = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/wait?timeout_ms=10000")
	if err := json.Unmarshal(raw, &polled); err != nil {
		t.Fatal(err)
	}
	if polled.State != string(JobDone) || polled.Result == nil || polled.Result.Cost != 7 {
		t.Fatalf("wait did not deliver the result: %s", raw)
	}
}

func TestHTTPCancel(t *testing.T) {
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t, Config{Workers: 1})

	_, raw := postJSON(t, ts.URL+"/v1/jobs", tinyRequest("svc-test"))
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	httpReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	_, raw = getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/wait?timeout_ms=10000")
	var final JobStatus
	if err := json.Unmarshal(raw, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != string(JobCanceled) {
		t.Fatalf("state after cancel = %s, want canceled", final.State)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Unknown solver: 400, and the typed registry error lists what
	// would have worked.
	resp, raw := postJSON(t, ts.URL+"/v1/solve", &SolveRequest{Solver: "nope", App: "counter"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown solver status %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "registered:") || !strings.Contains(string(raw), "aligned") {
		t.Fatalf("unknown-solver error does not list registered solvers: %s", raw)
	}

	cases := []*SolveRequest{
		{App: "counter"},                                                           // missing solver
		{Solver: "aligned"},                                                        // no instance source
		{Solver: "aligned", App: "nope"},                                           // unknown app
		{Solver: "aligned", App: "counter", Gran: "nope"},                          // bad granularity
		{Solver: "aligned", App: "counter", Kind: "nope"},                          // bad kind
		{Solver: "aligned", App: "counter", Upload: "nope"},                        // bad upload
		{Solver: "aligned", App: "counter", TimeoutMS: -1},                         // bad timeout
		{Solver: "aligned", App: "counter", Options: WireOptions{Pop: -1}},         // invalid options
		{Solver: "aligned", App: "counter", Options: WireOptions{Crossover: "xx"}}, // bad crossover
		{Solver: "aligned", App: "counter", Kind: "switch", Upload: "sequential"},  // upload on switch
		{Solver: "aligned", App: "counter", W: 5},                                  // w on mtswitch
		{Solver: "aligned", Instance: &WireInstance{}},                             // empty instance
		{Solver: "aligned", Instance: counterWire(t), Gran: "bit"},                 // gran on inline
	}
	for i, req := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}

	// Malformed JSON.
	resp2, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON status %d", resp2.StatusCode)
	}

	// Unknown job id.
	resp3, _ := getBody(t, ts.URL+"/v1/jobs/job-999999")
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status %d", resp3.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, raw := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "ok") {
		t.Fatalf("healthz: %d %s", resp.StatusCode, raw)
	}
}

func TestHTTPShutdownRejectsSubmits(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	shutdown(t, s)

	resp, raw := postJSON(t, ts.URL+"/v1/solve", &SolveRequest{Solver: "aligned", App: "counter"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: status %d body %s", resp.StatusCode, raw)
	}
}

func TestHTTPSwitchKind(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := &SolveRequest{Solver: "exact", App: "counter", Kind: "switch"}
	resp, raw := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Kind != "switch" || len(st.Result.SegStarts) == 0 {
		t.Fatalf("switch solve missing segmentation: %s", raw)
	}
	res := mustResolve(t, req)
	direct, err := solve.Run(context.Background(), "exact", res.inst, res.opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Cost != int64(direct.Cost) {
		t.Fatalf("served switch cost %d != direct %d", st.Result.Cost, direct.Cost)
	}
	if fmt.Sprint(st.Result.SegStarts) != fmt.Sprint(direct.Seg.Starts) {
		t.Fatalf("served segmentation %v != direct %v", st.Result.SegStarts, direct.Seg.Starts)
	}
}

func TestHTTPBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A body one byte over the 16 MiB limit: 413 with a descriptive
	// error, not a hung or crashed server.
	body := append([]byte(`{"solver":"aligned","app":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	body = append(body, []byte(`"}`)...)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	assertErrorBody(t, raw, false)
}

// assertErrorBody pins the unified error shape every non-2xx response
// carries: an "error" string, plus retry_after_ms >= 1 exactly when a
// Retry-After header class (429/503) produced the response.
func assertErrorBody(t *testing.T, raw []byte, wantRetry bool) {
	t.Helper()
	var eb struct {
		Error        string `json:"error"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, raw)
	}
	if eb.Error == "" {
		t.Fatalf("error body has no error field: %s", raw)
	}
	if wantRetry && eb.RetryAfterMS < 1 {
		t.Fatalf("retryable error body without retry_after_ms: %s", raw)
	}
	if !wantRetry && eb.RetryAfterMS != 0 {
		t.Fatalf("non-retryable error body carries retry_after_ms: %s", raw)
	}
}

func TestHTTPInstanceDimensionsTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []*WireInstance{
		func() *WireInstance { // too many tasks
			wi := &WireInstance{}
			for j := 0; j <= maxWireTasks; j++ {
				wi.Tasks = append(wi.Tasks, WireTask{Name: fmt.Sprintf("t%d", j), Local: 1, V: 1})
			}
			return wi
		}(),
		{ // oversized local universe
			Tasks: []WireTask{{Name: "A", Local: maxWireLocal + 1, V: 1}},
		},
	}
	for i, wi := range cases {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", &SolveRequest{Solver: "aligned", Instance: wi})
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("case %d: status = %d, want 413 (%s)", i, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "exceeds limit") {
			t.Fatalf("case %d: undescriptive 413 body: %s", i, raw)
		}
	}
	// Step count overflows too; synthesize cheaply with empty rows that
	// fail the cap before row-shape validation.
	steps := make([][]string, maxWireSteps+1)
	for i := range steps {
		steps[i] = []string{"1"}
	}
	wi := &WireInstance{Tasks: []WireTask{{Name: "A", Local: 1, V: 1}}, Reqs: steps}
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", &SolveRequest{Solver: "aligned", Instance: wi})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("step overflow: status = %d, want 413 (%.120s)", resp.StatusCode, raw)
	}
}

func TestHTTPQueueFullRetryAfter(t *testing.T) {
	gate := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	defer close(gate)

	got429 := false
	for seed := int64(1); seed <= 4 && !got429; seed++ {
		req := tinyRequest("svc-test")
		req.Options.Seed = seed
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", req)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			assertErrorBody(t, raw, true)
		}
	}
	if !got429 {
		t.Fatal("queue never rejected with 429")
	}
}

func TestHTTPBreakerOpen503AndHealthzLive(t *testing.T) {
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		panic("wired to explode")
	})
	s, ts := newTestServer(t, Config{Workers: 1, BreakerThreshold: 1, BreakerCooldown: time.Hour})

	// First job fails (panic + retried panic) and trips the breaker.
	req := tinyRequest("svc-test")
	resp, raw := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked solve status = %d (%s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "panicked") {
		t.Fatalf("failure body does not carry the typed panic error: %s", raw)
	}

	req = tinyRequest("svc-test")
	req.Options.Seed = 2
	resp, raw = postJSON(t, ts.URL+"/v1/jobs", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open-breaker submit status = %d (%s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	assertErrorBody(t, raw, true)

	// The server keeps serving under solver faults: liveness and
	// metrics stay up, and the panic counter is exported.
	if resp, _ := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d under faults", resp.StatusCode)
	}
	_, metricsRaw := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`hyperd_solver_panics_total{solver="svc-test"} 2`,
		`hyperd_breaker_state{solver="svc-test"} 2`,
		"hyperd_retries_total 1",
		"hyperd_breaker_rejected_total 1",
	} {
		if !strings.Contains(string(metricsRaw), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metricsRaw)
		}
	}
	_ = s
}
