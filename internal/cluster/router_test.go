package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/service"
)

// newNode starts one real hyperd node over httptest.
func newNode(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// newCluster starts n nodes and a router in front of them.
func newCluster(t *testing.T, n int) ([]*service.Server, []*httptest.Server, *Router, *httptest.Server) {
	t.Helper()
	var (
		servers []*service.Server
		nodes   []*httptest.Server
		peers   []string
	)
	for i := 0; i < n; i++ {
		s, ts := newNode(t, service.Config{Workers: 1, NodeID: fmt.Sprintf("node-%d", i)})
		servers = append(servers, s)
		nodes = append(nodes, ts)
		peers = append(peers, ts.URL)
	}
	rt, err := NewRouter(RouterConfig{Peers: peers, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		rt.Close()
		front.Close()
	})
	return servers, nodes, rt, front
}

// solveRequest builds the i-th distinct two-task instance (varying
// requirement bits so different i hash to different ring positions).
func solveRequest(i int) *service.SolveRequest {
	reqs := make([][]string, 4)
	for r := range reqs {
		reqs[r] = []string{
			fmt.Sprintf("%03b", (i*7+r*3)%8),
			fmt.Sprintf("%02b", (i*5+r)%4),
		}
	}
	return &service.SolveRequest{
		Solver: "exact",
		Instance: &service.WireInstance{
			Tasks: []service.WireTask{{Name: "alpha", Local: 3, V: 2}, {Name: "beta", Local: 2, V: 1}},
			Reqs:  reqs,
		},
	}
}

func reverseString(s string) string {
	b := []byte(s)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}

// twinOf builds a structural twin of a two-task request: tasks swapped
// and renamed, every task's switch columns reversed.  Canonically
// identical, literally different.
func twinOf(req *service.SolveRequest) *service.SolveRequest {
	t0, t1 := req.Instance.Tasks[0], req.Instance.Tasks[1]
	twin := &service.SolveRequest{
		Solver: req.Solver,
		Instance: &service.WireInstance{
			Tasks: []service.WireTask{
				{Name: "south", Local: t1.Local, V: t1.V},
				{Name: "north", Local: t0.Local, V: t0.V},
			},
		},
	}
	for _, row := range req.Instance.Reqs {
		twin.Instance.Reqs = append(twin.Instance.Reqs, []string{
			reverseString(row[1]), reverseString(row[0]),
		})
	}
	return twin
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

// TestRouterRoutesTwinsToOneNode is the routing acceptance: a request
// and its structural twin, submitted through the router, land on the
// same node — so the twin is served from that node's canonical store
// without any peer fill configured.
func TestRouterRoutesTwinsToOneNode(t *testing.T) {
	_, _, _, front := newCluster(t, 3)

	req := solveRequest(1)
	resp, raw := postJSON(t, front.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("original: status %d: %s", resp.StatusCode, raw)
	}
	var first service.JobStatus
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}

	resp, raw = postJSON(t, front.URL+"/v1/solve", twinOf(req))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("twin: status %d: %s", resp.StatusCode, raw)
	}
	var second service.JobStatus
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("twin was not a cache hit — routed to a different node: %s", raw)
	}
	if second.Result == nil || first.Result == nil || second.Result.Cost != first.Result.Cost {
		t.Fatalf("twin cost differs: first=%+v second=%+v", first.Result, second.Result)
	}
}

// TestRouterStickyJobs submits through the router and polls the job id
// back through the router: the poll must land on the owning node, and
// a fresh router (empty sticky table) must rediscover the owner.
func TestRouterStickyJobs(t *testing.T) {
	_, nodes, _, front := newCluster(t, 3)

	resp, raw := postJSON(t, front.URL+"/v1/jobs", solveRequest(2))
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("submit response has no id: %s", raw)
	}

	resp, raw = getBody(t, front.URL+"/v1/jobs/"+st.ID+"/wait")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: status %d: %s", resp.StatusCode, raw)
	}
	var done service.JobStatus
	if err := json.Unmarshal(raw, &done); err != nil {
		t.Fatal(err)
	}
	if done.ID != st.ID || done.State != string(service.JobDone) {
		t.Fatalf("wait did not reach the owning node: %s", raw)
	}

	// A fresh router has no sticky assignment for the id; the ring-ordered
	// search must find the owner anyway.
	var peers []string
	for _, n := range nodes {
		peers = append(peers, n.URL)
	}
	rt2, err := NewRouter(RouterConfig{Peers: peers, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	front2 := httptest.NewServer(rt2.Handler())
	defer front2.Close()
	resp, raw = getBody(t, front2.URL+"/v1/jobs/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh-router poll: status %d: %s", resp.StatusCode, raw)
	}

	// Unknown ids still answer 404 with the unified error body.
	resp, raw = getBody(t, front.URL+"/v1/jobs/job-does-not-exist")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d: %s", resp.StatusCode, raw)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
		t.Fatalf("404 body is not the unified error shape: %s", raw)
	}
}

// TestRouterStickySessions opens a streaming session through the
// router and appends steps through it: every follow-up must reach the
// one node holding the session's engine state.
func TestRouterStickySessions(t *testing.T) {
	_, _, rt, front := newCluster(t, 3)

	req := solveRequest(3)
	sessReq := &service.SessionRequest{Solver: "exact", Instance: req.Instance}
	resp, raw := postJSON(t, front.URL+"/v1/sessions", sessReq)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, raw)
	}
	var st service.SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("session has no id: %s", raw)
	}
	if got := rt.sessions.len(); got != 1 {
		t.Fatalf("router learned %d sticky sessions, want 1", got)
	}

	steps := &service.SessionSteps{Reqs: [][]string{{"101", "11"}, {"010", "00"}}}
	resp, raw = postJSON(t, front.URL+"/v1/sessions/"+st.ID+"/steps", steps)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steps: status %d: %s", resp.StatusCode, raw)
	}
	var after service.SessionStatus
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.Steps != st.Steps+2 {
		t.Fatalf("steps did not reach the session's node: before=%d after=%d", st.Steps, after.Steps)
	}

	if resp, raw := getBody(t, front.URL+"/v1/sessions/"+st.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("session get: status %d: %s", resp.StatusCode, raw)
	}
	req2, err := http.NewRequest(http.MethodDelete, front.URL+"/v1/sessions/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("session delete: status %d", dresp.StatusCode)
	}
}

// TestRouterFailover runs a cluster where one member is already dead:
// after the initial health sweep every submission must succeed on the
// surviving nodes, including the keys the dead node owned.
func TestRouterFailover(t *testing.T) {
	_, tsA := newNode(t, service.Config{Workers: 1, NodeID: "alive-a"})
	_, tsB := newNode(t, service.Config{Workers: 1, NodeID: "alive-b"})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt, err := NewRouter(RouterConfig{
		Peers:          []string{tsA.URL, tsB.URL, deadURL},
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	deadID, err := NormalizeMemberURL(deadURL)
	if err != nil {
		t.Fatal(err)
	}
	// Draw requests with distinct routing keys until the dead node owns
	// one; every request on the way must be served, the dead node's by
	// failover.  The dead node owns about a third of the ring, so the
	// bound is never reached by chance.
	r := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for len(seen) < 200 {
		req := randomSolveRequest(r)
		key, err := req.RoutingKey(service.RouteLimits{})
		if err != nil {
			t.Fatal(err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		resp, raw := postJSON(t, front.URL+"/v1/solve", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", len(seen), resp.StatusCode, raw)
		}
		if rt.Members().Ring().Owner(key) == deadID {
			return
		}
	}
	t.Fatalf("none of %d distinct keys was owned by the dead node %q", len(seen), deadID)
}

// randomSolveRequest draws a small exact solve whose six requirement
// rows come from r, so successive draws mostly carry distinct routing
// keys.
func randomSolveRequest(r *rand.Rand) *service.SolveRequest {
	reqs := make([][]string, 6)
	for i := range reqs {
		reqs[i] = []string{fmt.Sprintf("%03b", r.Intn(8)), fmt.Sprintf("%02b", r.Intn(4))}
	}
	return &service.SolveRequest{
		Solver: "exact",
		Instance: &service.WireInstance{
			Tasks: []service.WireTask{{Name: "alpha", Local: 3, V: 2}, {Name: "beta", Local: 2, V: 1}},
			Reqs:  reqs,
		},
	}
}

// TestRouterErrorBodies pins the unified error shape at the router
// layer: bad JSON answers 400 with {"error": ...}, and a cluster with
// every node down answers 503.
func TestRouterErrorBodies(t *testing.T) {
	_, _, _, front := newCluster(t, 1)

	resp, err := http.Post(front.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d: %s", resp.StatusCode, raw)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
		t.Fatalf("400 body is not the unified error shape: %s", raw)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	rt, err := NewRouter(RouterConfig{Peers: []string{deadURL}, HealthInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front2 := httptest.NewServer(rt.Handler())
	defer front2.Close()
	resp2, raw2 := postJSON(t, front2.URL+"/v1/solve", solveRequest(0))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("dead cluster: status %d: %s", resp2.StatusCode, raw2)
	}
	if err := json.Unmarshal(raw2, &eb); err != nil || eb.Error == "" {
		t.Fatalf("503 body is not the unified error shape: %s", raw2)
	}
}

// TestRouterTooLargeMatchesNode pins that the router answers an
// oversized request with the node's status and text: a partitions
// option above its bound (a *solve.LimitError) and a task count above
// the wire bound (a *service.TooLargeError) each get 413 on solves and
// session openers alike, through the router and from the node.
func TestRouterTooLargeMatchesNode(t *testing.T) {
	_, nodes, _, front := newCluster(t, 1)

	partitions := solveRequest(0)
	partitions.Options.Partitions = 1025
	tasks := &service.SolveRequest{Solver: "exact", Instance: &service.WireInstance{Reqs: [][]string{{}}}}
	for j := 0; j < 65; j++ {
		tasks.Instance.Tasks = append(tasks.Instance.Tasks, service.WireTask{Name: fmt.Sprintf("t%d", j), Local: 1, V: 1})
		tasks.Instance.Reqs[0] = append(tasks.Instance.Reqs[0], "1")
	}
	for _, c := range []struct {
		name string
		req  *service.SolveRequest
	}{{"partitions", partitions}, {"tasks", tasks}} {
		bodies := map[string]any{
			"/v1/solve": c.req,
			"/v1/sessions": &service.SessionRequest{
				Solver: c.req.Solver, Instance: c.req.Instance, Options: c.req.Options,
			},
		}
		for path, body := range bodies {
			nodeResp, nodeRaw := postJSON(t, nodes[0].URL+path, body)
			routerResp, routerRaw := postJSON(t, front.URL+path, body)
			if nodeResp.StatusCode != http.StatusRequestEntityTooLarge || routerResp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s: node %d %s, router %d %s; want 413 from both",
					c.name, path, nodeResp.StatusCode, nodeRaw, routerResp.StatusCode, routerRaw)
			}
			if !bytes.Equal(nodeRaw, routerRaw) {
				t.Fatalf("%s %s: node body %s, router body %s", c.name, path, nodeRaw, routerRaw)
			}
		}
	}
}

// TestRouterHealthAndMetrics checks the router's own endpoints.
func TestRouterHealthAndMetrics(t *testing.T) {
	_, _, _, front := newCluster(t, 2)

	resp, raw := getBody(t, front.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", resp.StatusCode, raw)
	}
	var hs service.HealthStatus
	if err := json.Unmarshal(raw, &hs); err != nil {
		t.Fatal(err)
	}
	if hs.NodeID != "hyperd-router" || hs.Ring == nil || len(hs.Ring.Members) != 2 {
		t.Fatalf("unexpected router health: %s", raw)
	}
	for _, m := range hs.Ring.Members {
		if !m.Healthy {
			t.Fatalf("member %q reported unhealthy: %s", m.ID, raw)
		}
	}

	if _, raw := postJSON(t, front.URL+"/v1/solve", solveRequest(5)); len(raw) == 0 {
		t.Fatal("empty solve response")
	}
	resp, raw = getBody(t, front.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"hyperd_router_requests_total",
		"hyperd_router_failovers_total",
		"hyperd_router_no_node_total",
		"hyperd_router_node_healthy",
		"hyperd_router_sticky_jobs",
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("metrics output missing %s:\n%s", want, raw)
		}
	}
}
