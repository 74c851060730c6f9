package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/solve"
)

// fillerHook late-binds a PeerFiller: the service.Config needs one at
// New() time, but the PeerClient needs the node URLs, which httptest
// assigns after the handlers exist.
type fillerHook struct {
	mu sync.Mutex
	f  service.PeerFiller
}

func (h *fillerHook) set(f service.PeerFiller) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.f = f
}

func (h *fillerHook) Fill(key string) (*service.PeerEntry, bool) {
	h.mu.Lock()
	f := h.f
	h.mu.Unlock()
	if f == nil {
		return nil, false
	}
	return f.Fill(key)
}

// metricValue scrapes one counter out of a /metrics exposition.
func metricValue(t *testing.T, url, name string) int64 {
	t.Helper()
	_, raw := getBody(t, url+"/metrics")
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? (\d+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, raw)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func waitJob(t *testing.T, j *service.Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// jobResult returns a finished job's answer, failing the test if it
// has none.
func jobResult(t *testing.T, j *service.Job) *service.WireSolution {
	t.Helper()
	st := j.Snapshot()
	if st.Result == nil {
		t.Fatalf("job %s has no result (state %s, error %q)", j.ID, st.State, st.Error)
	}
	return st.Result
}

// submitSnapshot submits req to s, waits for the job and returns its
// status document.
func submitSnapshot(t *testing.T, s *service.Server, req *service.SolveRequest) *service.JobStatus {
	t.Helper()
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, job)
	st := job.Snapshot()
	if st.Result == nil {
		t.Fatalf("job %s has no result (state %s, error %q)", job.ID, st.State, st.Error)
	}
	return st
}

// TestPeerFillTwinAcrossNodes is the cross-node twin replay property:
// for a family of instances, solving the original on node A and then
// submitting a structural twin to node B (which has never seen the
// problem) must serve the twin from A's canonical entry via peer fill
// — same cost, no second solve, schedule re-labeled in the twin's own
// task names, and the same cost and schedule bytes a single node
// without peers serves for the twin after the original.
//
// It also counts what peer fill saves, from hyperd_jobs_submitted_total:
// the twin groups cost one solve each across A and B, and two each when
// the twin goes instead to a node that has no PeerFill.
func TestPeerFillTwinAcrossNodes(t *testing.T) {
	const groups = 8
	sA, tsA := newNode(t, service.Config{Workers: 1, NodeID: "node-a"})
	hook := &fillerHook{}
	sB, tsB := newNode(t, service.Config{Workers: 1, NodeID: "node-b", PeerFill: hook})
	// The oracle is one node answering the original, then the twin from
	// its own canonical store; lone gets only the twin and must solve it.
	oracle, _ := newNode(t, service.Config{Workers: 1, NodeID: "oracle"})
	lone, tsLone := newNode(t, service.Config{Workers: 1, NodeID: "lone"})

	set, err := NewMemberSet([]string{tsA.URL, tsB.URL}, 16)
	if err != nil {
		t.Fatal(err)
	}
	self, err := NormalizeMemberURL(tsB.URL)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPeerClient(PeerClientConfig{Self: self, Members: set, Wait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hook.set(pc)

	for i := 0; i < groups; i++ {
		req := solveRequest(i)
		orig, _, err := sA.Submit(req)
		if err != nil {
			t.Fatalf("case %d: submit original: %v", i, err)
		}
		waitJob(t, orig)
		origSol := jobResult(t, orig)

		twinJob, _, err := sB.Submit(twinOf(req))
		if err != nil {
			t.Fatalf("case %d: submit twin: %v", i, err)
		}
		if !twinJob.CacheHit {
			t.Errorf("case %d: twin was solved locally instead of peer-filled", i)
		}
		waitJob(t, twinJob)
		twinSol := jobResult(t, twinJob)
		if twinSol.Cost != origSol.Cost {
			t.Fatalf("case %d: twin cost %d != original %d", i, twinSol.Cost, origSol.Cost)
		}
		if twinSol.Exact != origSol.Exact {
			t.Fatalf("case %d: twin exact=%t, original=%t", i, twinSol.Exact, origSol.Exact)
		}

		// The replayed schedule must carry the twin's task labels, not the
		// original's — the entry is re-labeled per requester.
		st := twinJob.Snapshot()
		if st.Result == nil || st.Result.Schedule == nil {
			t.Fatalf("case %d: twin has no schedule document", i)
		}
		doc := string(st.Result.Schedule)
		for _, name := range []string{"south", "north"} {
			if !strings.Contains(doc, name) {
				t.Fatalf("case %d: twin schedule missing task %q:\n%s", i, name, doc)
			}
		}
		if strings.Contains(doc, "alpha") || strings.Contains(doc, "beta") {
			t.Fatalf("case %d: twin schedule leaks the original's labels:\n%s", i, doc)
		}

		submitSnapshot(t, oracle, req)
		want := submitSnapshot(t, oracle, twinOf(req))
		if st.Result.Cost != want.Result.Cost {
			t.Errorf("case %d: peer-filled twin cost %d, single-node oracle %d", i, st.Result.Cost, want.Result.Cost)
		}
		if !bytes.Equal(st.Result.Schedule, want.Result.Schedule) {
			t.Errorf("case %d: peer-filled twin schedule differs from the single-node oracle's:\n%s\nvs\n%s",
				i, st.Result.Schedule, want.Result.Schedule)
		}

		submitSnapshot(t, lone, twinOf(req))
	}

	if hits := metricValue(t, tsB.URL, "hyperd_cluster_peer_fill_hits_total"); hits != groups {
		t.Errorf("node B peer fill hits = %d, want %d", hits, groups)
	}
	if served := metricValue(t, tsA.URL, "hyperd_cluster_peer_serve_hits_total"); served != groups {
		t.Errorf("node A peer serve hits = %d, want %d", served, groups)
	}
	solvedA := metricValue(t, tsA.URL, "hyperd_jobs_submitted_total")
	if got := solvedA + metricValue(t, tsB.URL, "hyperd_jobs_submitted_total"); got != groups {
		t.Errorf("%d twin groups cost %d solves across nodes A and B, want %d (one each)", groups, got, groups)
	}
	if got := solvedA + metricValue(t, tsLone.URL, "hyperd_jobs_submitted_total"); got != 2*groups {
		t.Errorf("%d twin groups cost %d solves with the twin on a node without PeerFill, want %d (two each)",
			groups, got, 2*groups)
	}
}

// TestCrossNodeSingleflight submits an instance to node A with a slow
// solver and, while that solve is still running, submits a structural
// twin to node B.  B's peer fill must park on A's in-flight job and
// reuse its result: exactly one solver run for both requests.
func TestCrossNodeSingleflight(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	solve.Register(solve.NewSolver("cluster-slow",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			calls.Add(1)
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return solve.Run(ctx, "exact", inst, opts)
		}))

	sA, tsA := newNode(t, service.Config{Workers: 1, NodeID: "sf-a"})
	hook := &fillerHook{}
	sB, _ := newNode(t, service.Config{Workers: 1, NodeID: "sf-b", PeerFill: hook})

	set, err := NewMemberSet([]string{tsA.URL}, 16)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPeerClient(PeerClientConfig{Members: set, Wait: 8 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hook.set(pc)

	req := solveRequest(42)
	req.Solver = "cluster-slow"
	jobA, _, err := sA.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	twin := twinOf(req)
	type result struct {
		job *service.Job
		err error
	}
	ch := make(chan result, 1)
	go func() {
		j, _, err := sB.Submit(twin)
		ch <- result{j, err}
	}()

	// Let B's fill reach A and park on the in-flight job, then release
	// the solver.  (If the fill arrives after the solve finished it hits
	// the canonical store directly — either way one solver run.)
	time.Sleep(200 * time.Millisecond)
	close(gate)
	waitJob(t, jobA)

	res := <-ch
	if res.err != nil {
		t.Fatalf("twin submit: %v", res.err)
	}
	if !res.job.CacheHit {
		t.Fatal("twin was enqueued for a second solve instead of joining A's in-flight one")
	}
	waitJob(t, res.job)
	if solA, solB := jobResult(t, jobA), jobResult(t, res.job); solA.Cost != solB.Cost {
		t.Fatalf("costs diverge: A=%d B=%d", solA.Cost, solB.Cost)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times across the cluster, want 1", got)
	}
	if waits := metricValue(t, tsA.URL, "hyperd_cluster_peer_serve_waits_total"); waits != 1 {
		t.Fatalf("node A peer serve waits = %d, want 1 (the singleflight join)", waits)
	}
}

// TestPeerClientRejectsMismatchedKey makes sure a sibling answering
// the wrong key (corrupt proxy, version skew) is discarded rather than
// replayed.
func TestPeerClientRejectsMismatchedKey(t *testing.T) {
	wrong := service.PeerEntry{
		Key:   strings.Repeat("ab", 32),
		Cost:  1,
		Exact: true,
		Mask:  []string{"01", "10"},
	}
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&wrong)
	}))
	defer bad.Close()

	set, err := NewMemberSet([]string{bad.URL}, 16)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPeerClient(PeerClientConfig{Members: set, Wait: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if pe, ok := pc.Fill(strings.Repeat("cd", 32)); ok {
		t.Fatalf("mismatched key accepted: %+v", pe)
	}
}

// TestPeerClientBreakerSkipsDeadPeer checks a dead sibling trips its
// breaker after enough misses: fills keep answering (false) without
// hanging, and once open the breaker short-circuits the network call.
func TestPeerClientBreakerSkipsDeadPeer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	set, err := NewMemberSet([]string{deadURL}, 16)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewPeerClient(PeerClientConfig{Members: set, Wait: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	key := strings.Repeat("ef", 32)
	for i := 0; i < 10; i++ {
		if _, ok := pc.Fill(key); ok {
			t.Fatal("dead peer produced an entry")
		}
	}
	id, err := NormalizeMemberURL(deadURL)
	if err != nil {
		t.Fatal(err)
	}
	if allowed, _ := pc.breakers[id].Allow(); allowed {
		t.Fatal("breaker still closed after 10 consecutive transport failures")
	}
}

// TestMemberSetStatusAndHealthChecker exercises the health sweep
// against one live node and one dead one.
func TestMemberSetStatusAndHealthChecker(t *testing.T) {
	_, tsA := newNode(t, service.Config{Workers: 1, NodeID: "hc-a"})
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	set, err := NewMemberSet([]string{tsA.URL, deadURL}, 16)
	if err != nil {
		t.Fatal(err)
	}
	hc := NewHealthChecker(set, 100*time.Millisecond, nil, "")
	hc.CheckNow(context.Background())
	hc.Start()
	defer hc.Stop()

	aliveID, _ := NormalizeMemberURL(tsA.URL)
	deadID, _ := NormalizeMemberURL(deadURL)
	a, _ := set.Member(aliveID)
	d, _ := set.Member(deadID)
	if !a.Healthy() {
		t.Fatalf("live node %q marked unhealthy", aliveID)
	}
	if d.Healthy() {
		t.Fatalf("dead node %q marked healthy", deadID)
	}

	st := set.Status(aliveID)
	if st.Self != aliveID || len(st.Members) != 2 {
		t.Fatalf("unexpected ring status: %+v", st)
	}
	healthyByID := map[string]bool{}
	for _, m := range st.Members {
		healthyByID[m.ID] = m.Healthy
	}
	if !healthyByID[aliveID] || healthyByID[deadID] {
		t.Fatalf("ring status health wrong: %+v", st)
	}
}
