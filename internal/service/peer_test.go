package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/portfolio"
	"repro/internal/solve"
)

// TestPeerEntryRoundTrip pins the peer-fill wire format: a canonical
// store entry survives render → JSON → decode → entry unchanged.
func TestPeerEntryRoundTrip(t *testing.T) {
	key := strings.Repeat("ab", 32)
	in := &canonicalEntry{
		mask:  [][]bool{{true, false, true}, {false, false, true}},
		cost:  model.Cost(17),
		exact: true,
		stats: solve.Stats{StatesExpanded: 5, DedupHits: 9},
	}
	data, err := json.Marshal(peerEntryOf(key, in))
	if err != nil {
		t.Fatal(err)
	}
	// A body from a node that still sends the retired portfolio
	// dispatch hint decodes to the same entry, the field ignored.
	withHint := strings.TrimSuffix(string(data), "}") + `,"dispatch_hint":{"bucket":"m2_n6_d1_b0","winner":"exact"}}`
	for _, body := range []string{string(data), withHint} {
		pe, err := DecodePeerEntry([]byte(body))
		if err != nil {
			t.Fatalf("decode: %v (%s)", err, body)
		}
		if pe.Key != key || pe.Cost != 17 || !pe.Exact {
			t.Fatalf("decoded header mismatch: %+v", pe)
		}
		out := pe.entry()
		if out.cost != in.cost || out.exact != in.exact {
			t.Fatalf("entry mismatch: %+v vs %+v", out, in)
		}
		if len(out.mask) != len(in.mask) {
			t.Fatalf("mask rows %d != %d", len(out.mask), len(in.mask))
		}
		for c := range in.mask {
			for i := range in.mask[c] {
				if out.mask[c][i] != in.mask[c][i] {
					t.Fatalf("mask[%d][%d] differs", c, i)
				}
			}
		}
		if out.stats.StatesExpanded != 5 || out.stats.DedupHits != 9 {
			t.Fatalf("stats lost in transit: %+v", out.stats)
		}
	}
}

// TestDecodePeerEntryRejects enumerates the malformed bodies the
// decoder must refuse.
func TestDecodePeerEntryRejects(t *testing.T) {
	key := strings.Repeat("ab", 32)
	cases := []string{
		`{`,
		`null`,
		`{"key":"","cost":1,"mask":["1"]}`,
		`{"key":"XYZ","cost":1,"mask":["1"]}`,
		`{"key":"` + key + `","cost":-1,"mask":["1"]}`,
		`{"key":"` + key + `","cost":1,"mask":[]}`,
		`{"key":"` + key + `","cost":1,"mask":["10","1"]}`,
		`{"key":"` + key + `","cost":1,"mask":["1x"]}`,
		`{"key":"` + strings.Repeat("a", 200) + `","cost":1,"mask":["1"]}`,
	}
	for i, c := range cases {
		if pe, err := DecodePeerEntry([]byte(c)); err == nil {
			t.Fatalf("case %d accepted: %+v", i, pe)
		}
	}
}

// TestPeerLookupJoinsInflightSolve is the node-side half of cross-node
// singleflight: a PeerLookup with a wait budget, issued while the key's
// solve is still running, parks on that job and answers the published
// entry instead of a miss.
func TestPeerLookupJoinsInflightSolve(t *testing.T) {
	gate := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return solve.Run(ctx, "exact", inst, opts)
	})
	s, ts := newTestServer(t, Config{Workers: 1})

	req := tinyRequest("svc-test")
	key, err := req.RoutingKey(s.limits())
	if err != nil {
		t.Fatal(err)
	}

	// Miss without a wait budget: the key is unknown and nothing blocks.
	if _, ok := s.PeerLookup(key, 0, nil); ok {
		t.Fatal("lookup hit before anything was solved")
	}

	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		pe *PeerEntry
		ok bool
	}
	ch := make(chan answer, 1)
	go func() {
		pe, ok := s.PeerLookup(key, 5*time.Second, nil)
		ch <- answer{pe, ok}
	}()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	waitDone(t, job)

	got := <-ch
	if !got.ok {
		t.Fatal("waiting lookup missed the published entry")
	}
	if got.pe.Key != key {
		t.Fatalf("entry key %q, want %q", got.pe.Key, key)
	}
	if w := s.metrics.peerServeWaits.Load(); w != 1 {
		t.Fatalf("peerServeWaits = %d, want 1", w)
	}

	// The HTTP surface serves the same entry.
	resp, raw := getBody(t, ts.URL+"/v1/cache/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache endpoint: status %d: %s", resp.StatusCode, raw)
	}
	pe, err := DecodePeerEntry(raw)
	if err != nil {
		t.Fatalf("cache endpoint body does not decode: %v: %s", err, raw)
	}
	if pe.Key != key {
		t.Fatalf("cache endpoint answered key %q, want %q", pe.Key, key)
	}

	// Bad and unknown keys answer 400 and 404 with the unified shape.
	if resp, raw := getBody(t, ts.URL+"/v1/cache/NOT-HEX"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid key: status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = getBody(t, ts.URL+"/v1/cache/"+strings.Repeat("cd", 32))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key: status %d: %s", resp.StatusCode, raw)
	}
	assertErrorBody(t, raw, false)
}

// TestPeerLookupDuringPortfolioFinalize serves peer lookups for a
// racing portfolio job's canonical key until the job is done, and a few
// times after.  A lookup reads the cached entry without the server
// lock, so the entry must not change once it is in the store; under
// -race a write after the Put shows up here.
func TestPeerLookupDuringPortfolioFinalize(t *testing.T) {
	useFreshWinTable(t)
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	job, _, err := s.Submit(&SolveRequest{Solver: "portfolio", Instance: bigWire()})
	if err != nil {
		t.Fatal(err)
	}
	key := job.canonKey
	if key == "" {
		t.Fatal("portfolio job has no canonical key")
	}
	deadline := time.After(10 * time.Second)
	for running := true; running; {
		select {
		case <-job.Done():
			running = false
		case <-deadline:
			t.Fatalf("job %s did not finish", job.ID)
		default:
		}
		s.PeerLookup(key, 0, nil)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.PeerLookup(key, 0, nil); !ok {
			t.Fatal("lookup after the solve missed the cached entry")
		}
	}
	if got := s.metrics.portfolioRaces.Load(); got != 1 {
		t.Fatalf("portfolio races = %d, want 1 (a fresh win table races)", got)
	}
}

// useFreshWinTable gives the test an empty portfolio win table, so a
// portfolio solve races instead of dispatching straight to a winner an
// earlier test recorded, and restores the old table when the test ends.
func useFreshWinTable(t *testing.T) {
	old := portfolio.DefaultTable
	portfolio.DefaultTable = portfolio.NewTable()
	t.Cleanup(func() { portfolio.DefaultTable = old })
}

// TestHealthzV1Fields pins the cluster health document: node id, build
// version, live-session count and the injected ring view.
func TestHealthzV1Fields(t *testing.T) {
	ring := &RingStatus{
		Self:    "node-1",
		VNodes:  16,
		Members: []MemberHealth{{ID: "node-1", Healthy: true}, {ID: "node-2", Healthy: false}},
	}
	s, ts := newTestServer(t, Config{Workers: 1, NodeID: "node-1", ClusterStatus: func() *RingStatus { return ring }})

	sess, err := s.CreateSession(context.Background(), &SessionRequest{
		Solver:   "exact",
		Instance: tinyRequest("exact").Instance,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.DeleteSession(sess.ID)

	resp, raw := getBody(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var hs HealthStatus
	if err := json.Unmarshal(raw, &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" || hs.NodeID != "node-1" || hs.Version == "" {
		t.Fatalf("unexpected health header: %s", raw)
	}
	if hs.SessionsActive != 1 {
		t.Fatalf("sessions_active = %d, want 1: %s", hs.SessionsActive, raw)
	}
	if hs.Ring == nil || hs.Ring.Self != "node-1" || len(hs.Ring.Members) != 2 {
		t.Fatalf("ring view missing: %s", raw)
	}

	// Draining state flips once shutdown begins.
	shutdown(t, s)
	resp, raw = getBody(t, ts.URL+"/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Status != "draining" {
		t.Fatalf("post-shutdown status %q, want draining: %s", hs.Status, raw)
	}
}
