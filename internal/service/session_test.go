package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
	"repro/internal/workload"
)

// sessionInstance is a phased workload small enough for the exact
// solver to chew through repeatedly.
func sessionInstance(t *testing.T) *model.MTSwitchInstance {
	t.Helper()
	mt, err := workload.Phased(workload.Config{Tasks: 3, Steps: 10, Switches: 6, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return mt
}

// wirePrefix slices the first n step rows of a wire instance.
func wirePrefix(wi *WireInstance, n int) *WireInstance {
	return &WireInstance{Tasks: wi.Tasks, Reqs: wi.Reqs[:n]}
}

// sessionRequest opens a session over the first n steps of mt.
func sessionRequest(mt *model.MTSwitchInstance, solver string, n int) *SessionRequest {
	return &SessionRequest{
		Solver:   solver,
		Instance: wirePrefix(WireInstanceFrom(mt), n),
	}
}

// runExact is the from-scratch baseline for a trace prefix.
func runExact(t *testing.T, mt *model.MTSwitchInstance) *solve.Solution {
	t.Helper()
	sol, err := solve.Run(context.Background(), "exact",
		solve.NewMT(mt, model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}),
		solve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// prefixInstance clones the first n steps of mt.
func prefixInstance(t *testing.T, mt *model.MTSwitchInstance, n int) *model.MTSwitchInstance {
	t.Helper()
	wi := wirePrefix(WireInstanceFrom(mt), n)
	out, err := wi.toModel()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSessionGrowsAndMatchesFromScratch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	n := mt.Steps()

	sess, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2))
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.Status(); st.Steps != 2 || st.Generation != 1 || st.Result == nil {
		t.Fatalf("fresh session status off: %+v", st)
	}

	// Grow in batches of 2 and check every intermediate schedule against
	// the from-scratch solve of the same prefix.
	for length := 2; length < n; {
		batch := 2
		if length+batch > n {
			batch = n - length
		}
		st, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[length : length+batch]})
		if err != nil {
			t.Fatal(err)
		}
		length += batch
		if st.Steps != length {
			t.Fatalf("session at %d steps, want %d", st.Steps, length)
		}
		want := runExact(t, prefixInstance(t, mt, length))
		if st.Result == nil || st.Result.Cost != int64(want.Cost) {
			t.Fatalf("after %d steps: session cost %v, from-scratch %d", length, st.Result, want.Cost)
		}
		if st.ResolvedFrom < 0 || st.ResolvedFrom >= length {
			t.Fatalf("resolved_from %d outside [0,%d)", st.ResolvedFrom, length)
		}
	}
	if got := s.metrics.sessionSteps.Load(); got != int64(n-2) {
		t.Fatalf("session steps metric %d, want %d", got, n-2)
	}
}

func TestSessionAmendMatchesFromScratch(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	n := mt.Steps()

	// Open over the full trace, then overwrite two middle rows with the
	// rows from two other steps.
	sess, err := s.CreateSession(ctx, sessionRequest(mt, "exact", n))
	if err != nil {
		t.Fatal(err)
	}
	at := 4
	repl := [][]string{wi.Reqs[0], wi.Reqs[1]}
	st, err := sess.Steps(ctx, &SessionSteps{At: &at, Reqs: repl})
	if err != nil {
		t.Fatal(err)
	}
	amended := &WireInstance{Tasks: wi.Tasks, Reqs: append([][]string{}, wi.Reqs...)}
	amended.Reqs[4], amended.Reqs[5] = repl[0], repl[1]
	mtAmended, err := amended.toModel()
	if err != nil {
		t.Fatal(err)
	}
	want := runExact(t, mtAmended)
	if st.Result == nil || st.Result.Cost != int64(want.Cost) {
		t.Fatalf("amended session cost %v, from-scratch %d", st.Result, want.Cost)
	}

	// Out-of-range amendments are rejected before touching anything.
	bad := n
	if _, err := sess.Steps(ctx, &SessionSteps{At: &bad, Reqs: repl}); err == nil {
		t.Fatal("amend window past the trace end accepted")
	}
}

func TestSessionHTTPLifecycleMatchesSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	n := mt.Steps()

	resp, raw := postJSON(t, ts.URL+"/v1/sessions", sessionRequest(mt, "exact", 2))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Steps != 2 || st.Result == nil {
		t.Fatalf("create status off: %s", raw)
	}

	// Stream the rest of the trace through the steps endpoint.
	resp, raw = postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/steps", &SessionSteps{Reqs: wi.Reqs[2:n]})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steps: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Steps != n || st.Result == nil {
		t.Fatalf("steps status off: %s", raw)
	}

	// The streamed schedule must equal the one-shot /v1/solve of the
	// full trace: same cost, same exactness, same schedule document.
	resp, raw = postJSON(t, ts.URL+"/v1/solve", &SolveRequest{Solver: "exact", Instance: wi})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	var job JobStatus
	if err := json.Unmarshal(raw, &job); err != nil {
		t.Fatal(err)
	}
	if job.Result == nil || job.Result.Cost != st.Result.Cost || job.Result.Exact != st.Result.Exact {
		t.Fatalf("session result %+v, one-shot %+v", st.Result, job.Result)
	}
	if string(st.Result.Schedule) != string(job.Result.Schedule) {
		t.Fatalf("session schedule differs from one-shot:\n%s\nvs\n%s", st.Result.Schedule, job.Result.Schedule)
	}

	// Status endpoint agrees; delete tears it down; a second delete 404s.
	resp, _ = getBody(t, ts.URL+"/v1/sessions/"+st.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp2.StatusCode)
	}
	resp2, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", resp2.StatusCode)
	}
}

func TestSessionSchedulleLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	_, raw := postJSON(t, ts.URL+"/v1/sessions", sessionRequest(mt, "exact", 2))
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	// Polling at the current generation parks until the step below
	// bumps it.
	done := make(chan SessionStatus, 1)
	go func() {
		_, raw := getBody(t, fmt.Sprintf("%s/v1/sessions/%s/schedule?generation=%d&timeout_ms=5000", ts.URL, st.ID, st.Generation))
		var got SessionStatus
		json.Unmarshal(raw, &got)
		done <- got
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case got := <-done:
		t.Fatalf("long-poll returned before any step: %+v", got)
	default:
	}
	if resp, raw := postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/steps", &SessionSteps{Reqs: wi.Reqs[2:3]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("steps: %d %s", resp.StatusCode, raw)
	}
	select {
	case got := <-done:
		if got.Generation != st.Generation+1 || got.Steps != 3 {
			t.Fatalf("long-poll woke with %+v, want generation %d at 3 steps", got, st.Generation+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on the new schedule")
	}

	// A poll behind the current generation returns immediately.
	_, raw = getBody(t, fmt.Sprintf("%s/v1/sessions/%s/schedule?generation=0&timeout_ms=10", ts.URL, st.ID))
	var got SessionStatus
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Generation < 2 {
		t.Fatalf("stale poll got generation %d", got.Generation)
	}

	// A poll at the head generation times out and reports the unchanged
	// schedule rather than hanging.
	start := time.Now()
	_, raw = getBody(t, fmt.Sprintf("%s/v1/sessions/%s/schedule?generation=%d&timeout_ms=100", ts.URL, st.ID, got.Generation))
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("head poll neither timed out nor returned promptly: %s", elapsed)
	}
}

func TestSessionEvictionAndRevival(t *testing.T) {
	// A 1-byte engine budget closes every session's engine but the most
	// recent one; touching an evicted session rebuilds it from its trace
	// with the schedule intact.
	s := New(Config{Workers: 1, SessionBytes: 1})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	a, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); !st.Evicted {
		t.Fatalf("session A not evicted under a 1-byte budget: %+v", st)
	}
	if st := b.Status(); st.Evicted {
		t.Fatalf("most recent session B evicted: %+v", st)
	}
	if got := s.metrics.sessionsEvicted.Load(); got == 0 {
		t.Fatal("eviction not counted")
	}

	// The evicted session still answers with its last schedule, and a
	// new batch revives the engine and matches the from-scratch solve.
	if st := a.Status(); st.Result == nil {
		t.Fatal("evicted session lost its schedule")
	}
	st, err := a.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[4:6]})
	if err != nil {
		t.Fatal(err)
	}
	want := runExact(t, prefixInstance(t, mt, 6))
	if st.Result == nil || st.Result.Cost != int64(want.Cost) {
		t.Fatalf("revived session cost %v, from-scratch %d", st.Result, want.Cost)
	}
	if got := s.metrics.sessionsRevived.Load(); got == 0 {
		t.Fatal("revival not counted")
	}
}

// TestSessionBusyVictimStaysCounted: a session whose lock is held when
// the byte budget picks it as a victim (a status read, a long-poll
// wake-up or a failing batch may hold it) keeps its engine, its place
// on the LRU list and its bytes in the engine-byte gauge, so the next
// rebalance can still evict it.
func TestSessionBusyVictimStaysCounted(t *testing.T) {
	s := New(Config{Workers: 1, SessionBytes: 1})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	a, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	b, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		a.mu.Unlock()
		t.Fatal(err)
	}
	if a.eng == nil {
		a.mu.Unlock()
		t.Fatal("busy session A lost its engine")
	}
	aBytes := a.eng.SizeBytes()
	a.mu.Unlock()
	b.mu.Lock()
	bBytes := b.eng.SizeBytes()
	b.mu.Unlock()
	if _, got := s.sessions.gauges(); got != aBytes+bBytes {
		t.Fatalf("engine-byte gauge %d with %d bytes live (A %d, B %d)", got, aBytes+bBytes, aBytes, bBytes)
	}

	// B's next batch rebalances again and finds A free.
	if _, err := b.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[4:5]}); err != nil {
		t.Fatal(err)
	}
	if st := a.Status(); !st.Evicted {
		t.Fatalf("session A not evicted once free: %+v", st)
	}
	b.mu.Lock()
	bBytes = b.eng.SizeBytes()
	b.mu.Unlock()
	if _, got := s.sessions.gauges(); got != bBytes {
		t.Fatalf("engine-byte gauge %d after evicting A, want B's %d", got, bBytes)
	}
}

// TestSessionEvictionConcurrentAccounting streams batches into four
// sessions at once under a 1-byte engine budget while other goroutines
// read their status and long-poll them, so rebalances keep meeting
// busy victims.  Once the traffic stops, every live engine is on the
// LRU list, the engine-byte gauge is the sum of their sizes, and each
// session's answer is the from-scratch one.
func TestSessionEvictionConcurrentAccounting(t *testing.T) {
	s := New(Config{Workers: 1, SessionBytes: 1})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	n := mt.Steps()

	sessions := make([]*session, 4)
	for i := range sessions {
		sess, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2))
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for _, sess := range sessions {
		readers.Add(2)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sess.Status()
				}
			}
		}()
		go func() {
			defer readers.Done()
			for gen := int64(0); ; {
				select {
				case <-stop:
					return
				default:
					gen = sess.Wait(ctx, gen, time.Millisecond).Generation
				}
			}
		}()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for k := 2; k < n; k++ {
				if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[k : k+1]}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	want := runExact(t, mt)
	st := s.sessions
	var live int64
	for _, sess := range sessions {
		sess.mu.Lock()
		st.mu.Lock()
		_, listed := st.els[sess.ID]
		st.mu.Unlock()
		if (sess.eng != nil) != listed {
			t.Errorf("session %s: live engine %v, on the LRU list %v", sess.ID, sess.eng != nil, listed)
		}
		if sess.eng != nil {
			live += sess.eng.SizeBytes()
		}
		if sess.ws == nil || sess.ws.Cost != int64(want.Cost) {
			t.Errorf("session %s: answer %+v, from-scratch cost %d", sess.ID, sess.ws, want.Cost)
		}
		sess.mu.Unlock()
	}
	if _, got := st.gauges(); got != live {
		t.Errorf("engine-byte gauge %d, live engines hold %d", got, live)
	}
}

func TestSessionLimitRejects(t *testing.T) {
	s := New(Config{Workers: 1, MaxSessions: 1})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)

	if _, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2)); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("got %v, want ErrSessionLimit", err)
	}
}

func TestSessionRejectsNonSteppableSolver(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	mt := sessionInstance(t)
	if _, err := s.CreateSession(context.Background(), sessionRequest(mt, "ga", 2)); !errors.Is(err, solve.ErrNotSteppable) {
		t.Fatalf("got %v, want ErrNotSteppable", err)
	}
}

func TestSessionPanicIsolationAndRebuild(t *testing.T) {
	// An injected panic in the session solve path fails only that batch;
	// the trace keeps the rows, and the next batch rebuilds the engine
	// and produces the correct schedule for the full trace.
	faultinject.Reset()
	defer faultinject.Reset()
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	sess, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 3))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("service.session", faultinject.Action{Panic: true, Times: 1})
	_, err = sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[3:5]})
	var pe *solve.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("injected panic surfaced as %v, want *solve.PanicError", err)
	}
	if st := sess.Status(); !st.Evicted || st.Steps != 5 || st.Error == "" {
		t.Fatalf("post-panic status off: %+v", st)
	}

	// Next batch: engine rebuilds from the authoritative trace, which
	// already contains the panicked batch's rows.
	st, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[5:6]})
	if err != nil {
		t.Fatal(err)
	}
	want := runExact(t, prefixInstance(t, mt, 6))
	if st.Result == nil || st.Result.Cost != int64(want.Cost) {
		t.Fatalf("rebuilt session cost %v, from-scratch %d", st.Result, want.Cost)
	}
	if st.Error != "" {
		t.Fatalf("recovered session still reports error %q", st.Error)
	}
}

func TestSessionBreakerAdmission(t *testing.T) {
	// Consecutive session solve failures trip the same per-solver
	// breaker the job queue uses; further batches fail fast with 503
	// semantics until the cooldown.
	faultinject.Reset()
	defer faultinject.Reset()
	s := New(Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Hour})
	defer shutdown(t, s)
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	sess, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set("service.session", faultinject.Action{Panic: true})
	for i := 0; i < 2; i++ {
		var pe *solve.PanicError
		if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[2+i : 3+i]}); !errors.As(err, &pe) {
			t.Fatalf("batch %d: got %v, want panic error", i, err)
		}
	}
	var unavailable *SolverUnavailableError
	if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[4:5]}); !errors.As(err, &unavailable) {
		t.Fatalf("got %v, want SolverUnavailableError after breaker tripped", err)
	}
	// Creating a new session for the same solver is rejected too.
	if _, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2)); !errors.As(err, &unavailable) {
		t.Fatalf("create after trip: got %v, want SolverUnavailableError", err)
	}
}

func TestSessionBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	for name, body := range map[string]any{
		"missing solver":   &SessionRequest{Instance: wirePrefix(wi, 2)},
		"missing instance": &SessionRequest{Solver: "exact"},
		"empty trace":      &SessionRequest{Solver: "exact", Instance: &WireInstance{Tasks: wi.Tasks}},
		"bad upload":       &SessionRequest{Solver: "exact", Instance: wirePrefix(wi, 2), Upload: "bogus"},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/sessions", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, resp.StatusCode, raw)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", strings.Repeat("x", 64)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: %d, want 400", resp.StatusCode)
	}
	// trailing posts a valid body followed by anything but whitespace.
	trailing := func(path string, v any) {
		t.Helper()
		valid, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{" garbage", `{"solver":"nope"}`, "]"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(string(valid)+tail))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with trailing %q: %d, want 400", path, tail, resp.StatusCode)
			}
		}
	}
	trailing("/v1/sessions", sessionRequest(mt, "exact", 2))

	_, raw := postJSON(t, ts.URL+"/v1/sessions", sessionRequest(mt, "exact", 2))
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	for name, batch := range map[string]*SessionSteps{
		"empty batch":     {},
		"ragged row":      {Reqs: [][]string{{"10"}}},
		"wrong universe":  {Reqs: [][]string{make([]string, len(wi.Tasks))}},
		"unparsable cell": {Reqs: [][]string{func() []string { r := append([]string{}, wi.Reqs[0]...); r[0] = "2z"; return r }()}},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/sessions/"+st.ID+"/steps", batch)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, resp.StatusCode, raw)
		}
	}
	trailing("/v1/sessions/"+st.ID+"/steps", &SessionSteps{Reqs: wi.Reqs[2:3]})
	if sess, _ := s.Session(st.ID); sess.Status().Steps != 2 {
		t.Errorf("a rejected batch changed the trace: %d steps, want 2", sess.Status().Steps)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions/nope/steps", &SessionSteps{Reqs: wi.Reqs[:1]}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %d, want 404", resp.StatusCode)
	}
}

func TestSessionMetricsRendered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	sess, err := s.CreateSession(context.Background(), sessionRequest(mt, "exact", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Steps(context.Background(), &SessionSteps{Reqs: wi.Reqs[2:4]}); err != nil {
		t.Fatal(err)
	}
	_, raw := getBody(t, ts.URL+"/metrics")
	text := string(raw)
	for _, want := range []string{
		"hyperd_sessions_active 1",
		"hyperd_session_steps_total 2",
		"hyperd_session_resolve_suffix_len_sum",
		"hyperd_session_resolve_suffix_len_count 1",
		"hyperd_sessions_evicted_total",
		"hyperd_sessions_revived_total",
		"hyperd_session_engine_bytes",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestSessionShutdownCloses(t *testing.T) {
	s := New(Config{Workers: 1})
	mt := sessionInstance(t)
	sess, err := s.CreateSession(context.Background(), sessionRequest(mt, "exact", 2))
	if err != nil {
		t.Fatal(err)
	}
	// A long-poll parked on the session must wake when shutdown closes
	// it rather than sleeping out its timeout.
	done := make(chan *SessionStatus, 1)
	go func() {
		done <- sess.Wait(context.Background(), sess.Status().Generation, time.Hour)
	}()
	time.Sleep(20 * time.Millisecond)
	shutdown(t, s)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll survived shutdown")
	}
	if _, ok := s.Session(sess.ID); ok {
		t.Fatal("session survived shutdown")
	}
	if _, err := sess.Steps(context.Background(), &SessionSteps{Reqs: WireInstanceFrom(mt).Reqs[2:3]}); !errors.Is(err, ErrNoSuchSession) {
		t.Fatalf("steps on closed session: %v, want ErrNoSuchSession", err)
	}
}

// TestSessionSolvesStopAtMaxTimeout pins the clamped deadline on
// session solves, as on jobs: on a server with a 50 ms -max-timeout an
// unpruned exact opener on dense 4×48 (seconds of work unbounded) fails
// with a deadline error well within a second and leaves no session
// behind, a batch that grows a light session into the same trace stops
// the same way, and light sessions still open and take batches.
func TestSessionSolvesStopAtMaxTimeout(t *testing.T) {
	s := New(Config{Workers: 1, MaxSolveTimeout: 50 * time.Millisecond})
	defer shutdown(t, s)
	ctx := context.Background()
	heavy, err := workload.Dense(workload.Config{Tasks: 4, Steps: 48, Switches: 14, MeanPhase: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	unpruned := func(n int) *SessionRequest {
		req := sessionRequest(heavy, "exact", n)
		req.Options.DisablePruning = true
		return req
	}

	start := time.Now()
	if _, err := s.CreateSession(ctx, unpruned(heavy.Steps())); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("heavy opener: got %v, want a deadline error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("heavy opener took %v, want it stopped near the 50 ms clamp", took)
	}
	if active, _ := s.sessions.gauges(); active != 0 {
		t.Fatalf("%d sessions left after the failed opener, want 0", active)
	}

	grow, err := s.CreateSession(ctx, unpruned(2))
	if err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, err := grow.Steps(ctx, &SessionSteps{Reqs: WireInstanceFrom(heavy).Reqs[2:]}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("heavy batch: got %v, want a deadline error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("heavy batch took %v, want it stopped near the 50 ms clamp", took)
	}

	mt := sessionInstance(t)
	light, err := s.CreateSession(ctx, sessionRequest(mt, "exact", 2))
	if err != nil {
		t.Fatal(err)
	}
	st, err := light.Steps(ctx, &SessionSteps{Reqs: WireInstanceFrom(mt).Reqs[2:6]})
	if err != nil {
		t.Fatal(err)
	}
	if want := runExact(t, prefixInstance(t, mt, 6)); st.Result == nil || st.Result.Cost != int64(want.Cost) {
		t.Fatalf("light session after 6 steps: %v, want cost %d", st.Result, want.Cost)
	}
}
