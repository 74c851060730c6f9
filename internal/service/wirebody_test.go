package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
	"repro/internal/workload"
)

// refBits renders a set bit by bit, LSB first: the reference for
// every bit string on the wire.
func refBits(s bitset.Set) string {
	b := make([]byte, s.Universe())
	for i := range b {
		b[i] = '0'
		if s.Contains(i) {
			b[i] = '1'
		}
	}
	return string(b)
}

// refScheduleTask and refSchedule mirror the traceio schedule document
// field by field, so the reference below encodes it with the struct
// encoder.
type refScheduleTask struct {
	Name  string   `json:"name"`
	Local int      `json:"local"`
	V     int64    `json:"v"`
	Hyper string   `json:"hyper"`
	Hctx  []string `json:"hctx"`
}

type refSchedule struct {
	Tasks []refScheduleTask `json:"tasks"`
}

// referenceWireSolution is the result rendering of the struct-encoder
// path: the schedule document built as Go values, encoded with
// two-space indentation and embedded as a raw message, which the
// status encoder then compacts.  Response bodies must stay
// byte-identical to it.
func referenceWireSolution(t *testing.T, sol *solve.Solution, mt *model.MTSwitchInstance) *WireSolution {
	t.Helper()
	out := &WireSolution{
		Kind:  sol.Kind.String(),
		Cost:  int64(sol.Cost),
		Exact: sol.Exact,
		Stats: wireStats(sol.Stats),
	}
	switch sol.Kind {
	case solve.KindSwitch:
		out.HyperSteps = len(sol.Seg.Starts)
		out.SegStarts = sol.Seg.Starts
		for _, h := range sol.Hypercontexts {
			out.Hypercontexts = append(out.Hypercontexts, refBits(h))
		}
	case solve.KindMTSwitch:
		out.HyperSteps = core.HyperCount(sol.MTSched)
		if mt != nil && sol.MTSched != nil {
			if err := mt.Validate(sol.MTSched); err != nil {
				t.Fatal(err)
			}
			doc := refSchedule{}
			for j, task := range mt.Tasks {
				hyper := make([]byte, mt.Steps())
				hctx := make([]string, mt.Steps())
				for i := range hyper {
					hyper[i] = '0'
					if sol.MTSched.Hyper[j][i] {
						hyper[i] = '1'
					}
					hctx[i] = refBits(sol.MTSched.Hctx[j][i])
				}
				doc.Tasks = append(doc.Tasks, refScheduleTask{Name: task.Name, Local: task.Local, V: int64(task.V), Hyper: string(hyper), Hctx: hctx})
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(doc); err != nil {
				t.Fatal(err)
			}
			out.Schedule = json.RawMessage(buf.Bytes())
		}
	}
	return out
}

// encodeReference is what json.NewEncoder(w).Encode writes for v.
func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectBody compares a served body with the reference bytes.
func expectBody(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: served body differs from the encoder's\n got %s\nwant %s", what, got, want)
	}
}

// renderSource is what one answer was rendered from.
type renderSource struct {
	sol *solve.Solution
	mt  *model.MTSwitchInstance
}

// renderSources maps every answer a recording server rendered
// (*WireSolution) to its renderSource.
var renderSources sync.Map

// recordRenders makes a server record what each answer it renders was
// rendered from, so the reference path can render it again.
func recordRenders(cfg Config) Config {
	cfg.rendered = func(sol *solve.Solution, mt *model.MTSwitchInstance, ws *WireSolution) {
		renderSources.Store(ws, renderSource{sol, mt})
	}
	return cfg
}

// sourceOf returns what a retained answer was rendered from.
func sourceOf(t *testing.T, ws *WireSolution) renderSource {
	t.Helper()
	src, ok := renderSources.Load(ws)
	if !ok {
		t.Fatal("answer was not rendered by a recording server")
	}
	return src.(renderSource)
}

// referenceResult replaces a retained result, if any, with the
// reference path's rendering of what it was rendered from.
func referenceResult(t *testing.T, ws **WireSolution) {
	t.Helper()
	if *ws != nil {
		src := sourceOf(t, *ws)
		*ws = referenceWireSolution(t, src.sol, src.mt)
	}
}

// jobReference is the encoder's body for a job's current status with
// the result rendered by the reference path.
func jobReference(t *testing.T, job *Job) []byte {
	t.Helper()
	st := job.Snapshot()
	referenceResult(t, &st.Result)
	return encodeReference(t, st)
}

// sessionReference is jobReference for a session status.
func sessionReference(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	sess, ok := s.Session(id)
	if !ok {
		t.Fatalf("no session %s", id)
	}
	st := sess.Status()
	referenceResult(t, &st.Result)
	return encodeReference(t, st)
}

// TestStatusBodiesMatchEncoder is the response differential: for every
// solver family the service answers, kind switch, a bundled app, a
// failed job, and session statuses with and without an error beside
// the result, the served body must equal json.NewEncoder(w).Encode of
// the status with its result rendered by the reference path.
func TestStatusBodiesMatchEncoder(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s, ts := newTestServer(t, recordRenders(Config{Workers: 1}))

	escaped := randomWire(21, []string{`a<b>&"c\d`, "line\u2028sep\u2029x", "tab\tnl\n\x01", "ünï"}, []int{5, 3, 70, 2}, 7)
	blocked, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 48, Switches: 16, MeanPhase: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := workload.Dense(workload.Config{Tasks: 3, Steps: 20, Switches: 9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// The synchronous endpoint's own body, then a poll of the same job.
	resp, raw := postJSON(t, ts.URL+"/v1/solve", &SolveRequest{Solver: "exact", Instance: escaped})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, raw)
	}
	var first JobStatus
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	job, ok := s.Job(first.ID)
	if !ok {
		t.Fatalf("no job %s", first.ID)
	}
	expectBody(t, "POST /v1/solve", raw, jobReference(t, job))

	cases := []struct {
		name string
		req  *SolveRequest
	}{
		{"exact", &SolveRequest{Solver: "exact", Instance: WireInstanceFrom(dense)}},
		{"exact-partitioned", &SolveRequest{Solver: "exact-partitioned", Instance: WireInstanceFrom(blocked)}},
		{"aligned", &SolveRequest{Solver: "aligned", Instance: escaped, Upload: "sequential"}},
		{"ga", &SolveRequest{Solver: "ga", Instance: WireInstanceFrom(dense), Options: WireOptions{Pop: 8, Generations: 3, Seed: 1}}},
		{"switch", &SolveRequest{Solver: "exact", Kind: "switch", Instance: randomWire(22, []string{"A", "B"}, []int{66, 9}, 12)}},
		{"app", &SolveRequest{Solver: "aligned", App: "counter"}},
	}
	for _, c := range cases {
		job, _, err := s.Submit(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		<-job.Done()
		if st := job.Snapshot(); st.State != string(JobDone) || st.Result == nil {
			t.Fatalf("%s: %+v", c.name, st)
		}
		_, body := getBody(t, ts.URL+"/v1/jobs/"+job.ID)
		expectBody(t, c.name, body, jobReference(t, job))
	}

	// A failed job: the error text needs escaping and there is no
	// result to splice.
	faultinject.Set("solve.run", faultinject.Action{Err: errors.New(`injected <"&"> failure`), Times: 1})
	failed, _, err := s.Submit(&SolveRequest{Solver: "aligned", Instance: WireInstanceFrom(dense), Upload: "sequential"})
	if err != nil {
		t.Fatal(err)
	}
	<-failed.Done()
	if st := failed.Snapshot(); st.State != string(JobFailed) || st.Error == "" {
		t.Fatalf("injected failure: %+v", st)
	}
	_, body := getBody(t, ts.URL+"/v1/jobs/"+failed.ID)
	expectBody(t, "failed job", body, jobReference(t, failed))

	// Session statuses: the opener's body, a poll, a long-poll, and a
	// status whose last batch failed, which carries the error after the
	// previous result.
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	resp, raw = postJSON(t, ts.URL+"/v1/sessions", sessionRequest(mt, "exact", 4))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %s", resp.StatusCode, raw)
	}
	var sst SessionStatus
	if err := json.Unmarshal(raw, &sst); err != nil {
		t.Fatal(err)
	}
	expectBody(t, "POST /v1/sessions", raw, sessionReference(t, s, sst.ID))
	_, raw = postJSON(t, ts.URL+"/v1/sessions/"+sst.ID+"/steps", &SessionSteps{Reqs: wi.Reqs[4:6]})
	expectBody(t, "POST steps", raw, sessionReference(t, s, sst.ID))
	faultinject.Set("service.session", faultinject.Action{Panic: true, Times: 1})
	sess, _ := s.Session(sst.ID)
	if _, err := sess.Steps(context.Background(), &SessionSteps{Reqs: wi.Reqs[6:7]}); err == nil {
		t.Fatal("injected session panic did not fail the batch")
	}
	_, raw = getBody(t, ts.URL+"/v1/sessions/"+sst.ID)
	var failedSess SessionStatus
	if err := json.Unmarshal(raw, &failedSess); err != nil {
		t.Fatal(err)
	}
	if failedSess.Error == "" || failedSess.Result == nil {
		t.Fatalf("failed batch status lacks error or result: %s", raw)
	}
	expectBody(t, "GET session after a failed batch", raw, sessionReference(t, s, sst.ID))
	_, raw = getBody(t, ts.URL+"/v1/sessions/"+sst.ID+"/schedule?generation=0&timeout_ms=1")
	expectBody(t, "GET schedule", raw, sessionReference(t, s, sst.ID))
}

// TestWireMemoOneRendering checks that the rendering a finished job or
// session retains is one buffer of the right size: the answer's final
// bytes with no spare capacity beyond 2%, WireSolution.Schedule a
// subslice of that same buffer, and the bytes the reference rendering
// of the solution, compacted.
func TestWireMemoOneRendering(t *testing.T) {
	s := New(recordRenders(Config{Workers: 1}))
	defer shutdown(t, s)
	phased, err := workload.Phased(workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	retained := map[string]*WireSolution{}
	for name, mt := range map[string]*model.MTSwitchInstance{"phased": phased, "blocked": blocked} {
		retained[name+" job"] = submitWait(t, s, &SolveRequest{Solver: "aligned", Instance: WireInstanceFrom(mt)}).Snapshot().Result
	}
	ctx := context.Background()
	sess, err := s.CreateSession(ctx, sessionRequest(phased, "exact", 24))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Steps(ctx, &SessionSteps{Reqs: WireInstanceFrom(phased).Reqs[24:]}); err != nil {
		t.Fatal(err)
	}
	retained["phased session"] = sess.Status().Result

	for name, ws := range retained {
		if ws == nil {
			t.Fatalf("%s: no answer retained", name)
		}
		raw := ws.raw
		if spare := cap(raw) - len(raw); spare*50 > len(raw) {
			t.Errorf("%s: rendering keeps %d spare bytes beyond its %d", name, spare, len(raw))
		}
		end := len(raw) - 1 // the schedule document closes just before the object does
		if len(ws.Schedule) == 0 || end < len(ws.Schedule) || &raw[end-len(ws.Schedule)] != &ws.Schedule[0] {
			t.Errorf("%s: Schedule does not share the rendered buffer", name)
		}
		src := sourceOf(t, ws)
		var want bytes.Buffer
		if err := json.Compact(&want, encodeReference(t, referenceWireSolution(t, src.sol, src.mt))); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Errorf("%s: rendered result differs from the reference\n got %s\nwant %s", name, raw, want.Bytes())
		}
	}
}

// TestEveryHolderServesTheReference checks every place a status is
// served from after the solve: a job whose cache line was evicted, a
// literal-repeat cache hit, a structural-twin canonical hit, a
// timed-out and a cancelled job, and a session after two batches.
// Each body must equal the reference body.
func TestEveryHolderServesTheReference(t *testing.T) {
	s, ts := newTestServer(t, recordRenders(Config{Workers: 1, CacheEntries: 2}))
	poll := func(what string, job *Job) {
		t.Helper()
		_, body := getBody(t, ts.URL+"/v1/jobs/"+job.ID)
		expectBody(t, what, body, jobReference(t, job))
	}

	original := submitWait(t, s, durableOriginal())
	repeat := submitWait(t, s, durableOriginal())
	if !repeat.CacheHit || doneResult(t, repeat) != doneResult(t, original) {
		t.Fatal("literal repeat does not serve the original's rendering")
	}
	poll("literal-repeat cache hit", repeat)
	twin := submitWait(t, s, durableTwin())
	if !twin.CacheHit {
		t.Fatal("structural twin missed the canonical store")
	}
	poll("structural-twin canonical hit", twin)

	// Three later solves push the original out of the two-line cache;
	// the job still serves the rendering it kept.
	for seed := int64(31); seed <= 33; seed++ {
		submitWait(t, s, &SolveRequest{Solver: "aligned", Instance: randomWire(seed, []string{"A", "B"}, []int{4, 3}, 6)})
	}
	if _, ok := s.cache.Get(original.Hash); ok {
		t.Fatal("the original's cache line survived three later solves")
	}
	poll("job after its cache line was evicted", original)

	// A timed-out job and a cancelled one carry an error and no result.
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	timed := tinyRequest("svc-test")
	timed.TimeoutMS = 20
	timedOut := submitWait(t, s, timed)
	if st := timedOut.Snapshot(); st.State != string(JobFailed) || st.Error == "" {
		t.Fatalf("timed-out job: %+v", st)
	}
	poll("timed-out job", timedOut)
	canceled, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(canceled.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, canceled)
	if st := canceled.Snapshot(); st.State != string(JobCanceled) || st.Error == "" {
		t.Fatalf("cancelled job: %+v", st)
	}
	poll("cancelled job", canceled)

	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)
	resp, raw := postJSON(t, ts.URL+"/v1/sessions", sessionRequest(mt, "exact", 4))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %s", resp.StatusCode, raw)
	}
	var sst SessionStatus
	if err := json.Unmarshal(raw, &sst); err != nil {
		t.Fatal(err)
	}
	for _, batch := range [][][]string{wi.Reqs[4:7], wi.Reqs[7:]} {
		if resp, raw := postJSON(t, ts.URL+"/v1/sessions/"+sst.ID+"/steps", &SessionSteps{Reqs: batch}); resp.StatusCode != http.StatusOK {
			t.Fatalf("steps: %d %s", resp.StatusCode, raw)
		}
	}
	_, raw = getBody(t, ts.URL+"/v1/sessions/"+sst.ID)
	expectBody(t, "session after two batches", raw, sessionReference(t, s, sst.ID))
}
