package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/solve"
)

// The svc-test solver delegates to a swappable function so each test
// controls blocking and counting.  Tests that set it must not run in
// parallel.
var testSolveFn atomic.Value // of func(ctx, inst, opts) (*solve.Solution, error)

func init() {
	solve.Register(solve.NewSolver("svc-test",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindSwitch, solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			fn := testSolveFn.Load().(func(context.Context, *solve.Instance, solve.Options) (*solve.Solution, error))
			return fn(ctx, inst, opts)
		}))
}

func setTestSolver(fn func(context.Context, *solve.Instance, solve.Options) (*solve.Solution, error)) {
	testSolveFn.Store(fn)
}

// tinyRequest is a minimal inline two-task instance.
func tinyRequest(solver string) *SolveRequest {
	return &SolveRequest{
		Solver: solver,
		Instance: &WireInstance{
			Tasks: []WireTask{{Name: "A", Local: 2, V: 2}, {Name: "B", Local: 1, V: 1}},
			Reqs:  [][]string{{"10", "1"}, {"01", "0"}, {"11", "1"}},
		},
	}
}

// doneResult returns a finished job's answer, failing the test unless
// the job finished done with one.
func doneResult(t testing.TB, j *Job) *WireSolution {
	t.Helper()
	st := j.Snapshot()
	if st.State != string(JobDone) || st.Error != "" || st.Result == nil {
		t.Fatalf("job %s: state %s, error %q, result %v", j.ID, st.State, st.Error, st.Result)
	}
	return st.Result
}

func waitDone(t testing.TB, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func shutdown(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestEndToEndMatchesDirectRun(t *testing.T) {
	// The served result must be byte-for-byte the direct solve.Run
	// outcome: same cost, same exactness.
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	req := &SolveRequest{Solver: "aligned", App: "counter"}
	job, deduped, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if deduped || job.CacheHit {
		t.Fatal("first submit should be a fresh job")
	}
	waitDone(t, job)
	sol := doneResult(t, job)

	res := mustResolve(t, req)
	direct, err := solve.Run(context.Background(), "aligned", res.inst, res.opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != int64(direct.Cost) || sol.Exact != direct.Exact {
		t.Fatalf("served cost=%d exact=%t, direct cost=%d exact=%t",
			sol.Cost, sol.Exact, direct.Cost, direct.Exact)
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	req := &SolveRequest{Solver: "aligned", App: "counter"}
	first, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)

	second, deduped, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("resubmit after completion should hit the cache, not dedup")
	}
	if !second.CacheHit {
		t.Fatal("resubmit was not a cache hit")
	}
	waitDone(t, second) // already closed
	if doneResult(t, first) != doneResult(t, second) {
		t.Fatal("cache hit did not serve the cached rendering")
	}
	if got := s.metrics.cacheHits.Load(); got != 1 {
		t.Fatalf("cacheHits = %d, want 1", got)
	}
	// An equivalent inline phrasing of the same instance also hits.
	third, _, err := s.Submit(&SolveRequest{Solver: "aligned", Instance: counterWire(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !third.CacheHit {
		t.Fatal("inline phrasing missed the cache")
	}
}

func TestSingleflightDedup(t *testing.T) {
	// N concurrent submissions of one instance must run the solver
	// exactly once; every submitter shares the one job.
	const n = 32
	var invocations atomic.Int64
	gate := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		invocations.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &solve.Solution{Cost: 42}, nil
	})

	s := New(Config{Workers: 4})
	defer shutdown(t, s)

	var wg sync.WaitGroup
	jobs := make([]*Job, n)
	dedups := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, deduped, err := s.Submit(tinyRequest("svc-test"))
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = job
			dedups[i] = deduped
		}(i)
	}
	wg.Wait()
	close(gate) // all submits issued before any solve may finish

	fresh := 0
	for i := 0; i < n; i++ {
		if jobs[i] == nil {
			t.Fatal("missing job")
		}
		if jobs[i] != jobs[0] {
			t.Fatalf("submit %d got a different job (%s vs %s)", i, jobs[i].ID, jobs[0].ID)
		}
		if !dedups[i] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Fatalf("%d fresh submissions, want exactly 1", fresh)
	}
	waitDone(t, jobs[0])
	if got := invocations.Load(); got != 1 {
		t.Fatalf("solver ran %d times, want exactly 1", got)
	}
	if got := s.metrics.dedupHits.Load(); got != n-1 {
		t.Fatalf("dedupHits = %d, want %d", got, n-1)
	}
	if got := s.metrics.cacheHits.Load(); got != 0 {
		t.Fatalf("cacheHits = %d, want 0 (job never finished before the last submit)", got)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		close(started)
		<-ctx.Done() // a solver hot loop parked on its checkpoint
		return nil, ctx.Err()
	})
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	job, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Snapshot(); st.State != string(JobCanceled) || st.Error != context.Canceled.Error() || st.Result != nil {
		t.Fatalf("state = %s, error %q, want canceled with %q", st.State, st.Error, context.Canceled)
	}
	if _, err := s.Cancel("job-does-not-exist"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("cancel of unknown job = %v, want ErrNoSuchJob", err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)
	defer close(gate)

	// Distinct instances so dedup does not absorb them: vary the seed
	// option (part of the content address).
	submit := func(seed int64) (*Job, error) {
		req := tinyRequest("svc-test")
		req.Options.Seed = seed
		job, _, err := s.Submit(req)
		return job, err
	}
	if _, err := submit(1); err != nil { // taken by the worker
		t.Fatal(err)
	}
	// Queue capacity 1: one more fits (timing-tolerant: the worker may
	// or may not have dequeued the first yet, so accept a reject on the
	// second and require it by the third).
	full := false
	for seed := int64(2); seed <= 3; seed++ {
		if _, err := submit(seed); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			full = true
		}
	}
	if !full {
		t.Fatal("queue never reported full")
	}
	if s.metrics.rejected.Load() == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

func TestGracefulShutdownDrainsAndCancels(t *testing.T) {
	running := make(chan struct{}, 1)
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		running <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := New(Config{Workers: 1, QueueDepth: 8})

	var jobs []*Job
	for seed := int64(1); seed <= 3; seed++ {
		req := tinyRequest("svc-test")
		req.Options.Seed = seed
		job, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	<-running // one in flight, two queued

	shutdown(t, s)
	for _, j := range jobs {
		waitDone(t, j)
		if st := j.Snapshot(); st.State != string(JobCanceled) {
			t.Fatalf("job %s state = %s after shutdown, want canceled", j.ID, st.State)
		}
	}
	if _, _, err := s.Submit(tinyRequest("svc-test")); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown = %v, want ErrShuttingDown", err)
	}
	// Shutdown is idempotent.
	shutdown(t, s)
}

func TestJobRetentionEvictsOldest(t *testing.T) {
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		return &solve.Solution{Cost: 1}, nil
	})
	s := New(Config{Workers: 1, retention: 2, CacheEntries: -1})
	defer shutdown(t, s)

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		req := tinyRequest("svc-test")
		req.Options.Seed = seed
		job, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		ids = append(ids, job.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest finished job should have been forgotten")
	}
	if _, ok := s.Job(ids[2]); !ok {
		t.Fatal("newest job should still be pollable")
	}
}

func TestSolveTimeoutFails(t *testing.T) {
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	s := New(Config{Workers: 1, MaxSolveTimeout: 20 * time.Millisecond})
	defer shutdown(t, s)

	job, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Snapshot(); st.State != string(JobFailed) || st.Error != context.DeadlineExceeded.Error() || st.Result != nil {
		t.Fatalf("timed-out job state = %s, error %q, want failed with %q", st.State, st.Error, context.DeadlineExceeded)
	}
}
