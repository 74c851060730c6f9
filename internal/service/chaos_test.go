package service

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
)

// bigWire builds a pseudorandom 3-task instance whose exact frontier
// comfortably exceeds a few hundred bytes, so tiny MaxFrontierBytes
// budgets reliably degrade it.
func bigWire() *WireInstance {
	r := rand.New(rand.NewSource(99))
	const tasks, local, steps = 3, 8, 12
	wi := &WireInstance{}
	for j := 0; j < tasks; j++ {
		wi.Tasks = append(wi.Tasks, WireTask{Name: string(rune('A' + j)), Local: local, V: 4})
	}
	for i := 0; i < steps; i++ {
		row := make([]string, tasks)
		for j := 0; j < tasks; j++ {
			var b strings.Builder
			for k := 0; k < local; k++ {
				if r.Intn(3) == 0 {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			row[j] = b.String()
		}
		wi.Reqs = append(wi.Reqs, row)
	}
	return wi
}

// frontierWire is bigWire with task C's v raised by 1.  bigWire's tasks
// share one v, so under task-parallel hyper uploads the exact solver
// answers it with the aligned DP, which no frontier budget reaches;
// frontierWire's exact solve runs the frontier DP, which a budget can
// degrade.
func frontierWire() *WireInstance {
	wi := bigWire()
	wi.Tasks[len(wi.Tasks)-1].V++
	return wi
}

// requireExactUnderBudget submits req and requires an exact,
// undegraded answer: what a shared-v instance gets under any frontier
// budget.
func requireExactUnderBudget(t *testing.T, s *Server, req *SolveRequest) {
	t.Helper()
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if sol := doneResult(t, job); sol.Stats.Degraded || sol.Stats.Truncated || !sol.Exact {
		t.Fatalf("shared-v instance under a frontier budget: degraded=%t truncated=%t exact=%t, want an exact answer",
			sol.Stats.Degraded, sol.Stats.Truncated, sol.Exact)
	}
}

func TestWorkerPanicRetriedTransparently(t *testing.T) {
	var calls atomic.Int64
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		if calls.Add(1) == 1 {
			panic("first run dies")
		}
		return &solve.Solution{Cost: 5}, nil
	})
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	job, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if sol := doneResult(t, job); sol.Cost != 5 {
		t.Fatalf("cost = %d, want 5", sol.Cost)
	}
	st := job.Snapshot()
	if st.State != string(JobDone) || !st.Retried {
		t.Fatalf("state=%s retried=%t, want done/true", st.State, st.Retried)
	}
	if got := s.metrics.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1", got)
	}
	s.metrics.mu.Lock()
	panics := s.metrics.panics["svc-test"]
	s.metrics.mu.Unlock()
	if panics != 1 {
		t.Fatalf("panics = %d, want 1", panics)
	}
}

func TestWorkerPanicTwiceFailsWithTypedError(t *testing.T) {
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		panic("always dies")
	})
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	job, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	want := (&solve.PanicError{Value: "always dies"}).Error()
	if st := job.Snapshot(); st.State != string(JobFailed) || st.Error != want {
		t.Fatalf("failed job: state %s, error %q, want failed with %q", st.State, st.Error, want)
	}
	if got := s.metrics.retries.Load(); got != 1 {
		t.Fatalf("retries = %d, want 1 (one-shot)", got)
	}
	s.metrics.mu.Lock()
	panics := s.metrics.panics["svc-test"]
	s.metrics.mu.Unlock()
	if panics != 2 {
		t.Fatalf("panics = %d, want 2", panics)
	}

	// The worker survived both panics: the server still serves.
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		return &solve.Solution{Cost: 9}, nil
	})
	req := tinyRequest("svc-test")
	req.Options.Seed = 77
	next, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, next)
	if sol := doneResult(t, next); sol.Cost != 9 {
		t.Fatalf("post-panic solve: %+v", sol)
	}
}

func TestBreakerTripsFailsFastAndRecovers(t *testing.T) {
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		panic("unhealthy")
	})
	var clkMu sync.Mutex
	now := time.Unix(5000, 0)
	cfg := Config{Workers: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute}
	cfg.breakerNow = func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		return now
	}
	s := New(cfg)
	defer shutdown(t, s)

	// One job = two panics (the run and its one-shot retry), which
	// meets the threshold and opens the breaker.
	job, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := s.gauges().breakerStates["svc-test"]; st != resilience.BreakerOpen {
		t.Fatalf("breaker state = %v, want open", st)
	}

	// Open breaker: fail fast with a typed, Retry-After-carrying error.
	req := tinyRequest("svc-test")
	req.Options.Seed = 2
	_, _, err = s.Submit(req)
	var unavailable *SolverUnavailableError
	if !errors.As(err, &unavailable) {
		t.Fatalf("submit under open breaker = %v, want *SolverUnavailableError", err)
	}
	if unavailable.Solver != "svc-test" || unavailable.RetryAfter <= 0 {
		t.Fatalf("unexpected unavailable error: %+v", unavailable)
	}
	if s.metrics.breakerRejected.Load() == 0 {
		t.Fatal("breakerRejected not counted")
	}

	// Cooldown elapses and the solver heals: the next submit is the
	// half-open probe, its success closes the breaker.
	clkMu.Lock()
	now = now.Add(2 * time.Minute)
	clkMu.Unlock()
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		return &solve.Solution{Cost: 3}, nil
	})
	req = tinyRequest("svc-test")
	req.Options.Seed = 3
	probe, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("probe submit refused: %v", err)
	}
	waitDone(t, probe)
	if sol := doneResult(t, probe); sol.Cost != 3 {
		t.Fatalf("probe: %+v", sol)
	}
	if st := s.gauges().breakerStates["svc-test"]; st != resilience.BreakerClosed {
		t.Fatalf("breaker state after probe = %v, want closed", st)
	}
	req = tinyRequest("svc-test")
	req.Options.Seed = 4
	after, _, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit after recovery refused: %v", err)
	}
	waitDone(t, after)
}

// TestQueuedCancelFreesSlot is the regression test for queue-slot
// leakage: cancelling a job that is still queued (not running) must
// finish it canceled immediately and free its slot for new submits,
// reflected in the queue-depth gauge.
func TestQueuedCancelFreesSlot(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return &solve.Solution{Cost: 1}, nil
	})
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)
	defer close(gate)

	submit := func(seed int64) (*Job, error) {
		req := tinyRequest("svc-test")
		req.Options.Seed = seed
		job, _, err := s.Submit(req)
		return job, err
	}
	running, err := submit(1)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the only worker is now busy

	queued, err := submit(2)
	if err != nil {
		t.Fatal(err)
	}
	if g := s.gauges(); g.queueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", g.queueDepth)
	}
	if _, err := submit(3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit = %v, want ErrQueueFull", err)
	}

	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	// Cancel of a queued job is synchronous: terminal on return, with
	// the slot already free — no worker involvement (the worker is
	// still parked on the gate).
	select {
	case <-queued.Done():
	default:
		t.Fatal("canceled queued job not terminal on Cancel return")
	}
	if st := queued.Snapshot(); st.State != string(JobCanceled) {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if g := s.gauges(); g.queueDepth != 0 {
		t.Fatalf("queue depth after cancel = %d, want 0", g.queueDepth)
	}
	refill, err := submit(4)
	if err != nil {
		t.Fatalf("freed slot refused a submit: %v", err)
	}
	_ = running
	_ = refill
}

func TestFaultInjectionWorkerSite(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Set("service.worker", faultinject.Action{Panic: true, Times: 1})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		return &solve.Solution{Cost: 7}, nil
	})
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	job, _, err := s.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if sol := doneResult(t, job); sol.Cost != 7 {
		t.Fatalf("injected worker panic not retried away: %+v", sol)
	}
	if got := faultinject.Fired("service.worker"); got != 1 {
		t.Fatalf("site fired %d times, want 1", got)
	}
	if !job.Snapshot().Retried {
		t.Fatal("job not marked retried")
	}
}

func TestInjectedBudgetDegradesAndSkipsCache(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Set("solve.options", faultinject.Action{MaxFrontierBytes: 256})
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	requireExactUnderBudget(t, s, &SolveRequest{Solver: "exact", Instance: bigWire()})
	req := &SolveRequest{Solver: "exact", Instance: frontierWire()}
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	sol := doneResult(t, job)
	if !sol.Stats.Degraded || !sol.Stats.Truncated {
		t.Fatalf("injected 256-byte budget did not degrade: %+v", sol.Stats)
	}
	if sol.Exact {
		t.Fatal("degraded result claims exactness")
	}
	if s.metrics.degraded.Load() != 1 {
		t.Fatal("degraded jobs not counted")
	}

	// The degradation came from below the hash layer: the result must
	// not be cached under the unbudgeted key.  With the fault cleared,
	// the same request solves fresh and exactly.
	faultinject.Reset()
	again, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if again.CacheHit {
		t.Fatal("injected-budget degraded result was cached as the unbudgeted answer")
	}
	waitDone(t, again)
	fresh := doneResult(t, again)
	if fresh.Stats.Degraded {
		t.Fatal("fresh run still degraded after fault cleared")
	}
	if fresh.Cost > sol.Cost {
		t.Fatalf("exact cost %d worse than degraded %d", fresh.Cost, sol.Cost)
	}
}

func TestClientBudgetDegradedResultCached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	shared := &SolveRequest{Solver: "exact", Instance: bigWire()}
	shared.Options.MaxFrontierBytes = 256
	requireExactUnderBudget(t, s, shared)
	req := &SolveRequest{Solver: "exact", Instance: frontierWire()}
	req.Options.MaxFrontierBytes = 256
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	sol := doneResult(t, job)
	if !sol.Stats.Degraded || sol.Exact {
		t.Fatalf("client 256-byte budget: degraded=%t exact=%t, want true/false", sol.Stats.Degraded, sol.Exact)
	}
	// The budget is part of the content address, so the degraded result
	// is safely cacheable under its own key — and stays flagged.
	hit, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("budgeted resubmit missed the cache")
	}
	if cached := doneResult(t, hit); !cached.Stats.Degraded || cached.Exact {
		t.Fatal("cache returned a degraded result without its degraded flag")
	}
}

func TestServerBudgetClampDegrades(t *testing.T) {
	s := New(Config{Workers: 1, MaxFrontierBytes: 256})
	defer shutdown(t, s)

	requireExactUnderBudget(t, s, &SolveRequest{Solver: "exact", Instance: bigWire()})
	job, _, err := s.Submit(&SolveRequest{Solver: "exact", Instance: frontierWire()})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if sol := doneResult(t, job); !sol.Stats.Degraded {
		t.Fatalf("server-side budget clamp not applied: %+v", sol.Stats)
	}
}

func TestShutdownDrainsUnderInjectedSlowness(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	faultinject.Set("solve.run", faultinject.Action{Delay: 30 * time.Millisecond})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		return &solve.Solution{Cost: 1}, nil
	})
	s := New(Config{Workers: 2, QueueDepth: 16})

	var jobs []*Job
	for seed := int64(1); seed <= 6; seed++ {
		req := tinyRequest("svc-test")
		req.Options.Seed = seed
		job, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	shutdown(t, s)
	for _, j := range jobs {
		st := j.Snapshot()
		if !JobState(st.State).Terminal() {
			t.Fatalf("job %s not terminal after drain: %s", j.ID, st.State)
		}
	}
}
