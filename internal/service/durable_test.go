package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
	"repro/internal/workload"
)

// Crash/recovery tests for the durable layer.  They crash servers with
// the in-process Abandon hook (no drain, no compaction, WAL
// abandoned mid-stream — the kill -9 shape); the out-of-process harness
// in internal/resilience/faultinject/crashharness sends real SIGKILLs.

// durableConfig is the base config of every durable test server.
func durableConfig(dir string) Config {
	return Config{Workers: 2, DataDir: dir}
}

func openDurable(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// waitReady polls the health document until recovery finishes.
func waitReady(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.Health().State == "ready" {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server stuck in state %q", s.Health().State)
}

// durableOriginal / durableTwin are a structural-twin pair (tasks
// swapped and renamed, columns relabeled): the twin exercises the
// canonical replay path, which renders a schedule deterministically
// from the stored canonical form — the byte-identity oracle below
// leans on that.
func durableOriginal() *SolveRequest {
	return &SolveRequest{
		Solver: "exact",
		Instance: &WireInstance{
			Tasks: []WireTask{{Name: "alpha", Local: 3, V: 2}, {Name: "beta", Local: 2, V: 1}},
			Reqs: [][]string{
				{"100", "10"},
				{"010", "11"},
				{"011", "01"},
				{"001", "00"},
			},
		},
	}
}

func durableTwin() *SolveRequest {
	return &SolveRequest{
		Solver: "exact",
		Instance: &WireInstance{
			Tasks: []WireTask{{Name: "south", Local: 2, V: 1}, {Name: "north", Local: 3, V: 2}},
			Reqs: [][]string{
				{"01", "001"},
				{"11", "010"},
				{"10", "110"},
				{"00", "100"},
			},
		},
	}
}

// submitWait submits and waits out one request, returning its job.
func submitWait(t *testing.T, s *Server, req *SolveRequest) *Job {
	t.Helper()
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	return job
}

// TestDurableWarmCacheByteIdentical crashes a node after a completed
// solve and checks the restarted node (a) answers the structural twin
// from the warm canonical store without running a solver and (b) emits
// a schedule byte-identical to an uninterrupted oracle node's.
func TestDurableWarmCacheByteIdentical(t *testing.T) {
	// Oracle: no data dir, no crash — the reference behaviour.
	oracle := New(Config{Workers: 2})
	defer shutdown(t, oracle)
	submitWait(t, oracle, durableOriginal())
	oracleTwin := submitWait(t, oracle, durableTwin())
	oracleStatus := oracleTwin.Snapshot()
	if oracleStatus.Result == nil || len(oracleStatus.Result.Schedule) == 0 {
		t.Fatal("oracle twin has no schedule")
	}

	dir := t.TempDir()
	a := openDurable(t, dir)
	submitWait(t, a, durableOriginal())
	a.Abandon()

	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)

	twin, _, err := b.Submit(durableTwin())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, twin)
	if !twin.CacheHit {
		t.Fatal("twin on the recovered node was not served from the warm canonical store")
	}
	if got := b.metrics.submitted.Load(); got != 0 {
		t.Fatalf("recovered node ran %d solves, want 0 (journaled completion must not re-solve)", got)
	}
	st := twin.Snapshot()
	if st.Result == nil {
		t.Fatal("recovered twin has no result")
	}
	if !bytes.Equal(st.Result.Schedule, oracleStatus.Result.Schedule) {
		t.Fatalf("recovered schedule differs from oracle:\n%s\nvs\n%s",
			st.Result.Schedule, oracleStatus.Result.Schedule)
	}
	if st.Result.Cost != oracleStatus.Result.Cost || st.Result.Exact != oracleStatus.Result.Exact {
		t.Fatalf("recovered cost=%d exact=%t, oracle cost=%d exact=%t",
			st.Result.Cost, st.Result.Exact, oracleStatus.Result.Cost, oracleStatus.Result.Exact)
	}
}

// durableBatch builds n distinct phased aligned solve requests, seeds
// cfg.Seed, cfg.Seed+101, ...
func durableBatch(tb testing.TB, cfg workload.Config, n int) []*SolveRequest {
	tb.Helper()
	reqs := make([]*SolveRequest, n)
	for i := range reqs {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		mt, err := workload.Phased(c)
		if err != nil {
			tb.Fatal(err)
		}
		reqs[i] = &SolveRequest{Solver: "aligned", Instance: WireInstanceFrom(mt)}
	}
	return reqs
}

// TestDurableRecoveryBatch crashes a node holding a batch of journaled
// completions and a live streaming session, then reopens the same
// directory.  Every literal resubmission must warm-hit with the
// pre-crash cost and schedule bytes and run no solver, and the session
// must revive and accept another batch.
func TestDurableRecoveryBatch(t *testing.T) {
	const jobs = 8
	reqs := durableBatch(t, workload.Config{Tasks: 3, Steps: 24, Switches: 8, Seed: 3}, jobs)
	dir := t.TempDir()
	a := openDurable(t, dir)
	want := make([]*JobStatus, jobs)
	for i, req := range reqs {
		want[i] = submitWait(t, a, req).Snapshot()
		if want[i].Result == nil {
			t.Fatalf("job %d: no result before the crash (state %s)", i, want[i].State)
		}
	}
	// An 8-step session (opener of 4, two batches of 2) on a 9-step
	// trace whose last step arrives after the crash.
	ctx := context.Background()
	mt, err := workload.Phased(workload.Config{Tasks: 3, Steps: 9, Switches: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wi := WireInstanceFrom(mt)
	sess, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range [][2]int{{4, 6}, {6, 8}} {
		if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[cut[0]:cut[1]]}); err != nil {
			t.Fatal(err)
		}
	}
	a.Abandon()

	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)
	for i, req := range reqs {
		job := submitWait(t, b, req)
		if !job.CacheHit {
			t.Errorf("job %d: resubmission after the crash missed the warm cache", i)
		}
		got := job.Snapshot()
		if got.Result == nil {
			t.Fatalf("job %d: no result after the crash (state %s)", i, got.State)
		}
		if got.Result.Cost != want[i].Result.Cost || !bytes.Equal(got.Result.Schedule, want[i].Result.Schedule) {
			t.Errorf("job %d: after the crash cost %d schedule %s, before it cost %d schedule %s",
				i, got.Result.Cost, got.Result.Schedule, want[i].Result.Cost, want[i].Result.Schedule)
		}
	}
	if got := b.metrics.submitted.Load(); got != 0 {
		t.Errorf("recovered node ran %d solves, want 0 (journaled completions must not re-solve)", got)
	}
	if got := b.metrics.recoverySessionsRevived.Load(); got != 1 {
		t.Fatalf("recoverySessionsRevived = %d, want 1", got)
	}
	revived, ok := b.Session(sess.ID)
	if !ok {
		t.Fatalf("session %s did not survive the crash", sess.ID)
	}
	if got := revived.Status().Steps; got != 8 {
		t.Fatalf("revived trace has %d steps, want 8", got)
	}
	st, err := revived.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[8:9]})
	if err != nil {
		t.Fatalf("revived session rejected a batch: %v", err)
	}
	if st.Steps != 9 {
		t.Fatalf("revived session has %d steps after another batch, want 9", st.Steps)
	}
}

// openBatchServer opens the server BenchmarkDurableSubmit and
// TestDurableWALCountersPerJob drive: in memory for mode "memory",
// else journaling to a fresh directory under that fsync policy.
func openBatchServer(tb testing.TB, mode string) *Server {
	tb.Helper()
	var cfg Config
	if mode != "memory" {
		fsync, err := durable.ParseFsyncPolicy(mode)
		if err != nil {
			tb.Fatal(err)
		}
		cfg.DataDir, cfg.Fsync = tb.TempDir(), fsync
	}
	s, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// driveBatch submits every request, then waits for all of them.
func driveBatch(tb testing.TB, s *Server, reqs []*SolveRequest) {
	tb.Helper()
	jobs := make([]*Job, len(reqs))
	for i, req := range reqs {
		job, _, err := s.Submit(req)
		if err != nil {
			tb.Fatal(err)
		}
		jobs[i] = job
	}
	for _, job := range jobs {
		waitDone(tb, job)
		doneResult(tb, job)
	}
}

// TestDurableWALCountersPerJob pins the counters behind
// BenchmarkDurableSubmit that do not depend on the host: every fsync
// policy appends two WAL records per solved job (its submission and its
// completion), and fsyncs each of them under always and none under
// never.
func TestDurableWALCountersPerJob(t *testing.T) {
	const jobs = 16
	reqs := durableBatch(t, workload.Config{Tasks: 3, Steps: 24, Switches: 8, Seed: 3}, jobs)
	for _, mode := range []string{"always", "interval", "never"} {
		s := openBatchServer(t, mode)
		driveBatch(t, s, reqs)
		st := s.dur.wal.Stats()
		shutdown(t, s)
		if st.Appends != 2*jobs {
			t.Errorf("%s: %d WAL appends for %d solved jobs, want %d", mode, st.Appends, jobs, 2*jobs)
		}
		switch mode {
		case "always":
			if st.Fsyncs != st.Appends {
				t.Errorf("always: %d fsyncs for %d appends, want one each", st.Fsyncs, st.Appends)
			}
		case "never":
			if st.Fsyncs != 0 {
				t.Errorf("never: %d fsyncs, want 0", st.Fsyncs)
			}
		}
	}
}

// BenchmarkDurableSubmit times one batch of 96 distinct aligned solves
// (phased 4×48, 16 switches) through the worker pool, in memory and
// journaled under each fsync policy: what the WAL costs on the solve
// path (E21).  Each op opens a fresh server on a fresh directory, so
// every job solves; opening and shutting down are not timed.
func BenchmarkDurableSubmit(b *testing.B) {
	reqs := durableBatch(b, workload.Config{Tasks: 4, Steps: 48, Switches: 16, Seed: 3}, 96)
	for _, mode := range []string{"memory", "always", "interval", "never"} {
		b.Run(mode, func(b *testing.B) {
			var appends, fsyncs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := openBatchServer(b, mode)
				b.StartTimer()
				driveBatch(b, s, reqs)
				b.StopTimer()
				if s.dur != nil {
					st := s.dur.wal.Stats()
					appends, fsyncs = appends+st.Appends, fsyncs+st.Fsyncs
				}
				shutdown(b, s)
				b.StartTimer()
			}
			b.ReportMetric(float64(appends)/float64(b.N), "wal_appends/op")
			b.ReportMetric(float64(fsyncs)/float64(b.N), "wal_fsyncs/op")
		})
	}
}

// TestDurableIncompleteJobRequeued crashes a node mid-solve and checks
// the restart re-enqueues the journaled-but-incomplete job and finishes
// it.
func TestDurableIncompleteJobRequeued(t *testing.T) {
	release := make(chan struct{})
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return &solve.Solution{Cost: 7}, nil
		}
	})
	dir := t.TempDir()
	a := openDurable(t, dir)
	job, _, err := a.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker pick it up so the crash lands mid-solve.
	deadline := time.Now().Add(5 * time.Second)
	for job.Snapshot().State != string(JobRunning) {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	a.Abandon()

	// After the restart the solver answers immediately, exactly once.
	var calls atomic.Int64
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		calls.Add(1)
		return &solve.Solution{Cost: 7}, nil
	})
	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)
	if got := b.metrics.recoveryJobsRequeued.Load(); got != 1 {
		t.Fatalf("recoveryJobsRequeued = %d, want 1", got)
	}
	// The same request now resolves against the re-enqueued job (dedup)
	// or its finished result (cache) — never a second solver run.
	redo := submitWait(t, b, tinyRequest("svc-test"))
	if sol := doneResult(t, redo); sol.Cost != 7 {
		t.Fatalf("recovered cost = %d, want 7", sol.Cost)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver ran %d times after restart, want 1", got)
	}
}

// TestDurableSessionRevival crashes a node holding a live streaming
// session and checks the restart rebuilds the session from its
// journaled step batches: same id, same trace length, same cost as the
// uninterrupted solve — and the session keeps accepting batches.
func TestDurableSessionRevival(t *testing.T) {
	ctx := context.Background()
	mt := sessionInstance(t)
	wi := WireInstanceFrom(mt)

	dir := t.TempDir()
	a := openDurable(t, dir)
	sess, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[4:7]})
	if err != nil {
		t.Fatal(err)
	}
	wantCost := st.Result.Cost
	a.Abandon()

	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)
	if got := b.metrics.recoverySessionsRevived.Load(); got != 1 {
		t.Fatalf("recoverySessionsRevived = %d, want 1", got)
	}
	revived, ok := b.Session(sess.ID)
	if !ok {
		t.Fatalf("session %s did not survive the crash", sess.ID)
	}
	got := revived.Status()
	if got.Steps != 7 {
		t.Fatalf("revived trace has %d steps, want 7", got.Steps)
	}
	if got.Result == nil || got.Result.Cost != wantCost {
		t.Fatalf("revived result %+v, want cost %d", got.Result, wantCost)
	}
	// The oracle for the continued session: a from-scratch solve of the
	// extended prefix.
	st2, err := revived.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[7:8]})
	if err != nil {
		t.Fatalf("revived session rejected a batch: %v", err)
	}
	direct := runExact(t, prefixInstance(t, mt, 8))
	if st2.Result.Cost != int64(direct.Cost) {
		t.Fatalf("continued cost %d, from-scratch %d", st2.Result.Cost, direct.Cost)
	}
}

// TestDurableSessionDeleteSurvives checks an explicitly deleted session
// stays deleted across a crash (the sessdel record wins over the
// opener).
func TestDurableSessionDeleteSurvives(t *testing.T) {
	ctx := context.Background()
	mt := sessionInstance(t)
	dir := t.TempDir()

	a := openDurable(t, dir)
	sess, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteSession(sess.ID); err != nil {
		t.Fatal(err)
	}
	a.Abandon()

	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)
	if _, ok := b.Session(sess.ID); ok {
		t.Fatalf("deleted session %s came back from the dead", sess.ID)
	}
}

// TestDurableRecoveringHealthState stalls session revival through the
// service.recover fault site and checks /v1/healthz reports
// "recovering" until replay finishes, then "ready".
func TestDurableRecoveringHealthState(t *testing.T) {
	ctx := context.Background()
	mt := sessionInstance(t)
	dir := t.TempDir()

	a := openDurable(t, dir)
	if _, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 3)); err != nil {
		t.Fatal(err)
	}
	a.Abandon()

	faultinject.Set("service.recover", faultinject.Action{Delay: 500 * time.Millisecond})
	defer faultinject.Reset()
	b := openDurable(t, dir)
	defer shutdown(t, b)
	if got := b.Health().State; got != "recovering" {
		t.Fatalf("state right after Open = %q, want recovering", got)
	}
	waitReady(t, b)
	if got := b.Health().State; got != "ready" {
		t.Fatalf("state after recovery = %q, want ready", got)
	}
}

// TestDurableGracefulShutdownSnapshot drains a node with live state and
// checks the next boot recovers it from the compacted snapshot: the
// completed solve answers warm from the snapshot's canonical entries
// and the session revives from its snapshotted trace.  The snapshot's
// entries are rewritten to carry the portfolio dispatch hint that
// older nodes wrote, which the replay must ignore.
func TestDurableGracefulShutdownSnapshot(t *testing.T) {
	ctx := context.Background()
	mt := sessionInstance(t)
	dir := t.TempDir()

	a := openDurable(t, dir)
	submitWait(t, a, durableOriginal())
	sess, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 4))
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, a)
	if n := addDispatchHints(t, dir); n < 1 {
		t.Fatalf("the drain snapshot holds %d entries, want >= 1", n)
	}

	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)
	if got := b.metrics.recoveryCacheWarmloaded.Load(); got < 1 {
		t.Fatalf("recoveryCacheWarmloaded = %d, want >= 1", got)
	}
	twin, _, err := b.Submit(durableTwin())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, twin)
	if !twin.CacheHit {
		t.Fatal("twin after graceful restart missed the warm canonical store")
	}
	if got := b.metrics.submitted.Load(); got != 0 {
		t.Fatalf("graceful restart re-ran %d solves, want 0", got)
	}
	revived, ok := b.Session(sess.ID)
	if !ok {
		t.Fatalf("session %s lost across graceful restart", sess.ID)
	}
	if got := revived.Status(); got.Steps != 4 {
		t.Fatalf("revived trace has %d steps, want 4", got.Steps)
	}
}

// addDispatchHints rewrites the WAL under a data dir so that every
// record's entry carries a dispatch_hint, as entries of portfolio races
// did on older nodes, and returns how many entries it rewrote.
func addDispatchHints(t *testing.T, dir string) int {
	t.Helper()
	wal, err := durable.OpenWAL(filepath.Join(dir, "wal"), durable.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	var recs [][]byte
	hinted := 0
	if err := wal.Replay(func(data []byte) error {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal(data, &rec); err != nil {
			return err
		}
		if raw, ok := rec["entry"]; ok {
			var entry map[string]json.RawMessage
			if err := json.Unmarshal(raw, &entry); err != nil {
				return err
			}
			entry["dispatch_hint"] = json.RawMessage(`{"bucket":"m2_n6_d1_b0","winner":"exact"}`)
			var err error
			if rec["entry"], err = json.Marshal(entry); err != nil {
				return err
			}
			hinted++
		}
		out, err := json.Marshal(rec)
		recs = append(recs, out)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Compact(func(app func([]byte) error) error {
		for _, rec := range recs {
			if err := app(rec); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return hinted
}

// phasedExact builds the distinct phased 2×16 exact solve request for
// one seed.
func phasedExact(tb testing.TB, seed int) *SolveRequest {
	tb.Helper()
	mt, err := workload.Phased(workload.Config{Tasks: 2, Steps: 16, Switches: 8, Seed: int64(seed)})
	if err != nil {
		tb.Fatal(err)
	}
	return &SolveRequest{Solver: "exact", Instance: WireInstanceFrom(mt)}
}

// dataDirBytes sums the file bytes under a data dir, which must hold
// nothing but the WAL.
func dataDirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	top, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].Name() != "wal" {
		names := make([]string, len(top))
		for i, e := range top {
			names[i] = e.Name()
		}
		t.Fatalf("data dir holds %v, want only wal", names)
	}
	var total int64
	if err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return total
}

// TestDurableGracefulRestartKeepsRecentEntries drains a node whose
// 4-entry canonical LRU has seen 40 distinct solves: the restart must
// come back with exactly the four most recently used entries, in LRU
// order, from a data dir that holds only the WAL and does not grow
// with the number of solves.
func TestDurableGracefulRestartKeepsRecentEntries(t *testing.T) {
	const capacity = 4
	dir := t.TempDir()
	cfg := Config{Workers: 2, DataDir: dir, CacheEntries: capacity, Fsync: durable.FsyncNever}
	seedOf := map[string]int{}
	// solveSeeds solves seeds from..to in turn and returns their
	// canonical keys in solve order.
	solveSeeds := func(s *Server, from, to int) []string {
		var keys []string
		for seed := from; seed <= to; seed++ {
			job := submitWait(t, s, phasedExact(t, seed))
			doneResult(t, job)
			if prev, dup := seedOf[job.canonKey]; dup {
				t.Fatalf("seeds %d and %d share a canonical key", prev, seed)
			}
			seedOf[job.canonKey] = seed
			keys = append(keys, job.canonKey)
		}
		return keys
	}
	// warmSeeds lists the LRU's seeds, least recently used first.
	warmSeeds := func(s *Server) []int {
		var seeds []int
		for _, le := range s.canon.lru.oldestFirst() {
			seeds = append(seeds, seedOf[le.key])
		}
		return seeds
	}

	a, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solveSeeds(a, 1, 40)
	want := warmSeeds(a)
	if !slices.Equal(want, []int{37, 38, 39, 40}) {
		t.Fatalf("LRU before shutdown holds seeds %v, want [37 38 39 40]", want)
	}
	shutdown(t, a)
	bytes40 := dataDirBytes(t, dir)

	b, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	waitReady(t, b)
	if got := warmSeeds(b); !slices.Equal(got, want) {
		t.Fatalf("graceful restart warmed seeds %v, want %v in LRU order", got, want)
	}
	if got := b.metrics.recoveryCacheWarmloaded.Load(); got != capacity {
		t.Fatalf("recoveryCacheWarmloaded = %d, want %d", got, capacity)
	}
	// One more distinct solve evicts the oldest of them.
	solveSeeds(b, 41, 41)
	if got := warmSeeds(b); !slices.Equal(got, []int{38, 39, 40, 41}) {
		t.Fatalf("after one more solve the LRU holds seeds %v, want [38 39 40 41]", got)
	}
	solveSeeds(b, 42, 400)
	shutdown(t, b)
	if bytes400 := dataDirBytes(t, dir); bytes400 > 2*bytes40 {
		t.Fatalf("data dir grew from %d bytes after 40 solves to %d after 400", bytes40, bytes400)
	}
}

// TestDurableFailedSessionOpenerJournalsNothing fails a session's
// opening solve on a durable node: the session is torn down, and the
// WAL, which never held its opener, takes no record for it.
func TestDurableFailedSessionOpenerJournalsNothing(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	s := openDurable(t, t.TempDir())
	defer shutdown(t, s)
	waitReady(t, s)
	faultinject.Set("service.session", faultinject.Action{Err: faultinject.ErrInjected})
	if _, err := s.CreateSession(context.Background(), sessionRequest(sessionInstance(t), "exact", 3)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("CreateSession = %v, want the injected error", err)
	}
	if st := s.dur.wal.Stats(); st.Appends != 0 || st.Fsyncs != 0 {
		t.Fatalf("failed opener cost %d WAL appends and %d fsyncs, want 0", st.Appends, st.Fsyncs)
	}
	if active, _ := s.sessions.gauges(); active != 0 {
		t.Fatalf("%d sessions left after a failed opener, want 0", active)
	}
}

// TestDurableRestartResumesIncrementally drains a node holding a
// stream-durable session (2×100 phased, 20 opening rows, 3-row
// batches) and checks the engine the restart rebuilds from the trace
// keeps per-step frames: the next batch resumes past step 0 and still
// matches a from-scratch exact solve of the grown trace.  Task B's v
// is raised by 1, so the session steps the frontier DP; with the v
// both tasks share, every batch re-solves the whole trace with the
// aligned DP and keeps no frames.
func TestDurableRestartResumesIncrementally(t *testing.T) {
	ctx := context.Background()
	phased, err := workload.Phased(workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wi := WireInstanceFrom(phased)
	wi.Tasks[1].V++
	mt, err := wi.toModel()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	a := openDurable(t, dir)
	sess, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 20))
	if err != nil {
		t.Fatal(err)
	}
	n := 20
	for ; n < 29; n += 3 {
		if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[n : n+3]}); err != nil {
			t.Fatal(err)
		}
	}
	shutdown(t, a)

	b := openDurable(t, dir)
	defer shutdown(t, b)
	waitReady(t, b)
	revived, ok := b.Session(sess.ID)
	if !ok {
		t.Fatalf("session %s lost across graceful restart", sess.ID)
	}
	st, err := revived.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[n : n+3]})
	if err != nil {
		t.Fatal(err)
	}
	n += 3
	if st.ResolvedFrom <= 0 {
		t.Fatalf("first batch after the restart re-solved from step %d of %d", st.ResolvedFrom, st.Steps)
	}
	grown := prefixInstance(t, mt, n)
	want, err := wireSolution(runExact(t, grown), grown)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result == nil || st.Result.Cost != want.Cost || string(st.Result.Schedule) != string(want.Schedule) {
		t.Fatalf("after the restart: session result %+v, from-scratch %+v", st.Result, want)
	}
}

// TestDurableDoubleRestart replays the same journal twice (crash, boot,
// crash again untouched, boot again) and checks replay is idempotent:
// the second recovery sees the same world and still refuses to
// re-solve journaled completions.
func TestDurableDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	a := openDurable(t, dir)
	submitWait(t, a, durableOriginal())
	a.Abandon()

	b := openDurable(t, dir)
	waitReady(t, b)
	b.Abandon()

	c := openDurable(t, dir)
	defer shutdown(t, c)
	waitReady(t, c)
	twin := submitWait(t, c, durableTwin())
	if !twin.CacheHit {
		t.Fatal("second recovery lost the journaled completion")
	}
	if got := c.metrics.submitted.Load(); got != 0 {
		t.Fatalf("second recovery ran %d solves, want 0", got)
	}
}

// TestDurableJournalFaultDegradesGracefully injects journal-append
// failures and checks the service itself is unaffected: solves still
// complete, sessions still step — durability is lost, not liveness.
func TestDurableJournalFaultDegradesGracefully(t *testing.T) {
	faultinject.Set("service.journal", faultinject.Action{Err: faultinject.ErrInjected})
	defer faultinject.Reset()

	dir := t.TempDir()
	a := openDurable(t, dir)
	defer shutdown(t, a)
	doneResult(t, submitWait(t, a, durableOriginal())) // solves under journal faults
	ctx := context.Background()
	mt := sessionInstance(t)
	sess, err := a.CreateSession(ctx, sessionRequest(mt, "exact", 3))
	if err != nil {
		t.Fatal(err)
	}
	wi := WireInstanceFrom(mt)
	if _, err := sess.Steps(ctx, &SessionSteps{Reqs: wi.Reqs[3:4]}); err != nil {
		t.Fatalf("session step under journal faults failed: %v", err)
	}
}

// fillerFunc adapts a func to the PeerFiller interface.
type fillerFunc func(string) (*PeerEntry, bool)

func (f fillerFunc) Fill(key string) (*PeerEntry, bool) { return f(key) }

// TestDurableRecoveryPeerGapFill crashes a node with a journaled but
// unsolved submission whose answer a cluster sibling already holds, and
// checks the restarted node fills the gap from the peer during replay
// instead of re-solving.
func TestDurableRecoveryPeerGapFill(t *testing.T) {
	// The sibling solved the instance while this node was down.
	peer := New(Config{Workers: 1})
	defer shutdown(t, peer)
	peerSol := doneResult(t, submitWait(t, peer, durableOriginal()))

	// This node journals the same submission queued behind a stuck job,
	// then dies.
	stall := make(chan struct{})
	defer close(stall)
	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-stall:
			return &solve.Solution{Cost: 3}, nil
		}
	})
	dir := t.TempDir()
	a, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blocker, _, err := a.Submit(tinyRequest("svc-test"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for blocker.Snapshot().State != string(JobRunning) {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := a.Submit(durableOriginal()); err != nil {
		t.Fatal(err)
	}
	a.Abandon()

	setTestSolver(func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
		return &solve.Solution{Cost: 3}, nil
	})
	b, err := Open(Config{Workers: 1, DataDir: dir, PeerFill: fillerFunc(func(key string) (*PeerEntry, bool) {
		return peer.PeerLookup(key, 0, nil)
	})})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, b)
	waitReady(t, b)
	if got := b.metrics.recoveryJobsRequeued.Load(); got != 2 {
		t.Fatalf("recoveryJobsRequeued = %d, want 2", got)
	}
	if got := b.metrics.peerFillHits.Load(); got != 1 {
		t.Fatalf("peerFillHits = %d, want 1 (the exact job must fill from the peer)", got)
	}
	redo := submitWait(t, b, durableOriginal())
	if sol := doneResult(t, redo); sol.Cost != peerSol.Cost {
		t.Fatalf("gap-filled cost %d, peer solved %d", sol.Cost, peerSol.Cost)
	}
	// Only the stuck svc-test job actually solved here; the exact job
	// rode the peer's entry.
	if got := b.metrics.submitted.Load(); got != 1 {
		t.Fatalf("recovered node enqueued %d solves, want 1", got)
	}
}

// TestDurableMetricsRendered checks the WAL and recovery series appear
// on /metrics for a durable node.
func TestDurableMetricsRendered(t *testing.T) {
	dir := t.TempDir()
	a := openDurable(t, dir)
	defer shutdown(t, a)
	submitWait(t, a, durableOriginal())

	var buf bytes.Buffer
	a.metrics.render(&buf, a.gauges())
	out := buf.String()
	for _, name := range []string{
		"hyperd_wal_appends_total",
		"hyperd_wal_fsyncs_total",
		"hyperd_wal_replayed_records_total",
		"hyperd_wal_flush_seconds_sum",
		"hyperd_recovery_jobs_requeued",
		"hyperd_recovery_sessions_revived",
		"hyperd_recovery_cache_warmloaded",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("metrics output missing %s:\n%s", name, out)
		}
	}
}
