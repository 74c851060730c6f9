package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
)

// Config tunes a Server.  The zero value selects sensible defaults.
type Config struct {
	// Workers is the solve pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job queue; submits beyond it are rejected
	// with ErrQueueFull (default 256).
	QueueDepth int
	// CacheEntries bounds the result LRU and the canonical store, and
	// so the canonical entries a drain snapshot carries (default 1024;
	// negative disables both).
	CacheEntries int
	// MaxSolveTimeout clamps every job's solve deadline; jobs that
	// request no timeout get exactly this one.  0 means no server-side
	// deadline.
	MaxSolveTimeout time.Duration
	// MaxFrontierBytes clamps every job's solve memory budget
	// (Options.MaxFrontierBytes); jobs that request no budget, or a
	// larger one, get exactly this one.  Budget exhaustion degrades the
	// exact solver to a beam search instead of exhausting server
	// memory.  0 means no server-side budget.
	MaxFrontierBytes int64
	// BreakerThreshold is how many consecutive panics or timeouts of
	// one solver trip its circuit breaker (default 5; negative disables
	// the breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fails fast before
	// admitting a half-open probe (default 10s).
	BreakerCooldown time.Duration
	// MaxSessions bounds the concurrent streaming sessions; creates
	// beyond it are rejected with ErrSessionLimit (default 64).
	MaxSessions int
	// SessionBytes budgets the total frontier memory of live session
	// engines; beyond it the least recently used engines are closed,
	// to be rebuilt from their traces on the next batch (default
	// 64 MiB; negative disables eviction).
	SessionBytes int64

	// DataDir, when set, enables durable state: job submissions,
	// completions (with their canonical entries) and session step
	// batches journal to a write-ahead log under it, the log's compacted
	// snapshot carries the canonical cache, and Open replays everything
	// on the next boot (see durable.go).  Empty runs fully in-memory.
	DataDir string
	// Fsync is the WAL flush policy (FsyncAlways by default; see
	// durable.ParseFsyncPolicy for the flag form).
	Fsync durable.FsyncPolicy
	// FsyncInterval is the background flush period under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// WALSegmentBytes is the journal segment rotation size (default
	// 8 MiB).
	WALSegmentBytes int64

	// NodeID names this node in /v1/healthz and cluster membership
	// (default "hyperd").
	NodeID string
	// PeerFill, when set, is consulted on a canonical-cache miss before
	// a solve is enqueued: a hit replays a sibling node's canonical
	// entry instead of solving (see internal/cluster).
	PeerFill PeerFiller
	// ClusterStatus, when set, supplies the ring membership view
	// surfaced in /v1/healthz.
	ClusterStatus func() *RingStatus

	// breakerNow injects the breaker clock (tests only).
	breakerNow func() time.Time
	// retention overrides jobRetention (tests only).
	retention int
	// rendered observes every answer rendered, with what it was
	// rendered from (tests only).
	rendered func(sol *solve.Solution, mt *model.MTSwitchInstance, ws *WireSolution)
}

// jobRetention bounds how many finished jobs stay pollable; the oldest
// finished jobs are forgotten beyond it.
const jobRetention = 4096

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.retention <= 0 {
		c.retention = jobRetention
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SessionBytes == 0 {
		c.SessionBytes = 64 << 20
	}
	if c.NodeID == "" {
		c.NodeID = "hyperd"
	}
	return c
}

// JobState is the lifecycle state of a job.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one submitted solve.  Identical in-flight submissions share
// one Job (singleflight), so a cancel from any submitter cancels it
// for all of them.  A finished job keeps only what its status reads:
// the rendered answer or the error text; the instance, options and
// solution go at completion.
type Job struct {
	// ID is the server-assigned job identifier.
	ID string
	// Hash is the request's content address.
	Hash string
	// Solver is the registry name the job runs.
	Solver string
	// CacheHit reports the job was born terminal from the result
	// cache.
	CacheHit bool

	inst *solve.Instance
	mt   *model.MTSwitchInstance
	opts solve.Options

	// canonKey/canonPerm address the canonical result store for
	// mtswitch jobs (empty/nil for other kinds): the structural hash of
	// the instance and the task permutation mapping canonical positions
	// back to this request's task order.
	canonKey  string
	canonPerm []int

	// reqJSON retains the original request of a journaled job until it
	// finishes, so WAL compaction can rewrite it into the snapshot (nil
	// without a data dir; doubles as the "this job is journaled"
	// marker).
	reqJSON []byte

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     JobState
	canceled  bool // cancel requested (may still be queued)
	retried   bool // the one-shot panic retry has been spent
	ws        *WireSolution
	errText   string
	submitted time.Time
	started   time.Time
	finished  time.Time

	// done closes when the job reaches a terminal state.
	done chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns the job's current wire status.  A result that
// failed to render surfaces in the Error field.
func (j *Job) Snapshot() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:          j.ID,
		State:       string(j.state),
		Solver:      j.Solver,
		Hash:        j.Hash,
		CacheHit:    j.CacheHit,
		Retried:     j.retried,
		SubmittedAt: j.submitted,
		Result:      j.ws,
		Error:       j.errText,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

var (
	// ErrQueueFull rejects a submit when the bounded queue is at
	// capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown rejects submits during graceful shutdown.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrNoSuchJob reports an unknown (or already forgotten) job id.
	ErrNoSuchJob = errors.New("service: no such job")
)

// SolverUnavailableError rejects a submit whose solver's circuit
// breaker is open: recent runs panicked or timed out consecutively, so
// the server fails fast instead of queueing more work for it.
type SolverUnavailableError struct {
	Solver string
	// RetryAfter is how long until the breaker next admits a probe.
	RetryAfter time.Duration
}

func (e *SolverUnavailableError) Error() string {
	return fmt.Sprintf("service: solver %q unavailable (circuit open, retry in %s)", e.Solver, e.RetryAfter)
}

// Server is the embeddable solve service: a bounded job queue, a
// worker pool, the content-addressed result cache, per-solver circuit
// breakers and the metrics registry.  Create with New, serve with
// Handler, stop with Shutdown.
type Server struct {
	cfg      Config
	metrics  *metrics
	cache    *resultCache
	canon    *canonicalCache
	sessions *sessionStore
	dur      *durableState // nil without Config.DataDir

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu            sync.Mutex
	cond          *sync.Cond // signals queue pushes and shutdown
	closed        bool
	state         string // lifecycle: recovering | ready | draining
	seq           int64
	jobs          map[string]*Job
	inflight      map[string]*Job // hash → queued/running job
	canonInflight map[string]*Job // canonical key → queued/running job (peer singleflight joins wait on it)
	finishedOrder []string        // finished job ids, oldest first
	breakers      map[string]*resilience.Breaker

	// queue is an explicit slice (not a channel) so Cancel can remove a
	// queued job and free its slot immediately instead of letting a
	// worker drain the tombstone later.
	queue []*Job
	wg    sync.WaitGroup
}

// New starts a server and its worker pool.  With Config.DataDir set,
// use Open instead — New panics if the data directory cannot be
// opened.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("service.New: %v", err))
	}
	return s
}

// Open starts a server and its worker pool; with Config.DataDir set it
// also opens the durable layer and recovers journaled state — see
// durable.go for the recovery sequence.  The only error source is the
// data directory (New without one cannot fail).
func Open(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:           cfg,
		metrics:       newMetrics(),
		cache:         newResultCache(cfg.CacheEntries),
		canon:         newCanonicalCache(cfg.CacheEntries),
		sessions:      newSessionStore(cfg.MaxSessions, cfg.SessionBytes),
		baseCtx:       ctx,
		baseCancel:    cancel,
		state:         "ready",
		jobs:          map[string]*Job{},
		inflight:      map[string]*Job{},
		canonInflight: map[string]*Job{},
		breakers:      map[string]*resilience.Breaker{},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.DataDir != "" {
		if err := s.openDurable(); err != nil {
			cancel()
			return nil, err
		}
		s.state = "recovering"
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if s.dur != nil {
		s.recoverDurable()
	}
	return s, nil
}

// Submit resolves, deduplicates and enqueues a request.  The returned
// job may already be terminal (cache hit) or shared with earlier
// identical submissions (deduped=true).  Resolution failures are
// client errors; ErrQueueFull, ErrShuttingDown and
// *SolverUnavailableError are server-state errors.
func (s *Server) Submit(req *SolveRequest) (job *Job, deduped bool, err error) {
	res, err := req.resolve()
	if err != nil {
		return nil, false, err
	}
	opts := s.limits().clamp(res.opts)
	key, err := requestKey(res.inst, res.solver, opts)
	if err != nil {
		return nil, false, err
	}

	// Canonical store lookup (mtswitch only), prepared outside the lock:
	// the structural hash and — on a hit — the stored mask replayed onto
	// this request's own instance and rendered.  Served only when the
	// exact cache misses below, so a literal repeat skips the replay.
	var (
		canonKey  string
		canonPerm []int
		canonSol  *solve.Solution
		canonWS   *WireSolution
		canonErr  error
	)
	if res.inst.Kind() == solve.KindMTSwitch && res.mt != nil {
		canonKey, canonPerm = canonicalMTKey(res.mt, res.inst.Cost, res.solver, opts)
	}
	_, cached := s.cache.Get(key)
	if canonKey != "" && !cached {
		if entry, ok := s.canon.Get(canonKey); ok {
			if sol, ok := entry.reconstruct(res.mt, res.inst.Cost, canonPerm); ok {
				canonSol = sol
			}
		}
		// Peer cache fill: before solving a canonical miss, ask the
		// ring-adjacent sibling nodes (cluster mode only).  The sibling
		// either holds the entry, is solving it right now (the fill waits
		// on that in-flight solve — cross-node singleflight), or misses.
		// Replayed entries are cost-checked against this instance, so a
		// bad peer answer degrades to a miss.
		if canonSol == nil && s.cfg.PeerFill != nil {
			if pe, ok := s.cfg.PeerFill.Fill(canonKey); ok {
				entry := pe.entry()
				if sol, ok := entry.reconstruct(res.mt, res.inst.Cost, canonPerm); ok {
					canonSol = sol
					s.canon.Put(canonKey, entry)
					s.metrics.peerFillHits.Add(1)
				} else {
					s.metrics.peerFillBad.Add(1)
				}
			} else {
				s.metrics.peerFillMisses.Add(1)
			}
		}
		if canonSol != nil {
			canonWS, canonErr = s.render(canonSol, res.mt)
		}
	}

	// The original request body, retained for journaling, is prepared
	// outside the lock, and only when no cache level answers: a cache or
	// canonical hit never reaches the journal.
	var reqJSON []byte
	if s.dur != nil && !cached && canonSol == nil {
		reqJSON, _ = json.Marshal(req)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrShuttingDown
	}

	// Cache hits and dedup joins are served even when the solver's
	// breaker is open: they cost no solver run.
	if ws, ok := s.cache.Get(key); ok {
		s.metrics.cacheHits.Add(1)
		return s.answeredLocked(key, res.solver, ws, nil), false, nil
	}
	s.metrics.cacheMisses.Add(1)

	if canonSol != nil {
		// A structurally identical request was solved before: the job is
		// born terminal from the canonical store, and the replayed answer
		// seeds the exact cache so the next literal repeat hits level 1.
		s.metrics.canonicalHits.Add(1)
		if canonWS != nil {
			s.cache.Put(key, canonWS)
		}
		return s.answeredLocked(key, res.solver, canonWS, canonErr), false, nil
	}

	if cur, ok := s.inflight[key]; ok {
		s.metrics.dedupHits.Add(1)
		return cur, true, nil
	}

	if br := s.breakerLocked(res.solver); br != nil {
		if ok, retryAfter := br.Allow(); !ok {
			s.metrics.breakerRejected.Add(1)
			return nil, false, &SolverUnavailableError{Solver: res.solver, RetryAfter: retryAfter}
		}
	}

	if len(s.queue) >= s.cfg.QueueDepth {
		s.metrics.rejected.Add(1)
		// The admitted request never ran; release a half-open probe slot
		// so the breaker does not wait on a job that was never queued.
		if br := s.breakerLocked(res.solver); br != nil {
			br.Abandon()
		}
		return nil, false, ErrQueueFull
	}

	if s.dur != nil && reqJSON == nil {
		// The cache line seen before the lock was evicted since.
		reqJSON, _ = json.Marshal(req)
	}
	job = s.newJobLocked(key, res.solver)
	job.inst, job.mt, job.opts = res.inst, res.mt, opts
	job.canonKey, job.canonPerm = canonKey, canonPerm
	job.reqJSON = reqJSON
	s.queue = append(s.queue, job)
	s.inflight[key] = job
	// First job per canonical key wins the slot; peer-fill waits from
	// sibling nodes block on it until the entry publishes.
	if canonKey != "" {
		if _, ok := s.canonInflight[canonKey]; !ok {
			s.canonInflight[canonKey] = job
		}
	}
	s.metrics.submitted.Add(1)
	// Journal the enqueue while still holding s.mu: no worker can
	// finalize the job (finalize needs s.mu), so the WAL sees the job
	// record strictly before its jobdone.
	if reqJSON != nil {
		s.journal(walRecord{T: "job", Hash: key, Req: reqJSON})
	}
	s.cond.Signal()
	return job, false, nil
}

// newJobLocked allocates and registers a queued job (caller holds
// s.mu).
func (s *Server) newJobLocked(key, solver string) *Job {
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := &Job{
		ID:        fmt.Sprintf("job-%d", s.seq),
		Hash:      key,
		Solver:    solver,
		ctx:       ctx,
		cancel:    cancel,
		state:     JobQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[job.ID] = job
	return job
}

// answeredLocked registers a job born terminal from a cache level with
// its rendered answer, or the error that rendering it returned (caller
// holds s.mu).  It never runs, so it never takes an instance.
func (s *Server) answeredLocked(key, solver string, ws *WireSolution, err error) *Job {
	job := s.newJobLocked(key, solver)
	now := time.Now()
	job.CacheHit = true
	job.state = JobDone
	job.ws = ws
	if err != nil {
		job.errText = err.Error()
	}
	job.started, job.finished = now, now
	close(job.done)
	job.cancel() // never runs; release the context immediately
	s.rememberFinishedLocked(job)
	return job
}

// render renders a completed solution's answer: the one rendering that
// its job, cache line or session keeps and serves.
func (s *Server) render(sol *solve.Solution, mt *model.MTSwitchInstance) (*WireSolution, error) {
	ws, err := wireSolution(sol, mt)
	if err == nil && s.cfg.rendered != nil {
		s.cfg.rendered(sol, mt, ws)
	}
	return ws, err
}

// breakerLocked returns the solver's circuit breaker, creating it on
// first use (caller holds s.mu; nil when breakers are disabled).
func (s *Server) breakerLocked(solver string) *resilience.Breaker {
	if s.cfg.BreakerThreshold < 0 {
		return nil
	}
	br, ok := s.breakers[solver]
	if !ok {
		br = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: s.cfg.BreakerThreshold,
			Cooldown:  s.cfg.BreakerCooldown,
			Now:       s.cfg.breakerNow,
		})
		s.breakers[solver] = br
	}
	return br
}

// noteBreaker feeds one job outcome into its solver's breaker: success
// closes, panics and timeouts count as failures, cancels release any
// probe slot without a health signal.
func (s *Server) noteBreaker(solver string, err error) {
	s.mu.Lock()
	br := s.breakerLocked(solver)
	s.mu.Unlock()
	if br == nil {
		return
	}
	var pe *solve.PanicError
	switch {
	case err == nil:
		br.Success()
	case errors.As(err, &pe), errors.Is(err, context.DeadlineExceeded):
		br.Failure()
	default:
		// Cancellation and client errors say nothing about solver
		// health.
		br.Abandon()
	}
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job: queued jobs are removed from
// the queue and finish canceled immediately (freeing their queue slot),
// running jobs are cancelled through their context at the solver's next
// checkpoint.  Terminal jobs are left untouched.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, ErrNoSuchJob
	}
	dequeued := false
	for i, q := range s.queue {
		if q == job {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			dequeued = true
			break
		}
	}
	s.mu.Unlock()

	job.mu.Lock()
	if !job.state.Terminal() {
		job.canceled = true
	}
	job.mu.Unlock()
	job.cancel()
	if dequeued {
		// No worker will ever pop this job; it finishes canceled here
		// and its queue slot is already free.
		s.finalize(job, nil, context.Canceled)
	}
	return job, nil
}

// worker pops jobs until shutdown drains the queue.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			// Closed and drained.
			s.mu.Unlock()
			return
		}
		job := s.queue[0]
		s.queue = s.queue[1:]
		s.mu.Unlock()
		s.runJob(job)
	}
}

// runJob executes one dequeued job.  A panicking solver fails only
// this job (surfaced as a typed *solve.PanicError) and is retried once
// transparently — a second panic fails the job for good.
func (s *Server) runJob(job *Job) {
	job.mu.Lock()
	if job.canceled || job.ctx.Err() != nil {
		job.mu.Unlock()
		s.finalize(job, nil, context.Canceled)
		return
	}
	job.state = JobRunning
	job.started = time.Now()
	job.mu.Unlock()

	s.metrics.workersBusy.Add(1)
	sol, err := s.executeJob(job)
	s.metrics.workersBusy.Add(-1)

	var pe *solve.PanicError
	if errors.As(err, &pe) {
		s.metrics.recordPanic(job.Solver)
		s.noteBreaker(job.Solver, err)
		if s.requeueAfterPanic(job) {
			return
		}
		s.finalizeNoted(job, nil, err)
		return
	}
	s.finalize(job, sol, err)
}

// executeJob runs the solver under recover: a panic escaping anywhere
// below — the registry's own isolation should have caught it first —
// must not kill the worker goroutine.  The "service.worker" site lets
// the chaos harness fail or stall the worker path itself.
func (s *Server) executeJob(job *Job) (sol *solve.Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol = nil
			err = &solve.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if faultinject.Enabled() {
		if err := faultinject.Fire("service.worker"); err != nil {
			return nil, err
		}
	}
	return solve.Run(job.ctx, job.Solver, job.inst, job.opts)
}

// requeueAfterPanic gives a panicked job its one transparent retry.
// It reports false when the retry budget is spent, the job was
// canceled meanwhile, or the server is no longer accepting work.
func (s *Server) requeueAfterPanic(job *Job) bool {
	job.mu.Lock()
	if job.retried || job.canceled || job.ctx.Err() != nil {
		job.mu.Unlock()
		return false
	}
	job.retried = true
	job.mu.Unlock()

	s.mu.Lock()
	if s.closed || len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return false
	}
	job.mu.Lock()
	job.state = JobQueued
	job.mu.Unlock()
	s.queue = append(s.queue, job)
	s.metrics.retries.Add(1)
	s.cond.Signal()
	s.mu.Unlock()
	return true
}

// finalize moves a job to its terminal state, publishes the result to
// the cache, feeds the solver's breaker, releases the singleflight
// slot and wakes waiters.
func (s *Server) finalize(job *Job, sol *solve.Solution, err error) {
	s.noteBreaker(job.Solver, err)
	s.finalizeNoted(job, sol, err)
}

// finalizeNoted is finalize for callers that already fed the breaker.
// A solved job's answer is rendered here, once and outside s.mu; the
// job, its cache line and every poll share that rendering, and the job
// lets go of everything else.
func (s *Server) finalizeNoted(job *Job, sol *solve.Solution, err error) {
	now := time.Now()
	var (
		ws        *WireSolution
		renderErr error
	)
	if err == nil {
		ws, renderErr = s.render(sol, job.mt)
	}
	s.mu.Lock()
	job.mu.Lock()
	job.finished = now
	if job.started.IsZero() {
		job.started = now
	}
	var canonEntry *canonicalEntry
	switch {
	case err == nil:
		// A rendering error leaves the job done, with the error text.
		job.state = JobDone
		job.ws = ws
		if renderErr != nil {
			job.errText = renderErr.Error()
		}
		// A run degraded without a client- or server-requested budget
		// (the chaos harness injects budgets below the hash layer) must
		// not poison the cache line that means "unbudgeted".
		if !sol.Stats.Degraded || job.opts.MaxFrontierBytes > 0 {
			if ws != nil {
				s.cache.Put(job.Hash, ws)
			}
			if job.canonKey != "" {
				canonEntry = entryFromSolution(sol, job.canonPerm)
				s.canon.Put(job.canonKey, canonEntry)
			}
		}
		if sol.Stats.Degraded {
			s.metrics.degraded.Add(1)
		}
		s.metrics.recordPortfolio(sol)
		if sol.Stats.Partitions > 0 {
			s.metrics.partitionParts.Add(sol.Stats.Partitions)
			s.metrics.partitionCut.Add(sol.Stats.CutColumns)
			s.metrics.partitionStitchNs.Add(int64(sol.Stats.StitchTime))
		}
		s.metrics.completed.Add(1)
		s.metrics.observe(job.Solver, now.Sub(job.started))
		s.metrics.observeStats(job.Solver, sol.Stats)
	case errors.Is(err, context.Canceled):
		job.state = JobCanceled
		job.errText = err.Error()
		s.metrics.canceled.Add(1)
	default:
		job.state = JobFailed
		job.errText = err.Error()
		s.metrics.failed.Add(1)
	}
	if s.inflight[job.Hash] == job {
		delete(s.inflight, job.Hash)
	}
	if job.canonKey != "" && s.canonInflight[job.canonKey] == job {
		delete(s.canonInflight, job.canonKey)
	}
	// Journal the terminal outcome — with the canonical entry riding
	// inside a successful jobdone, so completion and result are one
	// atomic append and a journaled completion never re-solves after a
	// crash.  Drain cancels are NOT journaled: a job cancelled only by
	// shutdown must re-enqueue on the next boot.
	if job.reqJSON != nil && !s.closed {
		rec := walRecord{T: "jobdone", Hash: job.Hash}
		if canonEntry != nil {
			rec.Entry = peerEntryOf(job.canonKey, canonEntry)
		}
		s.journal(rec)
	}
	job.inst, job.mt, job.opts, job.canonPerm, job.reqJSON = nil, nil, solve.Options{}, nil, nil
	close(job.done)
	job.mu.Unlock()
	s.rememberFinishedLocked(job)
	s.mu.Unlock()
	job.cancel() // release the context's resources
}

// rememberFinishedLocked enforces the finished-job retention bound
// (caller holds s.mu).
func (s *Server) rememberFinishedLocked(job *Job) {
	s.finishedOrder = append(s.finishedOrder, job.ID)
	for len(s.finishedOrder) > s.cfg.retention {
		delete(s.jobs, s.finishedOrder[0])
		s.finishedOrder = s.finishedOrder[1:]
	}
}

// gauges snapshots the point-in-time metrics.
func (s *Server) gauges() gauges {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := gauges{
		queueDepth:    len(s.queue),
		queueCapacity: s.cfg.QueueDepth,
		workers:       s.cfg.Workers,
		cacheEntries:  s.cache.Len(),
		jobsByState:   map[JobState]int{},
		breakerStates: map[string]resilience.BreakerState{},
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		g.jobsByState[j.state]++
		j.mu.Unlock()
	}
	for name, br := range s.breakers {
		g.breakerStates[name] = br.State()
	}
	g.sessionsActive, g.sessionBytes = s.sessions.gauges()
	if s.dur != nil {
		st := s.dur.wal.Stats()
		g.wal = &st
	}
	return g
}

// Shutdown gracefully stops the server: new submits are rejected with
// ErrShuttingDown, every queued or running job is cancelled through
// its context (solvers stop at their next cancellation checkpoint),
// the queue drains, and the workers exit.  It returns ctx's error if
// the drain does not finish in time.
//
// With a data dir, shutdown first compacts the journal into a snapshot
// of live state — in-flight jobs as fresh submissions (they re-enqueue
// on the next boot) and live sessions with their full traces — and
// finally flushes and closes the WAL.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.state = "draining"
	for _, j := range s.jobs {
		j.mu.Lock()
		if !j.state.Terminal() {
			j.canceled = true
		}
		j.mu.Unlock()
	}
	s.cond.Broadcast()
	// Snapshot while the canceled-but-unfinalized jobs are still
	// non-terminal: they compact as live submissions.  A busy session
	// aborts the compaction (the un-compacted journal is a correct
	// superset).
	if s.dur != nil {
		s.compactWALLocked()
	}
	s.mu.Unlock()
	// Everything after this is teardown: no more journaling (drain
	// cancels must re-enqueue on the next boot).
	if s.dur != nil {
		s.dur.disabled.Store(true)
	}
	s.closeSessions()
	s.baseCancel() // cancels every job context, queued and running

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closeDurable() // final WAL fsync + close
	return err
}
