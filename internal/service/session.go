package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
)

// Streaming solve sessions.
//
// A session is a long-lived incremental solve: the client opens it
// with an initial demand trace, appends (or amends) batches of demand
// rows over time, and reads back the re-optimized schedule after each
// batch.  Under the hood each session drives a solve.StepEngine, so a
// batch re-solves only the suffix it invalidates instead of the whole
// trace — with the default pruned options too: the engine resumes from
// the first step whose decisions the batch can change, and its
// schedule and stats are those of a fresh solve of the grown trace.
//
// Reliability model: the session's step-major demand trace is the
// authoritative state; the engine is a disposable accelerator, and
// the trace is the one way back to it.  A missing engine is rebuilt
// from the trace (one full re-solve, then incremental again) whether
// it was lost to
//
//   - a panic, which fails only the request that drove it;
//   - the Config.SessionBytes budget, which closes the least recently
//     used sessions' engines once live engines exceed it;
//   - a restart, where recovery replays the journaled traces.
//
// Session solves run synchronously on the calling goroutine (the whole
// point is the suffix re-solve being cheap), admitted through the same
// per-solver circuit breaker as the job queue and bounded by the same
// clamped deadline: the opener and every batch solve stop at
// Config.MaxSolveTimeout.
var (
	// ErrNoSuchSession reports an unknown (or deleted) session id.
	ErrNoSuchSession = errors.New("service: no such session")
	// ErrSessionLimit rejects session creation beyond
	// Config.MaxSessions.
	ErrSessionLimit = errors.New("service: session limit reached")
)

// session is one streaming solve.  mu serializes all engine access and
// trace mutation; the store's lock is only ever taken for accounting
// and LRU bookkeeping (lock order: session.mu → store.mu, and
// rebalance crosses sessions only via TryLock).
type session struct {
	ID     string
	Solver string

	srv *Server

	mu    sync.Mutex
	opt   model.CostOptions
	opts  solve.Options
	tasks []model.Task
	trace [][]bitset.Set // step-major authoritative demand rows
	eng   solve.StepEngine

	// Schedule generation: bumped after every successful re-solve;
	// genCh closes on each bump (long-poll wakeup) and is replaced.
	gen   int64
	genCh chan struct{}

	ws               *WireSolution // the last solve's rendered answer
	lastResolveStart int
	resolveExpanded  int64
	lastErr          string

	created time.Time
	closed  bool
	// evicted marks an engine closed by the byte budget; the rebuild
	// that replaces it counts as a revival.
	evicted bool
}

// sessionStore tracks the live sessions, their LRU order and the
// engine byte budget.
type sessionStore struct {
	mu       sync.Mutex
	capacity int
	budget   int64
	seq      int64
	sessions map[string]*session
	ll       *list.List               // sessions with live engines, front = most recent
	els      map[string]*list.Element // session id -> ll element
	sizes    map[string]int64         // session id -> last engine SizeBytes
	total    int64                    // sum of sizes
}

func newSessionStore(capacity int, budget int64) *sessionStore {
	return &sessionStore{
		capacity: capacity,
		budget:   budget,
		sessions: map[string]*session{},
		ll:       list.New(),
		els:      map[string]*list.Element{},
		sizes:    map[string]int64{},
	}
}

// SessionRequest is the JSON body of POST /v1/sessions: a solver, an
// initial inline trace and options — like SolveRequest minus the
// app/kind indirection (sessions are always inline mtswitch, the only
// steppable kind).
type SessionRequest struct {
	Solver   string        `json:"solver"`
	Instance *WireInstance `json:"instance"`
	// Upload is "parallel" (default) or "sequential".
	Upload  string      `json:"upload,omitempty"`
	Options WireOptions `json:"options"`
}

// SessionSteps is the JSON body of POST /v1/sessions/{id}/steps: a
// batch of step-major demand rows in the WireInstance.Reqs cell format
// (row i, task j).  With At set the batch overwrites existing trace
// rows starting there (an amendment) instead of appending.
type SessionSteps struct {
	Reqs [][]string `json:"reqs"`
	At   *int       `json:"at,omitempty"`
}

// SessionStatus is the JSON view of a session, returned by every
// session endpoint.
type SessionStatus struct {
	ID     string `json:"id"`
	Solver string `json:"solver"`
	// Steps is the current trace length.
	Steps int `json:"steps"`
	// Generation counts successful re-solves; long-polling
	// GET /v1/sessions/{id}/schedule?generation=N returns once it
	// exceeds N.
	Generation int64 `json:"generation"`
	// ResolvedFrom is the trace step the last batch resumed solving
	// from (0 = full re-solve); the re-solved suffix is
	// Steps - ResolvedFrom.
	ResolvedFrom int `json:"resolved_from"`
	// ResolveExpanded is how many DP states the last batch's re-solve
	// expanded — the incremental cost, directly comparable to a
	// from-scratch solve's states_expanded.
	ResolveExpanded int64 `json:"resolve_expanded"`
	// Evicted reports the session holds no live engine (closed under
	// memory pressure, or dropped by a failed solve); the next batch
	// rebuilds it from the trace.
	Evicted bool `json:"evicted,omitempty"`

	CreatedAt time.Time `json:"created_at"`

	Result *WireSolution `json:"result,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// splitResult implements resultStatus.
func (st *SessionStatus) splitResult() (any, *WireSolution, string) {
	env := *st
	env.Result, env.Error = nil, ""
	return &env, st.Result, st.Error
}

// resolveSession validates the session opener and builds the model
// instance, cost options and solve options clamped as a job's are (the
// shared resolution behind CreateSession, WAL recovery and the cluster
// routing key).  The clamped timeout bounds each session solve.
func (r *SessionRequest) resolveSession(lim RouteLimits) (*model.MTSwitchInstance, model.CostOptions, solve.Options, error) {
	var cost model.CostOptions
	if r.Solver == "" {
		return nil, cost, solve.Options{}, fmt.Errorf("missing solver (registered: %v)", solve.Names())
	}
	if r.Instance == nil {
		return nil, cost, solve.Options{}, fmt.Errorf("sessions require an inline instance")
	}
	mt, err := r.Instance.toModel()
	if err != nil {
		return nil, cost, solve.Options{}, err
	}
	if mt.Steps() == 0 {
		return nil, cost, solve.Options{}, fmt.Errorf("sessions require at least one initial step")
	}
	if cost, err = uploadMode(r.Upload); err != nil {
		return nil, cost, solve.Options{}, err
	}
	opts, err := r.Options.toSolve()
	if err != nil {
		return nil, cost, solve.Options{}, err
	}
	opts = lim.clamp(opts)
	if err := opts.Validate(); err != nil {
		return nil, cost, solve.Options{}, err
	}
	return mt, cost, opts, nil
}

// CreateSession validates the request, admits it against the solver's
// circuit breaker and the session cap, and solves the initial trace
// synchronously.  A failed initial solve tears the session back down —
// the client holds no id yet, so nothing may linger.
func (s *Server) CreateSession(ctx context.Context, req *SessionRequest) (*session, error) {
	mt, cost, opts, err := req.resolveSession(s.limits())
	if err != nil {
		return nil, err
	}
	ctx, cancel := solveDeadline(ctx, opts.Timeout)
	defer cancel()

	// Feature-detect before admitting: a solver without the Stepper
	// capability is a client error, not a breaker event.
	eng, err := solve.NewStepEngine(ctx, req.Solver, solve.NewMT(mt, cost), opts)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		eng.Close()
		return nil, ErrShuttingDown
	}
	if br := s.breakerLocked(req.Solver); br != nil {
		if ok, retryAfter := br.Allow(); !ok {
			s.mu.Unlock()
			eng.Close()
			s.metrics.breakerRejected.Add(1)
			return nil, &SolverUnavailableError{Solver: req.Solver, RetryAfter: retryAfter}
		}
	}
	s.mu.Unlock()

	st := s.sessions
	st.mu.Lock()
	if len(st.sessions) >= st.capacity {
		st.mu.Unlock()
		eng.Close()
		s.noteBreaker(req.Solver, context.Canceled) // admitted but never ran
		return nil, ErrSessionLimit
	}
	st.seq++
	sess := &session{
		ID:      fmt.Sprintf("sess-%d", st.seq),
		Solver:  req.Solver,
		srv:     s,
		opt:     cost,
		opts:    opts,
		tasks:   append([]model.Task(nil), mt.Tasks...),
		eng:     eng,
		genCh:   make(chan struct{}),
		created: time.Now(),
	}
	sess.trace = traceFromInstance(mt)
	st.sessions[sess.ID] = sess
	st.mu.Unlock()

	sess.mu.Lock()
	err = sess.solveLocked(ctx)
	sess.mu.Unlock()
	s.noteBreaker(req.Solver, err)
	if err != nil {
		// The opener was never journaled, so neither is the teardown.
		s.removeSession(sess.ID)
		return nil, err
	}
	// Journal the opener before the client learns the id: every batch
	// it sends afterwards lands on a session the journal knows.
	if s.dur != nil {
		if data, err := json.Marshal(req); err == nil {
			s.journal(walRecord{T: "sess", ID: sess.ID, Req: data})
		}
	}
	return sess, nil
}

// Session looks a session up by id.
func (s *Server) Session(id string) (*session, bool) {
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.sessions[id]
	return sess, ok
}

// DeleteSession closes and forgets a session, and journals the
// deletion.
func (s *Server) DeleteSession(id string) error {
	if !s.removeSession(id) {
		return ErrNoSuchSession
	}
	s.journal(walRecord{T: "sessdel", ID: id})
	return nil
}

// removeSession closes and forgets a session without journaling it,
// reporting whether the id was live.
func (s *Server) removeSession(id string) bool {
	st := s.sessions
	st.mu.Lock()
	sess, ok := st.sessions[id]
	if !ok {
		st.mu.Unlock()
		return false
	}
	delete(st.sessions, id)
	st.dropAccountingLocked(id)
	st.mu.Unlock()

	sess.mu.Lock()
	sess.closed = true
	if sess.eng != nil {
		closeEngine(sess.eng)
		sess.eng = nil
	}
	close(sess.genCh) // wake long-pollers; closed sessions never re-arm
	sess.mu.Unlock()
	return true
}

// closeSessions tears down every session at shutdown; draining keeps
// them journaled for the next boot.
func (s *Server) closeSessions() {
	st := s.sessions
	st.mu.Lock()
	ids := make([]string, 0, len(st.sessions))
	for id := range st.sessions {
		ids = append(ids, id)
	}
	st.mu.Unlock()
	for _, id := range ids {
		s.removeSession(id)
	}
}

// Steps applies one batch (append, or amendment when batch.At is set)
// and re-solves synchronously.  The batch is admitted against the
// solver's circuit breaker, and its outcome feeds the breaker like a
// job run does.
func (sess *session) Steps(ctx context.Context, batch *SessionSteps) (*SessionStatus, error) {
	rows, err := sess.parseBatch(batch)
	if err != nil {
		return nil, err
	}
	s := sess.srv
	s.mu.Lock()
	if br := s.breakerLocked(sess.Solver); br != nil {
		if ok, retryAfter := br.Allow(); !ok {
			s.mu.Unlock()
			s.metrics.breakerRejected.Add(1)
			return nil, &SolverUnavailableError{Solver: sess.Solver, RetryAfter: retryAfter}
		}
	}
	s.mu.Unlock()

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		s.noteBreaker(sess.Solver, context.Canceled)
		return nil, ErrNoSuchSession
	}

	// Mutate the authoritative trace first: whatever happens to the
	// engine afterwards, a rebuild sees the batch.
	at := batch.At
	if at != nil {
		if *at < 0 || *at+len(rows) > len(sess.trace) {
			s.noteBreaker(sess.Solver, context.Canceled)
			return nil, fmt.Errorf("amend window [%d,%d) outside trace of %d steps", *at, *at+len(rows), len(sess.trace))
		}
		copy(sess.trace[*at:], rows)
	} else {
		sess.trace = append(sess.trace, rows...)
	}
	// Journal the batch the moment the trace accepts it: the trace is
	// the authoritative state, so the journal must carry it whether or
	// not the solve below succeeds (a failed solve leaves the engine to
	// rebuild from this same trace).
	s.journal(walRecord{T: "steps", ID: sess.ID, At: batch.At, Rows: batch.Reqs})

	ctx, cancel := solveDeadline(ctx, sess.opts.Timeout)
	err = sess.applyLocked(ctx, rows, at)
	cancel()
	s.noteBreaker(sess.Solver, err)
	if err != nil {
		return nil, err
	}
	s.metrics.sessionSteps.Add(int64(len(rows)))
	s.metrics.observeSuffix(int64(len(sess.trace) - sess.lastResolveStart))
	return sess.statusLocked(), nil
}

// parseBatch validates and decodes a step batch against the session's
// task shapes (pure; runs outside the session lock).
func (sess *session) parseBatch(batch *SessionSteps) ([][]bitset.Set, error) {
	if batch == nil || len(batch.Reqs) == 0 {
		return nil, fmt.Errorf("empty step batch")
	}
	if len(batch.Reqs) > maxWireSteps {
		return nil, &TooLargeError{What: "step count", Got: len(batch.Reqs), Limit: maxWireSteps}
	}
	rows := make([][]bitset.Set, len(batch.Reqs))
	for i, cells := range batch.Reqs {
		if len(cells) != len(sess.tasks) {
			return nil, fmt.Errorf("step row %d has %d cells, want %d", i, len(cells), len(sess.tasks))
		}
		row := make([]bitset.Set, len(cells))
		for j, cell := range cells {
			set, err := bitset.Parse(cell)
			if err != nil {
				return nil, fmt.Errorf("step row %d task %q: %w", i, sess.tasks[j].Name, err)
			}
			if set.Universe() != sess.tasks[j].Local {
				return nil, fmt.Errorf("step row %d task %q bit string length %d, want %d",
					i, sess.tasks[j].Name, set.Universe(), sess.tasks[j].Local)
			}
			row[j] = set
		}
		rows[i] = row
	}
	return rows, nil
}

// applyLocked feeds one decoded batch into the engine and re-solves; a
// missing engine is rebuilt from the trace, which already holds the
// batch.  Caller holds sess.mu and has already updated sess.trace.
func (sess *session) applyLocked(ctx context.Context, rows [][]bitset.Set, at *int) error {
	// An engine out of step with the trace (a previous batch reached the
	// engine but its solve failed mid-way, or vice versa) is dropped: the
	// trace is the truth.
	if sess.eng != nil {
		want := len(sess.trace)
		if at == nil {
			want -= len(rows)
		}
		if sess.eng.Steps() != want {
			sess.dropEngineLocked()
		}
	}
	if sess.eng == nil {
		if err := sess.restoreEngineLocked(ctx); err != nil {
			return err
		}
		return sess.solveLocked(ctx)
	}
	var err error
	if at != nil {
		err = sess.protect(func() error { return sess.eng.Amend(ctx, *at, rows) })
	} else {
		err = sess.protect(func() error { return sess.eng.Extend(ctx, rows) })
	}
	if err != nil {
		return err
	}
	return sess.solveLocked(ctx)
}

// restoreEngineLocked builds a fresh engine over the authoritative
// trace: eviction, a panicked engine and restart revival all come back
// this way.
func (sess *session) restoreEngineLocked(ctx context.Context) error {
	mt, err := sess.instanceLocked()
	if err != nil {
		return err
	}
	eng, err := solve.NewStepEngine(ctx, sess.Solver, solve.NewMT(mt, sess.opt), sess.opts)
	if err != nil {
		return err
	}
	sess.eng = eng
	if sess.evicted {
		sess.evicted = false
		sess.srv.metrics.sessionsRevived.Add(1)
	}
	return nil
}

// instanceLocked materializes the authoritative trace as a model
// instance (task-major).
func (sess *session) instanceLocked() (*model.MTSwitchInstance, error) {
	reqs := make([][]bitset.Set, len(sess.tasks))
	for j := range reqs {
		reqs[j] = make([]bitset.Set, len(sess.trace))
		for i := range sess.trace {
			reqs[j][i] = sess.trace[i][j]
		}
	}
	return model.NewMTSwitchInstance(sess.tasks, reqs)
}

// solveLocked runs the engine to completion, publishes the new
// schedule generation and re-balances the engine byte budget.
func (sess *session) solveLocked(ctx context.Context) error {
	var sol *solve.Solution
	err := sess.protect(func() error {
		// The "service.session" site lets the chaos harness fail, stall
		// or panic the session solve path itself; a panic lands in
		// protect's recover like a real engine panic would.
		if faultinject.Enabled() {
			if err := faultinject.Fire("service.session"); err != nil {
				return err
			}
		}
		var err error
		sol, err = sess.eng.Solution(ctx)
		return err
	})
	if err != nil {
		sess.lastErr = err.Error()
		return err
	}
	mt, err := sess.instanceLocked()
	if err != nil {
		sess.lastErr = err.Error()
		return err
	}
	// The session keeps only the rendered answer; a rendering error
	// surfaces as the status error.
	sess.lastErr = ""
	if sess.ws, err = sess.srv.render(sol, mt); err != nil {
		sess.lastErr = err.Error()
	}
	sess.lastResolveStart = sess.eng.LastResolveStart()
	sess.resolveExpanded = sess.eng.ResolveExpanded()
	sess.gen++
	close(sess.genCh)
	sess.genCh = make(chan struct{})
	sess.srv.sessions.rebalance(sess, sess.eng.SizeBytes())
	return nil
}

// solveDeadline bounds one session solve by its clamped timeout (0 =
// none), as solve.Run bounds a job's run.
func solveDeadline(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// protect runs one engine operation with panic isolation: a panic
// anywhere in the engine fails only this request (as a typed
// *solve.PanicError) and drops the engine — its state is suspect — so
// the next batch rebuilds from the authoritative trace.
func (sess *session) protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &solve.PanicError{Value: r, Stack: debug.Stack()}
			sess.lastErr = err.Error()
			sess.srv.metrics.recordPanic(sess.Solver)
			sess.dropEngineLocked()
		}
	}()
	return fn()
}

// dropEngineLocked discards the engine and its byte accounting (caller
// holds sess.mu).
func (sess *session) dropEngineLocked() {
	if sess.eng != nil {
		closeEngine(sess.eng)
		sess.eng = nil
	}
	sess.srv.sessions.dropAccounting(sess.ID)
}

// closeEngine closes an engine whose state may already be corrupted; a
// panicking Close must not take the caller down.
func closeEngine(eng solve.StepEngine) {
	defer func() { recover() }()
	eng.Close()
}

// Wait blocks until the schedule generation exceeds gen, the timeout
// elapses or ctx is done, and returns the then-current status.
func (sess *session) Wait(ctx context.Context, gen int64, timeout time.Duration) *SessionStatus {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	sess.mu.Lock()
	for sess.gen <= gen && !sess.closed {
		ch := sess.genCh
		sess.mu.Unlock()
		select {
		case <-ch:
			sess.mu.Lock()
			continue
		case <-deadline.C:
		case <-ctx.Done():
		}
		sess.mu.Lock()
		break
	}
	defer sess.mu.Unlock()
	return sess.statusLocked()
}

// Status snapshots the session.
func (sess *session) Status() *SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.statusLocked()
}

func (sess *session) statusLocked() *SessionStatus {
	return &SessionStatus{
		ID:              sess.ID,
		Solver:          sess.Solver,
		Steps:           len(sess.trace),
		Generation:      sess.gen,
		ResolvedFrom:    sess.lastResolveStart,
		ResolveExpanded: sess.resolveExpanded,
		Evicted:         sess.eng == nil && !sess.closed,
		CreatedAt:       sess.created,
		Result:          sess.ws,
		Error:           sess.lastErr,
	}
}

// rebalance updates one session's engine size and evicts
// least-recently-used engines until the total fits the byte budget.
// The caller holds its own session's mu (and no other).  A victim is
// locked with TryLock before it leaves the list, so a session busy
// with a request keeps its place and its bytes in the count; the
// session → store lock order lets TryLock run under st.mu.
func (st *sessionStore) rebalance(sess *session, size int64) {
	st.mu.Lock()
	if el, ok := st.els[sess.ID]; ok {
		st.ll.MoveToFront(el)
	} else {
		st.els[sess.ID] = st.ll.PushFront(sess)
	}
	st.total += size - st.sizes[sess.ID]
	st.sizes[sess.ID] = size

	var victims []*session
	if st.budget > 0 {
		for el := st.ll.Back(); el != nil && st.total > st.budget; {
			v := el.Value.(*session)
			prev := el.Prev()
			if v != sess && v.mu.TryLock() {
				st.ll.Remove(el)
				delete(st.els, v.ID)
				st.total -= st.sizes[v.ID]
				delete(st.sizes, v.ID)
				victims = append(victims, v)
			}
			el = prev
		}
	}
	st.mu.Unlock()

	for _, v := range victims {
		v.evictLocked()
		v.mu.Unlock()
	}
}

// dropAccounting removes a session from the LRU and byte accounting.
func (st *sessionStore) dropAccounting(id string) {
	st.mu.Lock()
	st.dropAccountingLocked(id)
	st.mu.Unlock()
}

func (st *sessionStore) dropAccountingLocked(id string) {
	if el, ok := st.els[id]; ok {
		st.ll.Remove(el)
		delete(st.els, id)
	}
	st.total -= st.sizes[id]
	delete(st.sizes, id)
}

// evictLocked closes a session's engine under the byte budget (caller
// holds sess.mu); the next batch rebuilds it from the trace.
func (sess *session) evictLocked() {
	if sess.eng == nil || sess.closed {
		return
	}
	closeEngine(sess.eng)
	sess.eng = nil
	sess.evicted = true
	sess.srv.metrics.sessionsEvicted.Add(1)
}

// gauges snapshots the point-in-time session metrics.
func (st *sessionStore) gauges() (active int, engineBytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions), st.total
}
