package service

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/resilience/faultinject"
	"repro/internal/solve"
)

// Durable state & crash recovery.
//
// With Config.DataDir set, the server journals every state mutation
// that matters after a crash into a write-ahead log, the one durable
// home of a solved answer:
//
//   - "job" records journal each actually-enqueued submission (cache
//     hits and dedup joins cost nothing to lose); "jobdone" records
//     journal terminal outcomes and carry the canonical entry of a
//     completed mtswitch solve, so completion and result persist in one
//     ordered, CRC-framed append.
//   - "sess" records journal session openers, "steps" records each
//     accepted batch (the trace-as-truth model makes the trace the only
//     session state that matters), "sessdel" explicit deletions.
//   - The compacted snapshot carries the canonical LRU: every cached
//     entry, least recently used first, as a jobdone record without a
//     hash.  Replay warms every entry record in journal order, so
//     structural twins survive restarts, a crashed cluster node rejoins
//     warm, and a drained node comes back with its cache in shutdown
//     order.  The exact (literal) result cache is not journaled
//     separately: a restarted node reconstructs literal repeats through
//     the canonical layer, which re-seeds the exact cache on first hit.
//
// Recovery at Open: replay the journal (warming the canonical LRU),
// re-register journaled sessions (traces rebuilt from their records),
// re-enqueue incomplete jobs (completed twins are born terminal off the
// warm canonical LRU — no duplicate solve for a journaled completion),
// then rebuild session engines from their traces in the background
// while /v1/healthz reports "recovering".  Once ready, the journal is
// compacted to a snapshot of live state.  A data dir written by an
// older release may still hold a ckpt/ (engine checkpoints) or canon/
// (spilled cache entries) directory; nothing reads them, which costs
// warmth once and never correctness.
//
// Replay is idempotent by construction: records are folded into
// per-hash and per-id maps and the LRU, so duplicates (history replayed
// beside a snapshot cut short, a replayed restart) cannot double-apply.

// walRecord is the JSON payload of one journal record.
type walRecord struct {
	// T is the record type: job, jobdone, sess, steps, sessdel.
	T string `json:"t"`
	// Hash addresses job records (the request content address).
	Hash string `json:"h,omitempty"`
	// ID addresses session records.
	ID string `json:"id,omitempty"`
	// Req is the original SolveRequest (job) or SessionRequest (sess).
	Req json.RawMessage `json:"req,omitempty"`
	// At and Rows carry one session step batch (steps records).
	At   *int       `json:"at,omitempty"`
	Rows [][]string `json:"rows,omitempty"`
	// Entry carries a completed solve's canonical store line inside its
	// jobdone record, making completion and result one atomic append.  A
	// compacted snapshot writes each cached entry as a jobdone record
	// with an Entry and no Hash.
	Entry *PeerEntry `json:"entry,omitempty"`
}

// durableState holds the data directory's WAL.
type durableState struct {
	wal *durable.WAL

	// disabled gates every durable side effect; set at the end of
	// shutdown (and by the crash simulation hook) so teardown does not
	// journal over its own final snapshot.
	disabled atomic.Bool
}

// openDurable opens the data directory's WAL.
func (s *Server) openDurable() error {
	wal, err := durable.OpenWAL(filepath.Join(s.cfg.DataDir, "wal"), durable.WALOptions{
		SegmentBytes:     s.cfg.WALSegmentBytes,
		Fsync:            s.cfg.Fsync,
		FsyncIntervalDur: s.cfg.FsyncInterval,
	})
	if err != nil {
		return err
	}
	s.dur = &durableState{wal: wal}
	return nil
}

// journal appends one record to the WAL (no-op without a data dir).
// The "service.journal" site lets the chaos harness crash, stall or
// drop the append itself.
func (s *Server) journal(rec walRecord) {
	d := s.dur
	if d == nil || d.disabled.Load() {
		return
	}
	if faultinject.Enabled() {
		if err := faultinject.Fire("service.journal"); err != nil {
			return // injected journal loss
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	d.wal.Append(data)
}

// setState publishes the node's lifecycle state (recovering → ready;
// draining is derived from closed).
func (s *Server) setState(state string) {
	s.mu.Lock()
	if !s.closed {
		s.state = state
	}
	s.mu.Unlock()
}

// recSession accumulates one journaled session during replay.
type recSession struct {
	req     json.RawMessage
	batches []walRecord
}

// recPlan is the folded journal: what must be re-registered and re-run.
type recPlan struct {
	jobs      map[string]json.RawMessage
	done      map[string]bool
	order     []string
	sess      map[string]*recSession
	sessOrder []string
}

// recoverDurable rebuilds state from the data directory.  Called from
// Open after the worker pool is live; the caller has set state
// "recovering".
func (s *Server) recoverDurable() {
	// 1. Fold the journal.  Map semantics make the fold idempotent and
	// order-tolerant: duplicates overwrite, a done mark wins regardless
	// of position.  Every entry record goes back into the canonical LRU
	// in journal order, so completed work answers as cache hits and a
	// snapshot's least-recently-used-first entries keep their order.
	warm := 0
	plan := &recPlan{
		jobs: map[string]json.RawMessage{},
		done: map[string]bool{},
		sess: map[string]*recSession{},
	}
	s.dur.wal.Replay(func(data []byte) error {
		var rec walRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil // tolerate an unreadable record, keep the rest
		}
		switch rec.T {
		case "job":
			if rec.Hash == "" || len(rec.Req) == 0 {
				return nil
			}
			if _, seen := plan.jobs[rec.Hash]; !seen {
				plan.order = append(plan.order, rec.Hash)
			}
			plan.jobs[rec.Hash] = rec.Req
		case "jobdone":
			// A completion carries its job's hash; a snapshot's cache
			// entry carries none.
			if rec.Hash != "" {
				plan.done[rec.Hash] = true
			}
			if rec.Entry != nil && rec.Entry.Key != "" {
				s.canon.Put(rec.Entry.Key, rec.Entry.entry())
				warm++
			}
		case "sess":
			if rec.ID == "" || len(rec.Req) == 0 {
				return nil
			}
			if _, seen := plan.sess[rec.ID]; !seen {
				plan.sessOrder = append(plan.sessOrder, rec.ID)
			}
			plan.sess[rec.ID] = &recSession{req: rec.Req}
		case "steps":
			if rs := plan.sess[rec.ID]; rs != nil {
				rs.batches = append(rs.batches, rec)
			}
		case "sessdel":
			delete(plan.sess, rec.ID)
		}
		return nil
	})
	s.metrics.recoveryCacheWarmloaded.Add(int64(warm))

	// 2. Re-register journaled sessions with their traces rebuilt; the
	// engines revive in the background below.
	var revive []*session
	for _, id := range plan.sessOrder {
		rec, ok := plan.sess[id]
		if !ok {
			continue // deleted later in the journal
		}
		if sess := s.restoreSession(id, rec); sess != nil {
			revive = append(revive, sess)
		}
	}

	// 3. Re-enqueue incomplete jobs.  A journaled completion's twin is
	// born terminal off the warm canonical LRU inside Submit, so
	// nothing solved before the crash solves again.
	requeued := 0
	for _, hash := range plan.order {
		if plan.done[hash] {
			continue
		}
		var req SolveRequest
		if err := json.Unmarshal(plan.jobs[hash], &req); err != nil {
			continue
		}
		if _, _, err := s.Submit(&req); err == nil {
			requeued++
		}
	}
	s.metrics.recoveryJobsRequeued.Add(int64(requeued))

	// 4. Rebuild session engines from their traces in the background;
	// the node reports "recovering" until the last session solves
	// again, then compacts the journal into a snapshot of live state.
	// The "service.recover" site lets tests stall here and observe the
	// recovering state.
	if len(revive) == 0 {
		s.setState("ready")
		s.compactWAL()
		return
	}
	go func() {
		for _, sess := range revive {
			if faultinject.Enabled() {
				faultinject.Fire("service.recover")
			}
			sess.mu.Lock()
			if !sess.closed && sess.eng == nil {
				ctx, cancel := solveDeadline(s.baseCtx, sess.opts.Timeout)
				if err := sess.restoreEngineLocked(ctx); err == nil {
					if err := sess.solveLocked(ctx); err == nil {
						s.metrics.recoverySessionsRevived.Add(1)
					}
				}
				cancel()
			}
			sess.mu.Unlock()
		}
		s.setState("ready")
		s.compactWAL()
	}()
}

// restoreSession re-registers one journaled session: the opener
// resolves exactly like CreateSession, the trace replays its journaled
// batches, the engine stays nil until revival (or the next batch)
// restores it.
func (s *Server) restoreSession(id string, rec *recSession) *session {
	var req SessionRequest
	if err := json.Unmarshal(rec.req, &req); err != nil {
		return nil
	}
	mt, cost, opts, err := req.resolveSession(s.limits())
	if err != nil {
		return nil
	}
	var n int64
	if _, err := fmt.Sscanf(id, "sess-%d", &n); err != nil || n <= 0 {
		return nil
	}
	sess := &session{
		ID:      id,
		Solver:  req.Solver,
		srv:     s,
		opt:     cost,
		opts:    opts,
		tasks:   append([]model.Task(nil), mt.Tasks...),
		genCh:   make(chan struct{}),
		created: time.Now(),
	}
	sess.trace = traceFromInstance(mt)
	for _, b := range rec.batches {
		rows, err := sess.parseBatch(&SessionSteps{Reqs: b.Rows, At: b.At})
		if err != nil {
			continue // a malformed journaled batch cannot corrupt the trace
		}
		if b.At != nil {
			if *b.At < 0 || *b.At+len(rows) > len(sess.trace) {
				continue
			}
			copy(sess.trace[*b.At:], rows)
		} else {
			sess.trace = append(sess.trace, rows...)
		}
	}
	st := s.sessions
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.sessions) >= st.capacity {
		return nil
	}
	if n > st.seq {
		st.seq = n
	}
	st.sessions[id] = sess
	return sess
}

// compactWAL rewrites the journal as a snapshot of live state: the
// canonical LRU's entries, least recently used first, incomplete jobs
// and live sessions (their full current traces, so step-batch history
// collapses).  Holding s.mu for the duration keeps job journaling
// quiescent; sessions are snapshotted under TryLock and any busy
// session aborts the compaction.  Nothing retries it: compaction runs
// only at the end of recovery and at drain, and until the next one the
// un-compacted journal stays a correct superset.
func (s *Server) compactWAL() error {
	d := s.dur
	if d == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactWALLocked()
}

func (s *Server) compactWALLocked() error {
	d := s.dur
	if d == nil {
		return nil
	}
	type jobSnap struct {
		hash string
		req  json.RawMessage
	}
	cached := s.canon.lru.oldestFirst()
	var liveJobs []jobSnap
	for _, j := range s.jobs {
		j.mu.Lock()
		if !j.state.Terminal() && j.reqJSON != nil {
			liveJobs = append(liveJobs, jobSnap{j.Hash, j.reqJSON})
		}
		j.mu.Unlock()
	}
	st := s.sessions
	st.mu.Lock()
	liveSessions := make([]*session, 0, len(st.sessions))
	for _, sess := range st.sessions {
		liveSessions = append(liveSessions, sess)
	}
	st.mu.Unlock()

	return d.wal.Compact(func(app func([]byte) error) error {
		for _, le := range cached {
			data, err := json.Marshal(walRecord{T: "jobdone", Entry: peerEntryOf(le.key, le.val.(*canonicalEntry))})
			if err != nil {
				continue
			}
			if err := app(data); err != nil {
				return err
			}
		}
		for _, js := range liveJobs {
			data, err := json.Marshal(walRecord{T: "job", Hash: js.hash, Req: js.req})
			if err != nil {
				continue
			}
			if err := app(data); err != nil {
				return err
			}
		}
		for _, sess := range liveSessions {
			if !sess.mu.TryLock() {
				return fmt.Errorf("service: session %s busy, compaction deferred", sess.ID)
			}
			rec, err := sess.snapshotRecordLocked()
			sess.mu.Unlock()
			if err != nil {
				continue // closed mid-snapshot: not live state anymore
			}
			data, err := json.Marshal(rec)
			if err != nil {
				continue
			}
			if err := app(data); err != nil {
				return err
			}
		}
		return nil
	})
}

// snapshotRecordLocked renders the session as a fresh opener carrying
// its full current trace (caller holds sess.mu).
func (sess *session) snapshotRecordLocked() (*walRecord, error) {
	if sess.closed {
		return nil, ErrNoSuchSession
	}
	upload := "parallel"
	if sess.opt.HyperUpload == model.TaskSequential {
		upload = "sequential"
	}
	wire := &WireInstance{Tasks: make([]WireTask, len(sess.tasks))}
	for j, t := range sess.tasks {
		wire.Tasks[j] = WireTask{Name: t.Name, Local: t.Local, V: int64(t.V)}
	}
	wire.Reqs = make([][]string, len(sess.trace))
	for i, row := range sess.trace {
		cells := make([]string, len(row))
		for j, set := range row {
			cells[j] = set.String()
		}
		wire.Reqs[i] = cells
	}
	req := SessionRequest{
		Solver:   sess.Solver,
		Instance: wire,
		Upload:   upload,
		Options:  wireOptionsFrom(sess.opts),
	}
	data, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &walRecord{T: "sess", ID: sess.ID, Req: data}, nil
}

// traceFromInstance builds the step-major authoritative trace from a
// task-major model instance (CreateSession and recovery).
func traceFromInstance(mt *model.MTSwitchInstance) [][]bitset.Set {
	trace := make([][]bitset.Set, mt.Steps())
	for i := range trace {
		row := make([]bitset.Set, mt.NumTasks())
		for j := range row {
			row[j] = mt.Reqs[j][i].Clone()
		}
		trace[i] = row
	}
	return trace
}

// wireOptionsFrom inverts WireOptions.toSolve (Timeout excluded — it
// travels outside WireOptions and sessions carry none).
func wireOptionsFrom(o solve.Options) WireOptions {
	wo := WireOptions{
		MaxStates:        o.MaxStates,
		MaxCandidates:    o.MaxCandidates,
		MaxFrontierBytes: o.MaxFrontierBytes,
		DisablePruning:   o.DisablePruning,
		Seed:             o.Seed,
		Pop:              o.Pop,
		Generations:      o.Generations,
		MutRate:          o.MutRate,
		CrossRate:        o.CrossRate,
		TournamentK:      o.TournamentK,
		Elites:           o.Elites,
		NoSeeds:          o.NoHeuristicSeeds,
		Iterations:       o.Iterations,
		InitialTemp:      o.InitialTemp,
		Cooling:          o.Cooling,
		IntervalK:        o.IntervalK,
		Partitions:       o.Partitions,
		MaxCutColumns:    o.MaxCutColumns,
	}
	switch o.Crossover {
	case solve.CrossTwoPoint:
		wo.Crossover = "two-point"
	case solve.CrossTaskRow:
		wo.Crossover = "task-row"
	}
	return wo
}

// closeDurable closes the WAL (the final fsync of a graceful drain).
func (s *Server) closeDurable() {
	d := s.dur
	if d == nil {
		return
	}
	d.disabled.Store(true)
	d.wal.Sync()
	d.wal.Close()
}

// Abandon stops the server the way kill -9 would: no drain, no final
// snapshot, no WAL compaction — just stop touching the data directory
// so a successor can open it.  It exists for in-process crash/recovery
// tests; the out-of-process harness in
// internal/resilience/faultinject/crashharness sends real SIGKILLs.
func (s *Server) Abandon() {
	if d := s.dur; d != nil {
		d.disabled.Store(true)
		d.wal.Close() // release the file; appends were already on disk
	}
	s.mu.Lock()
	s.closed = true
	s.state = "draining"
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel()
}
