package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/resilience"
	"repro/internal/solve"
)

// latencyBounds are the histogram bucket upper bounds in seconds
// (log-spaced from 100µs to ~100s, plus +Inf implicitly).
var latencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// latencyHist is one solver's latency histogram (guarded by
// metrics.mu).
type latencyHist struct {
	buckets []int64 // buckets[i] counts observations ≤ latencyBounds[i]
	count   int64
	sum     float64 // seconds
}

func (h *latencyHist) observe(seconds float64) {
	for i, ub := range latencyBounds {
		if seconds <= ub {
			h.buckets[i]++
		}
	}
	h.count++
	h.sum += seconds
}

// metrics aggregates the service counters exported on /metrics.
type metrics struct {
	submitted atomic.Int64 // jobs enqueued (not cache hits, not dedups)
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	rejected  atomic.Int64 // submits bounced on a full queue

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	dedupHits   atomic.Int64
	// canonicalHits counts exact-cache misses answered from the
	// canonical store (a structurally identical request, solved before
	// under a different literal encoding).
	canonicalHits atomic.Int64

	retries         atomic.Int64 // panicked jobs requeued for their one retry
	breakerRejected atomic.Int64 // submits refused by an open circuit breaker
	degraded        atomic.Int64 // completed jobs that gave up exactness for the memory budget

	// Cluster peer-fill counters.  The fill side is this node asking
	// siblings on a canonical miss; the serve side is this node
	// answering GET /v1/cache/{key} for siblings.
	peerFillHits    atomic.Int64 // canonical misses answered by a sibling's entry
	peerFillMisses  atomic.Int64 // canonical misses no sibling could answer
	peerFillBad     atomic.Int64 // sibling entries rejected by the replay cost-check
	peerServeHits   atomic.Int64 // peer lookups served from the local canonical store
	peerServeWaits  atomic.Int64 // peer lookups that joined an in-flight solve (cross-node singleflight)
	peerServeMisses atomic.Int64

	// Partitioned-solve counters: windows solved, weighted cut columns
	// accepted, and nanoseconds spent stitching (exact-partitioned runs
	// only, whether auto-dispatched or requested).
	partitionParts    atomic.Int64
	partitionCut      atomic.Int64
	partitionStitchNs atomic.Int64

	// Streaming-session counters.
	sessionSteps    atomic.Int64 // demand rows accepted across all sessions
	sessionsEvicted atomic.Int64 // engines checkpointed out under memory pressure
	sessionsRevived atomic.Int64 // engines restored from an evicted checkpoint
	// Suffix lengths of session re-solves (sum + count → mean): how much
	// of the trace each batch actually re-solved.
	suffixSum   atomic.Int64
	suffixCount atomic.Int64

	// Portfolio meta-solver counters: full races run, learned-dispatch
	// confidence shortcuts taken instead of racing, exact-DP incumbent
	// adoptions across all races, and the batch-mode grouping summary
	// (groups opened / jobs that rode a group, leaders included).
	portfolioRaces       atomic.Int64
	portfolioDirect      atomic.Int64
	portfolioTightenings atomic.Int64
	batchGroups          atomic.Int64
	batchJobs            atomic.Int64

	workersBusy atomic.Int64

	// Crash-recovery counters, bumped once per restart by recoverDurable.
	recoveryJobsRequeued    atomic.Int64 // journaled-but-incomplete jobs re-enqueued on boot
	recoverySessionsRevived atomic.Int64 // sessions rebuilt from journaled step batches
	recoveryCacheWarmloaded atomic.Int64 // canonical entries warm-loaded from the disk store

	mu            sync.Mutex
	perSolver     map[string]*latencyHist
	solverStats   map[string][]int64 // per solver, one value per solverStatFamilies row
	panics        map[string]int64   // per-solver panic counts
	portfolioWins map[string]int64   // per-contender portfolio race wins
}

// solverStatFamilies are the per-solver aggregates of completed jobs'
// solve.Stats.  Counters sum over jobs; the gauge is a high-water mark:
// the largest DP frontier any job of that solver ever held, the
// quantity that bounds the engine's memory.
var solverStatFamilies = []struct {
	name, kind string
	field      func(solve.Stats) int64
}{
	{"hyperd_solver_states_expanded_total", "counter", func(s solve.Stats) int64 { return s.StatesExpanded }},
	{"hyperd_solver_dedup_hits_total", "counter", func(s solve.Stats) int64 { return s.DedupHits }},
	{"hyperd_solver_peak_frontier", "gauge", func(s solve.Stats) int64 { return s.PeakFrontier }},
	{"hyperd_solver_states_pruned_total", "counter", func(s solve.Stats) int64 { return s.StatesPruned }},
	{"hyperd_solver_dominance_hits_total", "counter", func(s solve.Stats) int64 { return s.DominanceHits }},
	{"hyperd_solver_bound_cutoffs_total", "counter", func(s solve.Stats) int64 { return s.BoundCutoffs }},
	{"hyperd_solver_preprocess_reduction_total", "counter", func(s solve.Stats) int64 { return s.PreprocessReduction }},
	{"hyperd_solver_budget_dropped_total", "counter", func(s solve.Stats) int64 { return s.BudgetDropped }},
}

func newMetrics() *metrics {
	return &metrics{
		perSolver:     map[string]*latencyHist{},
		solverStats:   map[string][]int64{},
		panics:        map[string]int64{},
		portfolioWins: map[string]int64{},
	}
}

// recordPortfolio folds one completed portfolio solve into the race
// counters: race-vs-direct, the winner tally, and the incumbent
// exchanges its exact lane adopted.
func (m *metrics) recordPortfolio(sol *solve.Solution) {
	if len(sol.Contenders) == 0 {
		return
	}
	m.portfolioTightenings.Add(sol.Stats.IncumbentTightenings)
	var winner string
	direct := false
	for _, c := range sol.Contenders {
		if c.Won {
			winner, direct = c.Solver, c.Direct
		}
	}
	if direct {
		m.portfolioDirect.Add(1)
	} else {
		m.portfolioRaces.Add(1)
	}
	if winner != "" {
		m.mu.Lock()
		m.portfolioWins[winner]++
		m.mu.Unlock()
	}
}

// recordPanic counts one solver panic (isolated, never fatal to the
// server) under its solver label.
func (m *metrics) recordPanic(solver string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics[solver]++
}

// observeSuffix records how many trailing trace steps one session batch
// re-solved.
func (m *metrics) observeSuffix(n int64) {
	m.suffixSum.Add(n)
	m.suffixCount.Add(1)
}

// observe records one completed solve's wall time under its solver.
func (m *metrics) observe(solver string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.perSolver[solver]
	if !ok {
		h = &latencyHist{buckets: make([]int64, len(latencyBounds))}
		m.perSolver[solver] = h
	}
	h.observe(d.Seconds())
}

// observeStats folds one completed solve's run statistics into the
// per-solver aggregates.
func (m *metrics) observeStats(solver string, st solve.Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	agg, ok := m.solverStats[solver]
	if !ok {
		agg = make([]int64, len(solverStatFamilies))
		m.solverStats[solver] = agg
	}
	for i, f := range solverStatFamilies {
		if v := f.field(st); f.kind == "counter" {
			agg[i] += v
		} else if v > agg[i] {
			agg[i] = v
		}
	}
}

// gauges are point-in-time values the server snapshots at render time.
type gauges struct {
	queueDepth    int
	queueCapacity int
	workers       int
	cacheEntries  int
	jobsByState   map[JobState]int
	breakerStates map[string]resilience.BreakerState

	sessionsActive int
	sessionBytes   int64

	// wal is the durable journal's counters; nil when the server runs
	// without a data dir.
	wal *durable.WALStats
}

// render writes the Prometheus text exposition format.
func (m *metrics) render(w io.Writer, g gauges) {
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v)
	}
	counter("hyperd_jobs_submitted_total", m.submitted.Load())
	counter("hyperd_jobs_completed_total", m.completed.Load())
	counter("hyperd_jobs_failed_total", m.failed.Load())
	counter("hyperd_jobs_canceled_total", m.canceled.Load())
	counter("hyperd_jobs_rejected_total", m.rejected.Load())
	counter("hyperd_cache_hits_total", m.cacheHits.Load())
	counter("hyperd_cache_misses_total", m.cacheMisses.Load())
	counter("hyperd_dedup_hits_total", m.dedupHits.Load())
	counter("hyperd_cache_canonical_hits_total", m.canonicalHits.Load())
	counter("hyperd_retries_total", m.retries.Load())
	counter("hyperd_breaker_rejected_total", m.breakerRejected.Load())
	counter("hyperd_jobs_degraded_total", m.degraded.Load())
	counter("hyperd_cluster_peer_fill_hits_total", m.peerFillHits.Load())
	counter("hyperd_cluster_peer_fill_misses_total", m.peerFillMisses.Load())
	counter("hyperd_cluster_peer_fill_rejected_total", m.peerFillBad.Load())
	counter("hyperd_cluster_peer_serve_hits_total", m.peerServeHits.Load())
	counter("hyperd_cluster_peer_serve_waits_total", m.peerServeWaits.Load())
	counter("hyperd_cluster_peer_serve_misses_total", m.peerServeMisses.Load())
	gauge("hyperd_queue_depth", int64(g.queueDepth))
	gauge("hyperd_queue_capacity", int64(g.queueCapacity))
	gauge("hyperd_workers", int64(g.workers))
	gauge("hyperd_workers_busy", m.workersBusy.Load())
	gauge("hyperd_cache_entries", int64(g.cacheEntries))
	gauge("hyperd_sessions_active", int64(g.sessionsActive))
	gauge("hyperd_session_engine_bytes", g.sessionBytes)
	counter("hyperd_partition_parts_total", m.partitionParts.Load())
	counter("hyperd_partition_cut_columns_total", m.partitionCut.Load())
	counter("hyperd_partition_stitch_ns_total", m.partitionStitchNs.Load())
	counter("hyperd_session_steps_total", m.sessionSteps.Load())
	counter("hyperd_sessions_evicted_total", m.sessionsEvicted.Load())
	counter("hyperd_sessions_revived_total", m.sessionsRevived.Load())
	fmt.Fprintf(w, "# TYPE hyperd_session_resolve_suffix_len summary\n")
	fmt.Fprintf(w, "hyperd_session_resolve_suffix_len_sum %d\n", m.suffixSum.Load())
	fmt.Fprintf(w, "hyperd_session_resolve_suffix_len_count %d\n", m.suffixCount.Load())
	counter("hyperd_portfolio_races_total", m.portfolioRaces.Load())
	counter("hyperd_portfolio_dispatch_direct_total", m.portfolioDirect.Load())
	counter("hyperd_portfolio_incumbent_tightenings_total", m.portfolioTightenings.Load())
	fmt.Fprintf(w, "# TYPE hyperd_portfolio_batch_group_size summary\n")
	fmt.Fprintf(w, "hyperd_portfolio_batch_group_size_sum %d\n", m.batchJobs.Load())
	fmt.Fprintf(w, "hyperd_portfolio_batch_group_size_count %d\n", m.batchGroups.Load())

	if g.wal != nil {
		counter("hyperd_wal_appends_total", g.wal.Appends)
		counter("hyperd_wal_fsyncs_total", g.wal.Fsyncs)
		counter("hyperd_wal_replayed_records_total", g.wal.Replayed)
		counter("hyperd_wal_dropped_tail_records_total", g.wal.DroppedTail)
		gauge("hyperd_wal_segments", int64(g.wal.Segments))
		gauge("hyperd_wal_bytes", g.wal.Bytes)
		fmt.Fprintf(w, "# TYPE hyperd_wal_flush_seconds summary\n")
		fmt.Fprintf(w, "hyperd_wal_flush_seconds_sum %g\n", g.wal.FlushSeconds)
		fmt.Fprintf(w, "hyperd_wal_flush_seconds_count %d\n", g.wal.FlushCount)
		counter("hyperd_recovery_jobs_requeued", m.recoveryJobsRequeued.Load())
		counter("hyperd_recovery_sessions_revived", m.recoverySessionsRevived.Load())
		counter("hyperd_recovery_cache_warmloaded", m.recoveryCacheWarmloaded.Load())
	}

	fmt.Fprintf(w, "# TYPE hyperd_jobs gauge\n")
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		fmt.Fprintf(w, "hyperd_jobs{state=%q} %d\n", st, g.jobsByState[st])
	}

	// 0 closed, 1 half-open, 2 open — the resilience.BreakerState
	// enumeration order.
	writeLabelled(w, "hyperd_breaker_state", "gauge", g.breakerStates)

	m.mu.Lock()
	defer m.mu.Unlock()
	solvers := sortedKeys(m.perSolver)
	if len(solvers) > 0 {
		fmt.Fprintf(w, "# TYPE hyperd_solve_seconds histogram\n")
	}
	for _, name := range solvers {
		h := m.perSolver[name]
		for i, ub := range latencyBounds {
			fmt.Fprintf(w, "hyperd_solve_seconds_bucket{solver=%q,le=%q} %d\n", name, trimFloat(ub), h.buckets[i])
		}
		fmt.Fprintf(w, "hyperd_solve_seconds_bucket{solver=%q,le=\"+Inf\"} %d\n", name, h.count)
		fmt.Fprintf(w, "hyperd_solve_seconds_sum{solver=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "hyperd_solve_seconds_count{solver=%q} %d\n", name, h.count)
	}

	writeLabelled(w, "hyperd_portfolio_wins_total", "counter", m.portfolioWins)
	writeLabelled(w, "hyperd_solver_panics_total", "counter", m.panics)
	for i, f := range solverStatFamilies {
		values := make(map[string]int64, len(m.solverStats))
		for name, agg := range m.solverStats {
			values[name] = agg[i]
		}
		writeLabelled(w, f.name, f.kind, values)
	}
}

// writeLabelled renders one family with one series per solver label,
// sorted by solver; an empty family renders nothing.
func writeLabelled[V ~int | ~int64](w io.Writer, name, kind string, values map[string]V) {
	if len(values) == 0 {
		return
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	for _, solver := range sortedKeys(values) {
		fmt.Fprintf(w, "%s{solver=%q} %d\n", name, solver, values[solver])
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// trimFloat renders a bucket bound the way Prometheus clients do
// (shortest representation, no trailing zeros).
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
