package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/partition"
	"repro/internal/portfolio"
	"repro/internal/service"
	"repro/internal/solve"
	"repro/internal/traceio"
)

// replayOps caps how many timed ops a traced run replays through the
// layer packages: every ceil(n/replayOps)-th op, so a traced run stays
// inside the benchmark's time limit.
const replayOps = 200

// hyperd's default routing limits (-max-timeout, -max-frontier-bytes)
// and auto-dispatch threshold (-partition-steps).
var routeLimits = service.RouteLimits{MaxSolveTimeout: time.Minute, MaxFrontierBytes: 1 << 30}

const partitionSteps = 256

// span is one timed interval.  Spans of one op share Req, the op's
// index in the run; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.  The benchmark
// records spans from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, req, parent int, start, end time.Time) int {
	if end.Before(start) {
		end = start
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans)
}

func (t *tracer) begin(name string, req, parent int) int {
	now := time.Now()
	return t.add(name, req, parent, now, now)
}

func (t *tracer) finish(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// selfTime is one span name's summary.
type selfTime struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration minus the part
// of it that its children cover.
func (t *tracer) selfTimes() map[string]*selfTime {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*selfTime{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &selfTime{}
			out[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-covered(s.Start, s.End, children[s.ID])) / 1e6
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of intervals.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, cur int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// tracedRun is the --trace 1 mode.  It runs the workload twice on
// fresh daemons, the first time untraced, turns the second pass into
// per-op spans, reads the daemon's counters from outside, replays a
// sample of the ops through the layer packages under the same request
// ids, and reports the per-layer metrics, then drives the workload's
// companions (below) for the layers its own traffic does not reach.
func tracedRun(ctx context.Context, cfg config, p *plan) (result, error) {
	plain, err := runPass(ctx, cfg, p, 1)
	if err != nil {
		return result{}, err
	}
	plainOC := check(ctx, p, plain)
	tr := &tracer{t0: time.Now()}
	ps, err := runPass(ctx, cfg, p, 1)
	if err != nil {
		return result{}, err
	}
	oc := check(ctx, p, ps)
	for _, msg := range append(plainOC.problems, oc.problems...) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	opSpans(tr, p, ps, oc)
	m := serverLayers(p, ps, oc)
	if err := replay(ctx, tr, p, oc, m); err != nil {
		return result{}, err
	}
	overhead := p50(oc) - p50(plainOC)
	m["bench.trace_overhead_ms"] = metric{overhead, "ms"}
	if err := dumpTrace(cfg, p, tr, overhead); err != nil {
		return result{}, err
	}
	r := result{
		Correct:   plainOC.failed == 0 && oc.failed == 0,
		Attempted: plainOC.attempted + oc.attempted,
		Failed:    plainOC.failed + oc.failed,
		Metrics:   m,
	}
	for _, c := range companions[p.name] {
		coc, err := runCompanion(ctx, cfg, c, m)
		if err != nil {
			return result{}, fmt.Errorf("companion %s: %w", c.workload, err)
		}
		r.Correct = r.Correct && coc.failed == 0
		r.Attempted += coc.attempted
		r.Failed += coc.failed
	}
	return r, nil
}

// companion is a workload that is no longer timed on its own (its
// end-to-end figures did not repeat on the shared 2-vCPU host; see
// README.md) but whose layers no timed workload exercises.  A kept
// workload's traced run drives it for companionSeconds on its own
// fresh daemon, checks its answers like any pass, and takes from it
// the metrics named in keys (a key ending in "." is a prefix).
type companion struct {
	workload string
	keys     []string
}

var companions = map[string][]companion{
	"exact-cold": {
		{"cache-twins", []string{"service.cache_hit_ratio", "service.canonical_hit_ratio", "service.dedup_hits"}},
		{"portfolio-mixed", []string{"portfolio.", "ga.", "bench.late_ms"}},
	},
}

// companionSeconds sizes a companion pass: enough ops for the cache
// and dispatch counters, short enough to keep the traced run inside the
// benchmark's time limit.
const companionSeconds = 3

func runCompanion(ctx context.Context, cfg config, c companion, m map[string]metric) (*outcome, error) {
	p, err := buildPlan(c.workload, cfg.seed, companionSeconds)
	if err != nil {
		return nil, err
	}
	logMeta(cfg, c.workload)
	tr := &tracer{t0: time.Now()}
	ps, err := runPass(ctx, cfg, p, 1)
	if err != nil {
		return nil, err
	}
	oc := check(ctx, p, ps)
	for _, msg := range oc.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	opSpans(tr, p, ps, oc)
	cm := serverLayers(p, ps, oc)
	if err := replay(ctx, tr, p, oc, cm); err != nil {
		return nil, err
	}
	if err := dumpTrace(cfg, p, tr, math.NaN()); err != nil {
		return nil, err
	}
	for k, v := range cm {
		for _, key := range c.keys {
			if k == key || strings.HasSuffix(key, ".") && strings.HasPrefix(k, key) {
				m[k] = v
			}
		}
	}
	return oc, nil
}

func p50(oc *outcome) float64 {
	var lat []float64
	for _, a := range oc.answers {
		if a.ok {
			lat = append(lat, ms(a.latency))
		}
	}
	return quantile(lat, 0.5)
}

// opSpans derives each timed op's spans from the client timestamps and
// the job's submitted/started/finished times: service.front up to the
// submit and after the finish, service.queue and service.run between.
func opSpans(tr *tracer, p *plan, ps *pass, oc *outcome) {
	for i, o := range p.ops {
		r, a := ps.results[i], oc.answers[i]
		if !a.ok {
			continue
		}
		if a.job == nil {
			tr.add("op.session_batch", i, 0, r.start, r.end)
			continue
		}
		j := a.job
		begin := r.start
		if o.kind == kindJob {
			begin = r.due
		}
		root := tr.add("op", i, 0, begin, r.end)
		if o.kind == kindJob {
			tr.add("bench.late", i, root, r.due, r.start)
		}
		tr.add("service.front", i, root, r.start, j.SubmittedAt)
		tr.add("service.queue", i, root, j.SubmittedAt, *j.StartedAt)
		tr.add("service.run", i, root, *j.StartedAt, *j.FinishedAt)
		if o.kind == kindJob {
			tr.add("bench.wait", i, root, *j.FinishedAt, r.end)
		} else {
			tr.add("service.front", i, root, *j.FinishedAt, r.end)
		}
	}
	for i := range ps.opens {
		tr.add("op.session_create", -1-i, 0, ps.opens[i].start, ps.opens[i].end)
	}
}

// serverLayers computes the layer metrics of the traced pass that the
// client timestamps and the daemon's /metrics and /proc counters give.
func serverLayers(p *plan, ps *pass, oc *outcome) map[string]metric {
	n := float64(len(p.ops))
	d := func(series string) float64 { return delta(ps.before, ps.after, series) }
	var front, queue, run, wall, reqKB, respKB, expanded, late, create []float64
	for i, o := range p.ops {
		r, a := ps.results[i], oc.answers[i]
		reqKB = append(reqKB, float64(len(o.body))/1024)
		respKB = append(respKB, float64(len(r.body))/1024)
		if !a.ok {
			continue
		}
		if a.sess != nil {
			expanded = append(expanded, float64(a.sess.ResolveExpanded))
			continue
		}
		j := a.job
		queue = append(queue, ms(j.StartedAt.Sub(j.SubmittedAt)))
		run = append(run, ms(j.FinishedAt.Sub(*j.StartedAt)))
		if !j.CacheHit {
			wall = append(wall, j.Result.Stats.WallMS)
		}
		if o.kind == kindJob {
			front = append(front, ms(r.submitRTT))
			late = append(late, ms(r.start.Sub(r.due)))
		} else {
			front = append(front, ms(r.end.Sub(r.start)-j.FinishedAt.Sub(j.SubmittedAt)))
		}
	}
	for _, r := range ps.opens {
		create = append(create, ms(r.end.Sub(r.start)))
	}
	lookups := d("hyperd_cache_hits_total") + d("hyperd_cache_misses_total")
	wins := map[string]float64{}
	allWins := 0.0
	for _, s := range []string{"exact", "exact-partitioned", "beam", "ga"} {
		wins[s] = d(fmt.Sprintf("hyperd_portfolio_wins_total{solver=%q}", s))
		allWins += wins[s]
	}
	races, direct := d("hyperd_portfolio_races_total"), d("hyperd_portfolio_dispatch_direct_total")
	m := map[string]metric{
		"service.front_ms":                 {mean(front), "ms"},
		"service.req_kb":                   {mean(reqKB), "KiB"},
		"service.resp_kb":                  {mean(respKB), "KiB"},
		"service.cache_hit_ratio":          {ratio(d("hyperd_cache_hits_total"), lookups), "ratio"},
		"service.canonical_hit_ratio":      {ratio(d("hyperd_cache_canonical_hits_total"), lookups), "ratio"},
		"service.dedup_hits":               {d("hyperd_dedup_hits_total"), "count"},
		"service.queue_ms":                 {mean(queue), "ms"},
		"service.run_ms":                   {mean(run), "ms"},
		"service.rejected":                 {d("hyperd_jobs_rejected_total"), "count"},
		"service.session_create_ms":        {mean(create), "ms"},
		"service.session_resolve_expanded": {mean(expanded), "count"},
		"service.session_suffix_len":       {ratio(d("hyperd_session_resolve_suffix_len_sum"), d("hyperd_session_resolve_suffix_len_count")), "steps"},
		"service.session_evicted":          {d("hyperd_sessions_evicted_total"), "count"},
		"solve.wall_ms":                    {mean(wall), "ms"},
		"portfolio.direct_share":           {ratio(direct, races+direct), "ratio"},
		"portfolio.batch_share":            {ratio(d("hyperd_portfolio_batch_group_size_sum")-d("hyperd_portfolio_batch_group_size_count"), races+direct), "ratio"},
		"portfolio.incumbent_tightenings":  {ratio(d("hyperd_portfolio_incumbent_tightenings_total"), n), "count"},
		"durable.appends_per_op":           {ratio(d("hyperd_wal_appends_total"), n), "count"},
		"durable.fsyncs_per_op":            {ratio(d("hyperd_wal_fsyncs_total"), n), "count"},
		"durable.flush_ms":                 {1000 * ratio(d("hyperd_wal_flush_seconds_sum"), d("hyperd_wal_flush_seconds_count")), "ms"},
		"durable.wal_kb_per_op":            {ratio(d("hyperd_wal_bytes"), n*1024), "KiB"},
		"proc.ctx_switches_per_op":         {float64(ps.after.volCS+ps.after.nonvolCS-ps.before.volCS-ps.before.nonvolCS) / n, "count"},
		"proc.nonvol_ctx_switches_per_op":  {float64(ps.after.nonvolCS-ps.before.nonvolCS) / n, "count"},
		"proc.sys_ms_per_op":               {float64(ps.after.sysTicks-ps.before.sysTicks) * 1000 / clockTicks / n, "ms"},
		"proc.threads":                     {float64(ps.after.threads), "count"},
		"bench.late_ms":                    {quantile(late, 0.99), "ms"},
	}
	for s, w := range wins {
		m["portfolio.win_share."+s] = metric{ratio(w, allWins), "ratio"}
	}
	return m
}

// layerSums accumulates the replayed layer measurements.
type layerSums struct {
	resolve, canonical, reprice, runW1, runWmax       []float64
	prepare, step, extract, allocKB                   []float64
	expanded, dedup, pruned, cutoffs, dominance, peak []float64
	reduction                                         []float64
	plan, psolve, stitch, windows, cut, bound, pexact []float64
	race, laneExact, laneBeam, laneGA, evals          []float64
	lostLane, allLane                                 float64
}

// replay sends a fixed sample of the timed ops, one at a time and
// under the op's request id, through the public functions of the
// layers hyperd's own path for that op runs: the routing key and
// canonical form always; solve.Run at Workers=1 and at GOMAXPROCS
// where hyperd ran a solver; the stepped mtswitch engine where that
// solver is the monolithic DP (session batches included); the
// partition planner and solver where it is exact-partitioned; a
// portfolio race on a fresh table for portfolio ops; and the cost
// model on the returned schedule.
func replay(ctx context.Context, tr *tracer, p *plan, oc *outcome, m map[string]metric) error {
	var ls layerSums
	stride := (len(p.ops) + replayOps - 1) / replayOps
	replayed := 0
	for i := 0; i < len(p.ops); i += stride {
		o, a := p.ops[i], oc.answers[i]
		if !a.ok {
			continue
		}
		replayed++
		if err := replayOp(ctx, tr, o, a, &ls); err != nil {
			return fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	for k, v := range map[string]metric{
		"service.resolve_ms":            {mean(ls.resolve), "ms"},
		"solve.run_ms_w1":               {mean(ls.runW1), "ms"},
		"solve.run_ms_wmax":             {mean(ls.runWmax), "ms"},
		"mtswitch.prepare_ms":           {mean(ls.prepare), "ms"},
		"mtswitch.step_ms":              {mean(ls.step), "ms"},
		"mtswitch.extract_ms":           {mean(ls.extract), "ms"},
		"mtswitch.canonical_ms":         {mean(ls.canonical), "ms"},
		"mtswitch.states_expanded":      {mean(ls.expanded), "count"},
		"mtswitch.dedup_hits":           {mean(ls.dedup), "count"},
		"mtswitch.states_pruned":        {mean(ls.pruned), "count"},
		"mtswitch.bound_cutoffs":        {mean(ls.cutoffs), "count"},
		"mtswitch.dominance_hits":       {mean(ls.dominance), "count"},
		"mtswitch.peak_frontier":        {mean(ls.peak), "count"},
		"mtswitch.preprocess_reduction": {mean(ls.reduction), "count"},
		"mtswitch.dedup_ratio":          {ratio(sum(ls.dedup), sum(ls.expanded)), "ratio"},
		"mtswitch.prune_ratio":          {ratio(sum(ls.pruned), sum(ls.pruned)+sum(ls.expanded)), "ratio"},
		"mtswitch.alloc_kb":             {mean(ls.allocKB), "KiB"},
		"partition.plan_ms":             {mean(ls.plan), "ms"},
		"partition.solve_ms":            {mean(ls.psolve), "ms"},
		"partition.stitch_ms":           {mean(ls.stitch), "ms"},
		"partition.windows":             {mean(ls.windows), "count"},
		"partition.cut_columns":         {mean(ls.cut), "count"},
		"partition.stitch_bound":        {mean(ls.bound), "cost"},
		"partition.exact_share":         {mean(ls.pexact), "ratio"},
		"portfolio.race_ms":             {mean(ls.race), "ms"},
		"portfolio.lane_ms.exact":       {mean(ls.laneExact), "ms"},
		"portfolio.lane_ms.beam":        {mean(ls.laneBeam), "ms"},
		"portfolio.lane_ms.ga":          {mean(ls.laneGA), "ms"},
		"portfolio.lost_lane_share":     {ratio(ls.lostLane, ls.allLane), "ratio"},
		"ga.evaluations":                {mean(ls.evals), "count"},
		"model.reprice_ms":              {mean(ls.reprice), "ms"},
		"bench.replay_ops":              {float64(replayed), "count"},
	} {
		m[k] = v
	}
	return nil
}

func replayOp(ctx context.Context, tr *tracer, o *op, a answer, ls *layerSums) error {
	req := o.idx
	root := tr.begin("replay", req, 0)
	defer tr.finish(root)
	timed := func(name string, parent int, dst *[]float64, fn func() error) error {
		id := tr.begin(name, req, parent)
		err := fn()
		*dst = append(*dst, ms(tr.finish(id)))
		return err
	}
	inst := solve.NewMT(o.inst, o.cost)
	opts := replayOptions()

	// The request as hyperd decodes it (a session batch resolves as the
	// session's whole trace).
	var routingKey func() error
	if o.kind == kindBatch {
		sr := &service.SessionRequest{Solver: "exact", Instance: service.WireInstanceFrom(o.inst), Upload: uploadName(o.cost)}
		routingKey = func() error { _, err := sr.RoutingKey(routeLimits); return err }
	} else {
		sr := &service.SolveRequest{}
		if err := json.Unmarshal(o.body, sr); err != nil {
			return err
		}
		routingKey = func() error { _, err := sr.RoutingKey(routeLimits); return err }
	}
	if err := timed("service.resolve", root, &ls.resolve, routingKey); err != nil {
		return err
	}
	timed("mtswitch.canonical", root, &ls.canonical, func() error { mtswitch.CanonicalForm(o.inst); return nil })

	// Which layers hyperd's own path for this op runs.
	var solver string
	monolithic, partitioned, race := false, false, false
	switch {
	case o.kind == kindBatch:
		monolithic = true
	case o.solver == "portfolio":
		solver, race = "portfolio", true
		partitioned = partition.AutoPartitions(o.inst.Steps()) > 1
		monolithic = !partitioned
	case a.job.CacheHit:
	case o.inst.Steps() >= partitionSteps:
		solver, partitioned = "exact-partitioned", true
	default:
		solver, monolithic = o.solver, true
	}
	if solver != "" {
		w1, wmax := opts, opts
		w1.Workers, wmax.Workers = 1, runtime.GOMAXPROCS(0)
		if err := timed("solve.run.w1", root, &ls.runW1, func() error { _, err := solve.Run(ctx, solver, inst, w1); return err }); err != nil {
			return err
		}
		if err := timed("solve.run.wmax", root, &ls.runWmax, func() error { _, err := solve.Run(ctx, solver, inst, wmax); return err }); err != nil {
			return err
		}
	}
	if monolithic {
		if err := replayEngine(ctx, tr, req, root, o, opts, ls); err != nil {
			return err
		}
	}
	if partitioned {
		timed("partition.plan", root, &ls.plan, func() error { partition.PlanWindows(o.inst, 0, 0); return nil })
		var sol *mtswitch.Solution
		if err := timed("partition.solve", root, &ls.psolve, func() (err error) { sol, err = partition.Solve(ctx, o.inst, o.cost, opts); return err }); err != nil {
			return err
		}
		st := sol.Stats
		ls.stitch = append(ls.stitch, ms(st.StitchTime))
		ls.windows = append(ls.windows, float64(st.Partitions))
		ls.cut = append(ls.cut, float64(st.CutColumns))
		ls.bound = append(ls.bound, float64(st.StitchBound))
		ls.pexact = append(ls.pexact, b2f(partition.IsExact(sol)))
	}
	if race {
		rc := portfolio.Defaults()
		rc.Table = portfolio.NewTable()
		start := time.Now()
		id := tr.begin("portfolio.race", req, root)
		sol, err := portfolio.Race(ctx, inst, opts, rc)
		ls.race = append(ls.race, ms(tr.finish(id)))
		if err != nil {
			return err
		}
		for _, c := range sol.Contenders {
			lane := c.Solver
			if lane == "exact-partitioned" {
				lane = "exact"
			}
			tr.add("portfolio.lane."+lane, req, id, start, start.Add(c.WallTime))
			w := ms(c.WallTime)
			switch lane {
			case "exact":
				ls.laneExact = append(ls.laneExact, w)
			case "beam":
				ls.laneBeam = append(ls.laneBeam, w)
			case "ga":
				ls.laneGA = append(ls.laneGA, w)
				ls.evals = append(ls.evals, float64(c.Stats.Evaluations))
			}
			ls.allLane += w
			if !c.Won {
				ls.lostLane += w
			}
		}
	}
	ws := a.result()
	_, sched, err := traceio.ReadScheduleJSON(bytes.NewReader(ws.Schedule))
	if err != nil {
		return err
	}
	return timed("model.reprice", root, &ls.reprice, func() error { _, err := o.inst.Cost(sched, o.cost); return err })
}

// replayEngine drives the stepped engine one step per Advance: the
// first Advance is the prepare phase, later ones are steps, and
// Solution is the extract.
func replayEngine(ctx context.Context, tr *tracer, req, root int, o *op, opts solve.Options, ls *layerSums) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin("mtswitch.engine", req, root)
	en, err := mtswitch.NewEngine(ctx, o.inst, o.cost, opts, false)
	if err != nil {
		return err
	}
	defer en.Close()
	var stepMS float64
	for k := 0; ; k++ {
		name := "mtswitch.step"
		if k == 0 {
			name = "mtswitch.prepare"
		}
		s := tr.begin(name, req, id)
		done, err := en.Advance(ctx, 1)
		d := ms(tr.finish(s))
		if err != nil {
			return err
		}
		if k == 0 {
			ls.prepare = append(ls.prepare, d)
		} else {
			stepMS += d
		}
		if done {
			break
		}
	}
	ls.step = append(ls.step, stepMS)
	x := tr.begin("mtswitch.extract", req, id)
	sol, err := en.Solution(ctx)
	ls.extract = append(ls.extract, ms(tr.finish(x)))
	tr.finish(id)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	ls.allocKB = append(ls.allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
	st := sol.Stats
	ls.expanded = append(ls.expanded, float64(st.StatesExpanded))
	ls.dedup = append(ls.dedup, float64(st.DedupHits))
	ls.pruned = append(ls.pruned, float64(st.StatesPruned))
	ls.cutoffs = append(ls.cutoffs, float64(st.BoundCutoffs))
	ls.dominance = append(ls.dominance, float64(st.DominanceHits))
	ls.peak = append(ls.peak, float64(st.PeakFrontier))
	ls.reduction = append(ls.reduction, float64(st.PreprocessReduction))
	return nil
}

func (a answer) result() *service.WireSolution {
	if a.sess != nil {
		return a.sess.Result
	}
	return a.job.Result
}

func uploadName(c model.CostOptions) string {
	if c.HyperUpload == model.TaskSequential {
		return "sequential"
	}
	return ""
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// dumpTrace writes the spans and the per-name self times as JSON and
// prints the self-time summary and the tracing overhead (NaN: a
// companion pass, which has no untraced twin).
func dumpTrace(cfg config, p *plan, tr *tracer, overhead float64) error {
	self := tr.selfTimes()
	path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", p.name, cfg.seed))
	dump := map[string]any{
		"workload": p.name,
		"seed":     cfg.seed,
		"seconds":  p.seconds,
		"self":     self,
		"spans":    tr.spans,
	}
	if !math.IsNaN(overhead) {
		dump["tracing_overhead_ms"] = overhead
	}
	data, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]].SelfMS > self[names[b]].SelfMS })
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s; self time per span name:\n", len(tr.spans), path)
	for _, n := range names {
		s := self[n]
		fmt.Fprintf(os.Stderr, "  %-28s %7d spans %12.3f ms total %12.3f ms self\n", n, s.Count, s.TotalMS, s.SelfMS)
	}
	if !math.IsNaN(overhead) {
		fmt.Fprintf(os.Stderr, "perfbench: tracing overhead: traced p50 - untraced p50 = %.4f ms\n", overhead)
	}
	return nil
}
