package mtswitch

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// Engine is the stepped form of SolveExact: the same packed frontier
// DP, pruned layer and extraction pipeline, but driven one step at a
// time so the solve can be paused, checkpointed (checkpoint.go),
// extended with new demand rows and partially re-solved.  SolveExact
// is literally "new engine, run to the end, extract", so a one-shot
// Engine is bit-identical to the former monolithic solver.
//
// Two operating modes:
//
//   - One-shot (incremental=false): the internal packed engine comes
//     from the shared sync.Pool and no per-step frontier frames are
//     retained, so memory and allocation behavior match the old
//     SolveExact exactly.  Extend/Amend/Rewind are rejected.
//
//   - Incremental (incremental=true): the engine owns its buffers and,
//     while the pruned layer is off, retains a frame (frontier copy)
//     per completed step.  Extend appends demand rows and resumes from
//     the deepest frame that is still valid for the grown trace;
//     Amend replaces already-submitted rows and re-solves only the
//     suffix they invalidate.  Both are exact: the frontier entering
//     step t depends only on the requirements and install candidates
//     of steps < t, so comparing the rebuilt candidate catalog against
//     the old one per (task, step) identifies the first step whose DP
//     inputs changed, and everything before it is reusable verbatim.
//
// With pruning enabled the step axis itself is a preprocessing
// artifact (run-length compression) and the incumbent, bounds and
// dominance tables are trace-global, so Extend/Amend fall back to a
// full rebuild of the solve state — still correct, just without
// frontier reuse (LastResolveStart reports 0).  Sequential-decomposed
// and zero-step instances are not stepped at all; Solution delegates
// to the specialized solvers on the current trace.
//
// An Engine is not safe for concurrent use; callers serialize access
// (the service layer holds one mutex per session).
type Engine struct {
	opt model.CostOptions
	o   solve.Options

	incremental bool
	pooled      bool // internal engine borrowed from enginePool

	tasks []model.Task
	rows  [][]bitset.Set // task-major authoritative trace (owned clones when incremental)
	pub   int
	w     model.Cost
	ins   *model.MTSwitchInstance

	// Prepared solve state; zero until ensurePrepared.
	prepared bool
	red      *reduction
	px       *pruneContext
	incCost  model.Cost
	incMask  [][]bool
	target   *model.MTSwitchInstance
	e        *engine

	// frames[i] is a copy of the frontier entering step frameBase+i
	// (incremental mode, pruning off).  frameBase is nonzero only on
	// engines resumed from a checkpoint, which start with a single
	// frame at the restored step.
	frames    []frame
	frameBase int

	// emptied records that the pruned layer cut every successor
	// (errFrontierEmptied): the warm-start incumbent is the answer.
	emptied bool

	lastResolveStart int
	baseExpanded     int64

	sol    *Solution
	closed bool
}

// frame is one retained frontier: the packed state slab and costs
// entering a step.
type frame struct {
	count int
	slab  []uint64
	costs []model.Cost
}

// NewEngine builds a stepped engine over the instance.  With
// incremental=false the engine is a one-shot stand-in for SolveExact
// (Extend/Amend/Rewind are rejected); with incremental=true it clones
// the requirement rows so the trace can grow independently of the
// caller's instance, and retains per-step frontier frames for suffix
// re-solves while pruning is off.
func NewEngine(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options, incremental bool) (*Engine, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("mtswitch: nil instance")
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	en := &Engine{opt: opt, o: o, incremental: incremental, pub: ins.PublicGlobal, w: ins.W}
	if !incremental {
		en.tasks = ins.Tasks
		en.rows = ins.Reqs
		en.ins = ins
		return en, nil
	}
	en.tasks = append([]model.Task(nil), ins.Tasks...)
	en.rows = make([][]bitset.Set, len(ins.Reqs))
	for j, row := range ins.Reqs {
		cl := make([]bitset.Set, len(row))
		for i, r := range row {
			cl[i] = r.Clone()
		}
		en.rows[j] = cl
	}
	if err := en.rebuildInstance(); err != nil {
		return nil, err
	}
	return en, nil
}

// rebuildInstance revalidates the authoritative rows into a fresh
// instance with its own row headers, so later in-place growth of
// en.rows never changes an instance already handed to the DP.
func (en *Engine) rebuildInstance() error {
	reqs := make([][]bitset.Set, len(en.rows))
	for j := range en.rows {
		reqs[j] = en.rows[j]
	}
	ins, err := model.NewMTSwitchInstance(en.tasks, reqs)
	if err != nil {
		return err
	}
	ins.PublicGlobal = en.pub
	ins.W = en.w
	en.ins = ins
	return nil
}

// Steps reports the current trace length n.
func (en *Engine) Steps() int { return en.ins.Steps() }

// bothSeq reports the fully task-sequential cost, which decomposes per
// task and is never stepped.
func (en *Engine) bothSeq() bool {
	return en.opt.HyperUpload == model.TaskSequential && en.opt.ReconfUpload == model.TaskSequential
}

// canStep reports whether the packed DP (and hence stepping,
// checkpointing and frame reuse) applies to the current trace.
func (en *Engine) canStep() bool { return !en.bothSeq() && en.ins.Steps() > 0 }

// keepFrames reports whether per-step frontier frames are retained.
func (en *Engine) keepFrames() bool {
	return en.incremental && en.e != nil && !en.e.pruneOn
}

// ensurePrepared sets up the full solve pipeline for the current
// trace: the pruned layer (preprocessing, warm start), the internal
// packed engine, the candidate catalog and the root frontier.
func (en *Engine) ensurePrepared(ctx context.Context) error {
	if en.prepared {
		return nil
	}
	en.red, en.px, en.incCost, en.incMask = nil, nil, 0, nil
	target := en.ins
	if !en.o.DisablePruning {
		red := preprocess(en.ins)
		px := &pruneContext{}
		if red != nil {
			target = red.ins
			px.mult = red.mult
			px.weights = red.weights
		}
		incCost, incMask, err := warmStart(ctx, en.ins, en.opt)
		if err != nil {
			return err
		}
		px.incumbent = incCost
		en.red, en.px, en.incCost, en.incMask = red, px, incCost, incMask
		// The warm start is a valid full-schedule cost: seed the shared
		// portfolio board (no-op outside a race).
		solve.IncumbentFrom(ctx).Publish(incCost)
	}
	en.target = target
	if en.e == nil {
		if en.incremental {
			en.e = &engine{}
		} else {
			en.e = getEngine()
			en.pooled = true
		}
	}
	if err := en.e.beginSolve(ctx, target, en.opt, en.o, en.px); err != nil {
		return err
	}
	en.frames = en.frames[:0]
	en.frameBase = 0
	en.emptied = false
	en.sol = nil
	en.lastResolveStart = 0
	en.baseExpanded = 0
	en.prepared = true
	if en.keepFrames() {
		en.captureFrame()
	}
	return nil
}

// captureFrame copies the current frontier as the frame entering step
// e.step.
func (en *Engine) captureFrame() {
	e := en.e
	sw := e.lay.setWords
	en.frames = append(en.frames, frame{
		count: e.count,
		slab:  append([]uint64(nil), e.slab[:e.count*sw]...),
		costs: append([]model.Cost(nil), e.costs[:e.count]...),
	})
}

// restoreFrame rewinds the internal engine to the frontier entering
// step b (which must have a retained frame).
func (en *Engine) restoreFrame(b int) {
	e := en.e
	f := en.frames[b-en.frameBase]
	sw := e.lay.setWords
	e.slab = growWords(e.slab, f.count*sw)
	copy(e.slab, f.slab)
	if cap(e.costs) < f.count {
		e.costs = make([]model.Cost, f.count)
	}
	e.costs = e.costs[:f.count]
	copy(e.costs, f.costs)
	e.count = f.count
	e.step = b
	e.gens = e.gens[:b]
	en.frames = en.frames[:b-en.frameBase+1]
	en.emptied = false
}

// reset discards all prepared solve state; the next Solution/Advance
// rebuilds it from the authoritative trace.
func (en *Engine) reset() {
	en.prepared = false
	en.frames = en.frames[:0]
	en.frameBase = 0
	en.emptied = false
	en.sol = nil
	en.lastResolveStart = 0
	en.baseExpanded = 0
	en.red, en.px, en.incMask, en.incCost = nil, nil, nil, 0
	en.target = nil
}

// Advance steps the DP forward by at most maxSteps steps (maxSteps <=
// 0 means run to completion) and reports whether the solve has reached
// the end of the current trace.  Instances the packed DP does not
// apply to (zero steps, fully task-sequential cost) are solved whole
// by Solution; Advance reports them done immediately.
func (en *Engine) Advance(ctx context.Context, maxSteps int) (bool, error) {
	if en.closed {
		return false, fmt.Errorf("mtswitch: engine is closed")
	}
	if err := solve.Checkpoint(ctx); err != nil {
		return false, err
	}
	if !en.canStep() {
		return true, nil
	}
	if err := en.ensurePrepared(ctx); err != nil {
		return false, err
	}
	if en.emptied {
		return true, nil
	}
	n := en.target.Steps()
	for i := 0; (maxSteps <= 0 || i < maxSteps) && en.e.step < n; i++ {
		if err := en.e.stepOnce(ctx); err != nil {
			if err == errFrontierEmptied {
				en.emptied = true
				return true, nil
			}
			return false, err
		}
		if en.keepFrames() {
			en.captureFrame()
		}
	}
	return en.e.step >= n || en.emptied, nil
}

// Solution runs the solve to completion (if it is not already there)
// and extracts the schedule, replicating SolveExact's pipeline: mask
// reconstruction, reduction expansion, canonicalization, repricing and
// the incumbent fallback.  The result is cached until the trace
// changes.
func (en *Engine) Solution(ctx context.Context) (*Solution, error) {
	if en.closed {
		return nil, fmt.Errorf("mtswitch: engine is closed")
	}
	if en.sol != nil {
		return en.sol, nil
	}
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if en.ins.Steps() == 0 {
		sol, err := SolveAligned(ctx, en.ins, en.opt)
		if err != nil {
			return nil, err
		}
		en.sol = sol
		return sol, nil
	}
	if en.bothSeq() {
		sol, err := solveSequentialDecomposed(ctx, en.ins, en.opt)
		if err != nil {
			return nil, err
		}
		en.sol = sol
		return sol, nil
	}
	if _, err := en.Advance(ctx, 0); err != nil {
		return nil, err
	}
	sol, err := en.extract()
	if err != nil {
		return nil, err
	}
	en.sol = sol
	return sol, nil
}

// extract converts the completed DP into a Solution, mirroring the
// tail of the former monolithic SolveExact byte for byte.
func (en *Engine) extract() (*Solution, error) {
	e := en.e
	if en.emptied {
		// A beam/candidate cap dropped every state at least as good as
		// the incumbent; the incumbent itself is the answer (an upper
		// bound, like any truncated result).
		stats := e.stats
		stats.StatesPruned = stats.DominanceHits + stats.BoundCutoffs
		if en.red != nil {
			stats.PreprocessReduction = en.red.cells
		}
		stats.Truncated = true
		return incumbentSolution(en.ins, en.opt, en.incMask, stats)
	}
	mask, dpCost := e.finishMask(en.o)
	stats := e.stats
	if en.red != nil {
		stats.PreprocessReduction = en.red.cells
		mask = en.red.expandMask(mask)
	}

	// Canonicalize and reprice.  Canonical repricing can only improve on
	// the DP value (the DP may hold over-long-horizon candidates for the
	// final segments).
	sched, err := en.ins.CanonicalSchedule(mask)
	if err != nil {
		return nil, err
	}
	cost, err := en.ins.Cost(sched, en.opt)
	if err != nil {
		return nil, err
	}
	if cost > dpCost {
		return nil, fmt.Errorf("mtswitch: canonical repricing %d above DP bound %d", cost, dpCost)
	}
	if en.px != nil && cost > en.incCost {
		// Only possible on a truncated run — an untruncated pruned DP
		// always retains a path at most as expensive as the incumbent.
		stats.Truncated = true
		return incumbentSolution(en.ins, en.opt, en.incMask, stats)
	}
	return &Solution{Schedule: sched, Cost: cost, Stats: stats}, nil
}

// Stats returns the statistics the stepped DP has accumulated so far
// — partial until the solve completes.  Portfolio races use it to
// harvest the work a cancelled contender did before losing.
func (en *Engine) Stats() solve.Stats {
	if en.e == nil {
		return solve.Stats{}
	}
	s := en.e.stats
	s.StatesPruned = s.DominanceHits + s.BoundCutoffs
	if en.red != nil {
		s.PreprocessReduction = en.red.cells
	}
	return s
}

// validateRows checks a step-major batch of demand rows against the
// engine's task shapes.
func (en *Engine) validateRows(steps [][]bitset.Set) error {
	m := len(en.tasks)
	for i, row := range steps {
		if len(row) != m {
			return fmt.Errorf("mtswitch: step row %d has %d tasks, want %d", i, len(row), m)
		}
		for j, r := range row {
			if r.Universe() != en.tasks[j].Local {
				return fmt.Errorf("mtswitch: step row %d task %q requirement over universe %d, want %d",
					i, en.tasks[j].Name, r.Universe(), en.tasks[j].Local)
			}
		}
	}
	return nil
}

// Extend appends demand rows (step-major: steps[i][j] is task j's
// requirement at appended step i) to the trace and arranges for the
// solve to continue from the deepest reusable frontier.
func (en *Engine) Extend(ctx context.Context, steps [][]bitset.Set) error {
	if en.closed {
		return fmt.Errorf("mtswitch: engine is closed")
	}
	if !en.incremental {
		return fmt.Errorf("mtswitch: one-shot engine cannot be extended")
	}
	if err := solve.Checkpoint(ctx); err != nil {
		return err
	}
	if err := en.validateRows(steps); err != nil {
		return err
	}
	if len(steps) == 0 {
		return nil
	}
	oldN := en.ins.Steps()
	for i := range steps {
		for j := range en.rows {
			en.rows[j] = append(en.rows[j], steps[i][j].Clone())
		}
	}
	if err := en.rebuildInstance(); err != nil {
		return err
	}
	en.sol = nil
	return en.reconcile(ctx, oldN)
}

// Amend replaces the already-submitted rows at steps at..at+len-1
// (step-major, like Extend) and arranges for the suffix they
// invalidate to be re-solved.
func (en *Engine) Amend(ctx context.Context, at int, steps [][]bitset.Set) error {
	if en.closed {
		return fmt.Errorf("mtswitch: engine is closed")
	}
	if !en.incremental {
		return fmt.Errorf("mtswitch: one-shot engine cannot be amended")
	}
	if err := solve.Checkpoint(ctx); err != nil {
		return err
	}
	if err := en.validateRows(steps); err != nil {
		return err
	}
	if at < 0 || at+len(steps) > en.ins.Steps() {
		return fmt.Errorf("mtswitch: amend window [%d,%d) outside trace of %d steps", at, at+len(steps), en.ins.Steps())
	}
	if len(steps) == 0 {
		return nil
	}
	for i := range steps {
		for j := range en.rows {
			en.rows[j][at+i] = steps[i][j].Clone()
		}
	}
	if err := en.rebuildInstance(); err != nil {
		return err
	}
	en.sol = nil
	return en.reconcile(ctx, at)
}

// Rewind discards the solved suffix from the given step onward, so the
// next Advance/Solution re-runs it.  Steps not yet reached are a
// no-op; without retained frames (pruning on, or a checkpoint-resumed
// engine rewound past its restore point) the whole solve state is
// rebuilt instead.
func (en *Engine) Rewind(step int) error {
	if en.closed {
		return fmt.Errorf("mtswitch: engine is closed")
	}
	if !en.incremental {
		return fmt.Errorf("mtswitch: one-shot engine cannot be rewound")
	}
	if step < 0 || step > en.ins.Steps() {
		return fmt.Errorf("mtswitch: rewind to step %d outside trace of %d steps", step, en.ins.Steps())
	}
	en.sol = nil
	if !en.prepared {
		return nil
	}
	if !en.keepFrames() || step < en.frameBase {
		en.reset()
		return nil
	}
	if step >= en.e.step {
		return nil
	}
	en.restoreFrame(step)
	en.lastResolveStart = step
	en.baseExpanded = en.e.stats.StatesExpanded
	return nil
}

// reconcile brings a prepared solve in line with the mutated trace.
// changedFrom is the smallest step whose requirement row changed
// (Steps() before the append for Extend, the amend offset for Amend).
// While frames are retained (pruning off) the rebuilt candidate
// catalog is compared against the old one — candidates at early steps
// reach into the future through their horizon unions, so an appended
// row can invalidate steps long before changedFrom — and the solve
// resumes from the first step whose DP inputs differ.  Otherwise the
// prepared state is discarded wholesale.
func (en *Engine) reconcile(ctx context.Context, changedFrom int) error {
	if !en.prepared {
		return nil
	}
	if !en.keepFrames() {
		en.reset()
		return nil
	}
	e := en.e
	oldCands := e.cands
	e.ins = en.ins
	en.target = en.ins

	// Re-pack the requirement rows for the grown/amended trace.
	m, n := len(en.tasks), en.ins.Steps()
	e.reqs = e.reqs[:0]
	for j := 0; j < m; j++ {
		tw := e.lay.taskWords[j]
		flat := make([]uint64, n*tw)
		for i := 0; i < n; i++ {
			copy(flat[i*tw:(i+1)*tw], en.ins.Reqs[j][i].Words())
		}
		e.reqs = append(e.reqs, flat)
	}
	if err := e.buildCandidates(ctx, en.o); err != nil {
		en.reset()
		return err
	}

	// The frontier entering step t depends only on requirements and
	// candidates of steps < t, so the first (task, step) whose FINAL
	// candidate list changed (after the MaxCandidates and byte-budget
	// trims, which the fresh build reapplies deterministically) bounds
	// how deep the old run remains valid.
	b := changedFrom
scan:
	for t := 0; t < changedFrom; t++ {
		for j := 0; j < m; j++ {
			if !candsEqual(&oldCands[j][t], &e.cands[j][t]) {
				b = t
				break scan
			}
		}
	}

	if b < en.frameBase {
		// A checkpoint-resumed engine has no frames before its restore
		// point; rebuild from scratch.
		en.reset()
		return nil
	}
	if b < e.step {
		en.restoreFrame(b)
		en.lastResolveStart = b
	} else {
		// The solve never reached the first invalidated step; it simply
		// continues over the new inputs.
		en.lastResolveStart = e.step
	}
	en.emptied = false
	en.baseExpanded = e.stats.StatesExpanded
	return nil
}

// candsEqual compares two final candidate lists of one (task, step).
func candsEqual(a, b *packedCands) bool {
	if a.k != b.k || len(a.words) != len(b.words) {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			return false
		}
	}
	return true
}

// LastResolveStart reports the step index the most recent
// Extend/Amend/Rewind resumed solving from (0 after a full rebuild).
// The re-solved suffix of the current trace is Steps() −
// LastResolveStart.
func (en *Engine) LastResolveStart() int { return en.lastResolveStart }

// ResolveExpanded reports how many DP states the current resolve
// window has expanded — the incremental cost of the latest
// Extend/Amend, comparable against a from-scratch solve's
// Stats.StatesExpanded.
func (en *Engine) ResolveExpanded() int64 {
	if en.e == nil {
		return 0
	}
	return en.e.stats.StatesExpanded - en.baseExpanded
}

// SizeBytes estimates the engine's retained memory: the packed
// frontier, the back-pointer generations and the per-step frames.
// The service layer's session eviction budget is denominated in it.
func (en *Engine) SizeBytes() int64 {
	var total int64
	for j := range en.rows {
		if len(en.rows[j]) > 0 {
			total += int64(len(en.rows[j])) * int64(bitset.WordsFor(en.tasks[j].Local)*8+16)
		}
	}
	if en.e != nil {
		total += int64(cap(en.e.slab))*8 + int64(cap(en.e.costs))*8
		for _, g := range en.e.gens {
			total += int64(len(g.prev))*4 + int64(len(g.hyper))*8
		}
	}
	for _, f := range en.frames {
		total += int64(cap(f.slab))*8 + int64(cap(f.costs))*8 + 16
	}
	return total
}

// Close returns a one-shot engine's internal packed engine to the
// shared pool.  The Engine is unusable afterwards.
func (en *Engine) Close() {
	if en.closed {
		return
	}
	en.closed = true
	if en.e != nil {
		if en.pooled {
			putEngine(en.e)
		}
		en.e = nil
	}
	en.frames = nil
	en.sol = nil
}
