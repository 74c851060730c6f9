package mtswitch

import (
	"context"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// Engine is the stepped form of SolveExact: the same packed frontier
// DP, pruned layer and extraction pipeline, but driven one step at a
// time so the solve can be extended with new demand rows and partially
// re-solved.  SolveExact is literally "new engine, run to the end,
// extract", so a one-shot Engine is bit-identical to the former
// monolithic solver.
//
// Two operating modes:
//
//   - One-shot (incremental=false): the internal packed engine comes
//     from the shared sync.Pool and no per-step frontier frames are
//     retained, so memory and allocation behavior match the old
//     SolveExact exactly.  Extend/Amend are rejected.
//
//   - Incremental (incremental=true): the engine owns its buffers and
//     retains a frame per completed step, pruning on or off: the
//     frontier entering the step, the stats of the steps before it and
//     the bound margins of the step that produced it.  Extend appends
//     demand rows and Amend replaces already-submitted ones; each
//     resumes from the first step whose decisions can change (reconcile
//     has the exactness argument), so the frames, generations, schedule
//     and stats are those of a fresh solve of the new trace.
//
// With pruning on, the DP steps the reduced axis of preprocessing (one
// step per run of identical requirement rows), and LastResolveStart
// reports the original step the resumed run starts at.
//
// Three kinds of trace are not stepped at all; Solution answers them
// with a direct solver over the whole current trace (direct):
// zero-step traces and, with pruning on, tasks that share one v under
// task-parallel hyperreconfiguration uploads go to SolveAligned, which
// is exact there (alignedIsExact); fully task-sequential costs go to
// the per-task decomposition.  A session's tasks and options never
// change, so its engine takes the aligned path on every batch or on
// none; each such batch re-solves the whole trace (LastResolveStart
// 0) in O(n²·m) time and O(m·n) words, so no state or byte cap can
// bite.
//
// An Engine is not safe for concurrent use; callers serialize access
// (the service layer holds one mutex per session).
type Engine struct {
	opt model.CostOptions
	o   solve.Options

	incremental bool
	pooled      bool // internal engine borrowed from enginePool
	// aligned records that SolveAligned answers every trace: pruning
	// is on and alignedIsExact holds for the tasks and options.
	aligned bool

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
	// cat is the stats the preparation left behind: the candidate
	// catalog's CandidatesPruned and its budget Truncated/Degraded.
	cat solve.Stats

	// frames[i] is the step boundary entering step i on the DP's axis
	// (incremental mode).
	frames []frame

	// emptied records that the pruned layer cut every successor
	// (errFrontierEmptied): the warm-start incumbent is the answer.
	emptied bool

	lastResolveStart int
	baseExpanded     int64

	sol    *Solution
	closed bool
}

// frame is one retained step boundary: the packed state slab and costs
// entering a step, the stats the steps before it accumulated, and the
// bound margins of the step that produced it.  Frame 0 has no
// producing step; its margins are never consulted.
type frame struct {
	count int
	slab  []uint64
	costs []model.Cost
	// stats holds the steps' own Truncated/Degraded flags, without the
	// catalog's (as far as a catalog that raised them lets it tell).
	stats   solve.Stats
	margins margins
}

// margins are one step's bound margins (engine.cutMin and keepMax).
type margins struct{ cutMin, keepMax model.Cost }

// holds reports whether the step decides every bound test the same way
// once each test's q = bound − incumbent moves by d.  A sentinel (the
// step ran no such test) never moves.
func (m margins) holds(d model.Cost) bool {
	return (m.keepMax == noKeep || m.keepMax+d <= 0) && (m.cutMin == noCut || m.cutMin+d > 0)
}

// shift re-bases the margins onto a trace whose tests moved by d.
func (m *margins) shift(d model.Cost) {
	if m.keepMax != noKeep {
		m.keepMax += d
	}
	if m.cutMin != noCut {
		m.cutMin += d
	}
}

// NewEngine builds a stepped engine over the instance.  With
// incremental=false the engine is a one-shot stand-in for SolveExact
// (Extend/Amend are rejected); with incremental=true it clones
// the requirement rows so the trace can grow independently of the
// caller's instance, and retains per-step frames for suffix re-solves.
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
	en := &Engine{opt: opt, o: o, incremental: incremental, pub: ins.PublicGlobal, w: ins.W,
		aligned: !o.DisablePruning && alignedIsExact(ins.Tasks, opt)}
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

// direct returns the solver that answers the current trace whole,
// without the packed DP, or nil when the DP is stepped: SolveAligned
// for a zero-step trace or where it is exact (en.aligned), and the
// per-task decomposition of the fully task-sequential cost.
func (en *Engine) direct() func(context.Context, *model.MTSwitchInstance, model.CostOptions) (*Solution, error) {
	switch {
	case en.ins.Steps() == 0 || en.aligned:
		return SolveAligned
	case en.opt.HyperUpload == model.TaskSequential && en.opt.ReconfUpload == model.TaskSequential:
		return solveSequentialDecomposed
	}
	return nil
}

// keepFrames reports whether per-step frames are retained: always on
// an incremental engine, pruning on or off.
func (en *Engine) keepFrames() bool {
	return en.incremental && en.e != nil
}

// ensurePrepared sets up the full solve pipeline for the current trace
// and positions the run on the root frontier.
func (en *Engine) ensurePrepared(ctx context.Context) error {
	if en.prepared {
		return nil
	}
	if err := en.prepareTrace(ctx); err != nil {
		return err
	}
	en.prepared = true
	en.restartFromRoot()
	return nil
}

// prepareTrace runs the trace-dependent setup: the pruned layer
// (preprocessing, warm start), the internal packed engine, its bounds
// and candidate catalog, and the root frontier.  Retained frames are
// left alone.
func (en *Engine) prepareTrace(ctx context.Context) error {
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
	en.cat = en.e.stats
	return nil
}

// restartFromRoot discards every frame and starts the run over on the
// root frontier the preparation left the internal engine on.
func (en *Engine) restartFromRoot() {
	en.frames = en.frames[:0]
	en.emptied = false
	en.sol = nil
	en.lastResolveStart = 0
	en.baseExpanded = en.e.stats.StatesExpanded
	if en.keepFrames() {
		en.captureFrame()
	}
}

// captureFrame records the step boundary entering step e.step.
func (en *Engine) captureFrame() {
	e := en.e
	sw := e.lay.setWords
	st := e.stats
	st.Truncated = st.Truncated && !en.cat.Truncated
	st.Degraded = st.Degraded && !en.cat.Degraded
	en.frames = append(en.frames, frame{
		count:   e.count,
		slab:    append([]uint64(nil), e.slab[:e.count*sw]...),
		costs:   append([]model.Cost(nil), e.costs[:e.count]...),
		stats:   st,
		margins: margins{cutMin: e.cutMin, keepMax: e.keepMax},
	})
}

// frameStats is the engine's stats at frame f under the current
// preparation: the frame's step stats plus the catalog's.
func (en *Engine) frameStats(f *frame) solve.Stats {
	s := f.stats
	s.CandidatesPruned = en.cat.CandidatesPruned
	s.Truncated = s.Truncated || en.cat.Truncated
	s.Degraded = s.Degraded || en.cat.Degraded
	return s
}

// restoreFrame rewinds the internal engine to the boundary entering
// step b (which must have a retained frame), over e.gens of the run
// that recorded it.  The frame's step stats are put back on top of
// the current preparation's catalog stats.
func (en *Engine) restoreFrame(b int) {
	e := en.e
	f := &en.frames[b]
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
	e.stats = en.frameStats(f)
	en.frames = en.frames[:b+1]
	en.emptied = false
	en.lastResolveStart = b
	en.baseExpanded = e.stats.StatesExpanded
}

// reset discards all prepared solve state; the next Solution/Advance
// rebuilds it from the authoritative trace.
func (en *Engine) reset() {
	en.prepared = false
	en.frames = en.frames[:0]
	en.emptied = false
	en.sol = nil
	en.lastResolveStart = 0
	en.baseExpanded = 0
	en.red, en.px, en.incMask, en.incCost = nil, nil, nil, 0
	en.target = nil
	en.cat = solve.Stats{}
}

// Advance steps the DP forward by at most maxSteps steps (maxSteps <=
// 0 means run to completion) and reports whether the solve has reached
// the end of the current trace.  Traces a direct solver answers are
// solved whole by Solution; Advance reports them done immediately.
func (en *Engine) Advance(ctx context.Context, maxSteps int) (bool, error) {
	if en.closed {
		return false, fmt.Errorf("mtswitch: engine is closed")
	}
	if err := solve.Checkpoint(ctx); err != nil {
		return false, err
	}
	if en.direct() != nil {
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
	var sol *Solution
	var err error
	if f := en.direct(); f != nil {
		sol, err = f(ctx, en.ins, en.opt)
	} else if _, err = en.Advance(ctx, 0); err == nil {
		sol, err = en.extract()
	}
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
	mask, dpCost, stats := e.finishMask(en.o)
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
	for i := range steps {
		for j := range en.rows {
			en.rows[j] = append(en.rows[j], steps[i][j].Clone())
		}
	}
	if err := en.rebuildInstance(); err != nil {
		return err
	}
	en.sol = nil
	return en.reconcile(ctx)
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
	return en.reconcile(ctx)
}

// reconcile brings a prepared solve in line with the mutated trace: it
// re-prepares the new trace (preprocessing, warm start, bound and
// projection tables, candidate catalog), finds the first step b whose
// decisions can differ from the retained run's, and resumes from
// frame b.
//
// Exactness, by induction over steps.  If the frontier entering step t
// equals a fresh solve's, the step's decision inputs are equal and
// every one of its bound tests resolves the same way, then step t runs
// the same DFS, inserts, sort, dominance and beam, so frame t+1 and
// generation t are byte-identical to the fresh solve's.  Frame 0 is
// the root of the layout.  Step t's decision inputs, on the axis the
// DP runs on, are:
//
//   - the layout and column weights (duplicate-column grouping); a
//     difference here means b = 0;
//   - its requirement row and multiplicity;
//   - every task's final candidate list, after the MaxCandidates and
//     byte-budget trims the fresh build reapplies.  Candidates reach
//     into the future through their horizon unions, so an appended row
//     can move b well before the old end of the trace;
//   - with pruning on, whether dominance runs at t (t < n−1, so the old
//     last step re-runs when the trace grows) and the suffix unions it
//     reads, sufUnion[·][t+1];
//   - with pruning on, its bound tests.  Each decides
//     q = bound − incumbent > 0, and the new trace moves every q of
//     step t by d_t = Δ sufLB[t+1] − Δ incumbent, so the step decides
//     alike iff its largest kept q stays ≤ 0 and its smallest cut q
//     stays > 0 after the shift (margins.holds).  Reused steps'
//     margins are re-based by d_t, as a fresh run would record them.
//     The projection term of sufLB reaches over the whole suffix, so
//     an appended row can move it, and d_t, at every t.
//
// The frame stats carry the steps' own flags; catalog-scoped stats
// come from the new preparation.  The solve is rebuilt from the root
// instead when the old run emptied, a portfolio incumbent tightened
// during it (its tests no longer share one incumbent), or the old
// catalog raised a Truncated/Degraded flag the new one does not (a
// frame cannot tell whether its steps raised it too).
func (en *Engine) reconcile(ctx context.Context) error {
	if !en.prepared {
		return nil
	}
	e := en.e
	if en.emptied || e.pruneOn && e.incumbent != en.incCost {
		en.reset()
		return nil
	}
	oldTarget, oldRed, oldCat := en.target, en.red, en.cat
	oldCands, oldInc, oldStep, gens := e.cands, e.incumbent, e.step, e.gens
	// The packed rows are the old trace's own copy: an unreduced target
	// shares its row sets with the trace Amend overwrites.
	oldReqs := slices.Clone(e.reqs)
	var oldSuf [][]uint64
	var oldLB []model.Cost
	if e.pruneOn {
		// computeBounds rebuilds these in place.
		oldSuf, oldLB = slices.Clone(e.sufUnion), slices.Clone(e.sufLB)
	}
	if err := en.prepareTrace(ctx); err != nil {
		en.reset()
		return err
	}

	nOld, nNew := oldTarget.Steps(), en.target.Steps()
	same := func(t int) bool {
		for j := range en.tasks {
			tw := e.lay.taskWords[j]
			if !wordsEqual(oldReqs[j][t*tw:(t+1)*tw], e.reqAt(j, t)) || !candsEqual(&oldCands[j][t], &e.cands[j][t]) {
				return false
			}
		}
		if multOf(oldRed, t) != multOf(en.red, t) {
			return false
		}
		if !e.pruneOn {
			return true
		}
		dom := t < nNew-1
		if dom != (t < nOld-1) {
			return false
		}
		for j := 0; dom && j < len(en.tasks); j++ {
			tw := e.lay.taskWords[j]
			if !wordsEqual(oldSuf[j][(t+1)*tw:(t+2)*tw], e.sufUnion[j][(t+1)*tw:(t+2)*tw]) {
				return false
			}
		}
		d := e.sufLB[t+1] - oldLB[t+1] - (e.incumbent - oldInc)
		f := &en.frames[t+1]
		if !f.margins.holds(d) {
			return false
		}
		f.margins.shift(d)
		return true
	}
	b := 0
	if sameGrouping(oldTarget, oldRed, en.target, en.red) &&
		!(oldCat.Truncated && !en.cat.Truncated || oldCat.Degraded && !en.cat.Degraded) {
		for b < min(oldStep, nNew) && same(b) {
			b++
		}
	}
	if b == 0 {
		en.restartFromRoot()
		return nil
	}
	e.gens = gens // the preparation emptied the header, not the array
	en.restoreFrame(b)
	return nil
}

// sameGrouping reports whether two preparations run the DP over the
// same layout and column weights.
func sameGrouping(a *model.MTSwitchInstance, ra *reduction, b *model.MTSwitchInstance, rb *reduction) bool {
	for j := range a.Tasks {
		if a.Tasks[j].Local != b.Tasks[j].Local || !slices.Equal(ra.taskWeights(j), rb.taskWeights(j)) {
			return false
		}
	}
	return true
}

// multOf is step t's multiplicity under a preparation's reduction.
func multOf(r *reduction, t int) model.Cost {
	if r == nil || r.mult == nil {
		return 1
	}
	return r.mult[t]
}

// originalStep maps a step of the DP's axis to the original step its
// run starts at.
func (en *Engine) originalStep(t int) int {
	if en.red == nil {
		return t
	}
	if t >= len(en.red.runStart) {
		return en.red.origSteps
	}
	return en.red.runStart[t]
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

// LastResolveStart reports the original-axis step the most recent
// Extend/Amend resumed solving from (0 after a full rebuild).
// The re-solved suffix of the current trace is Steps() −
// LastResolveStart.
func (en *Engine) LastResolveStart() int { return en.originalStep(en.lastResolveStart) }

// ResolveExpanded reports how many DP states the current resolve
// window has expanded — the incremental cost of the latest
// Extend/Amend, comparable against a from-scratch solve's
// Stats.StatesExpanded.  A direct solver re-solves the whole trace,
// so its answer's count is the resolve's.
func (en *Engine) ResolveExpanded() int64 {
	if en.e == nil {
		if en.sol != nil {
			return en.sol.Stats.StatesExpanded
		}
		return 0
	}
	return en.e.stats.StatesExpanded - en.baseExpanded
}

// SizeBytes estimates the heap the engine retains: the trace, the
// preparation (reduced instance, warm-start mask, candidate catalog,
// packed rows, bound tables), the retained capacity of the expansion
// tables and the dominance scratch, the frontier, the back-pointer
// generations, the per-step frames and the cached solution.  The
// service layer's session eviction budget is denominated in it.
func (en *Engine) SizeBytes() int64 {
	total := int64(unsafe.Sizeof(*en)) + setRowsBytes(en.rows) + boolRowsBytes(en.incMask)
	if en.ins != nil {
		// The instance's rows are en.rows, counted above.
		total += int64(unsafe.Sizeof(*en.ins)) + sliceBytes(en.ins.Reqs)
	}
	if r := en.red; r != nil {
		total += int64(unsafe.Sizeof(*r)) + int64(unsafe.Sizeof(*r.ins)) + sliceBytes(r.ins.Tasks) +
			sliceBytes(r.ins.Reqs) + setRowsBytes(r.ins.Reqs) + sliceBytes(r.weights) +
			sliceBytes(r.mult) + sliceBytes(r.runStart)
		for _, w := range r.weights {
			total += sliceBytes(w)
		}
	}
	if en.e != nil {
		total += en.e.sizeBytes()
	}
	total += sliceBytes(en.frames)
	for _, f := range en.frames {
		total += sliceBytes(f.slab) + sliceBytes(f.costs)
	}
	if en.sol != nil {
		total += int64(unsafe.Sizeof(*en.sol)) + scheduleBytes(en.sol.Schedule)
	}
	return total
}

// sizeBytes is the packed engine's share of Engine.SizeBytes.
func (e *engine) sizeBytes() int64 {
	total := int64(unsafe.Sizeof(*e)) + sliceBytes(e.cands) + sliceBytes(e.reqs) +
		sliceBytes(e.sufUnion) + sliceBytes(e.tailReconf) + sliceBytes(e.sufLB) +
		e.table.sizeBytes() + e.keys.sizeBytes() +
		sliceBytes(e.key) + sliceBytes(e.cur) + sliceBytes(e.keepCnt) + sliceBytes(e.skip) + sliceBytes(e.minCnt) +
		sliceBytes(e.domRes) + sliceBytes(e.domCnt) + sliceBytes(e.domResBuf) + sliceBytes(e.domCntBuf) +
		sliceBytes(e.domSlots) + sliceBytes(e.domNext) +
		sliceBytes(e.slab) + sliceBytes(e.costs) + sliceBytes(e.gens) + sliceBytes(e.perm)
	for _, row := range e.cands {
		total += sliceBytes(row)
		for i := range row {
			total += sliceBytes(row[i].words) + sliceBytes(row[i].counts)
		}
	}
	for j := range e.reqs {
		total += sliceBytes(e.reqs[j])
	}
	for j := range e.sufUnion {
		total += sliceBytes(e.sufUnion[j])
	}
	for j := range e.tailReconf {
		total += sliceBytes(e.tailReconf[j])
	}
	for _, g := range e.gens {
		total += sliceBytes(g.prev) + sliceBytes(g.hyper)
	}
	return total
}

// sizeBytes is the retained capacity of a state table.
func (t *stateTable) sizeBytes() int64 {
	return sliceBytes(t.buckets) + sliceBytes(t.slab) + sliceBytes(t.hashes) + sliceBytes(t.costs) + sliceBytes(t.prevs)
}

// sliceBytes is the backing array a slice retains.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

// setRowsBytes counts task-major rows of requirement sets: the row
// arrays and every set's words.
func setRowsBytes(rows [][]bitset.Set) int64 {
	var total int64
	for _, row := range rows {
		total += sliceBytes(row)
		for _, s := range row {
			total += sliceBytes(s.Words())
		}
	}
	return total
}

func boolRowsBytes(rows [][]bool) int64 {
	total := sliceBytes(rows)
	for _, row := range rows {
		total += sliceBytes(row)
	}
	return total
}

// scheduleBytes counts a schedule's masks, its hypercontext rows and
// each segment's set once (a segment's steps share it).
func scheduleBytes(s *model.MTSchedule) int64 {
	total := int64(unsafe.Sizeof(*s)) + boolRowsBytes(s.Hyper) + sliceBytes(s.Hctx)
	for j, row := range s.Hctx {
		total += sliceBytes(row)
		for i, h := range row {
			if s.Hyper[j][i] {
				total += sliceBytes(h.Words())
			}
		}
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
