package partition

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
)

// Solve runs the partitioned exact solver: plan a step-axis
// decomposition (Options.Partitions windows, 0 = automatic,
// Options.MaxCutColumns capping the weighted cut), solve every window
// as a standalone instance concurrently on a solve.Pool, stitch the
// window schedules by concatenating their hyperreconfiguration masks,
// and run a greedy coupling-correction pass that clears boundary
// installs whenever doing so strictly lowers the cost.
//
// The returned cost is always feasible (an upper bound on the
// optimum) and Stats carries the certificate: the optimum lies in
// [Cost − Stats.StitchBound, Cost].  Runs that collapse to a single
// window (small instances, Partitions = 1, an empty plan, a fully
// task-sequential cost model, or the empty trace) delegate to
// mtswitch.SolveExact and inherit its exactness; IsExact reports
// whether a solution's cost is a proven optimum.
func Solve(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) (*mtswitch.Solution, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("partition: nil instance")
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := ins.Steps()

	// The fully task-sequential cost model already decomposes per task
	// inside SolveExact, and empty traces have nothing to split.
	if n == 0 || (opt.HyperUpload == model.TaskSequential && opt.ReconfUpload == model.TaskSequential) {
		return delegate(ctx, ins, opt, o)
	}
	plan := PlanWindows(ins, o.Partitions, o.MaxCutColumns)
	if len(plan.Boundaries) == 0 {
		return delegate(ctx, ins, opt, o)
	}
	windows := plan.Windows(n)
	m := ins.NumTasks()

	// Window solves must not touch a shared portfolio incumbent board:
	// a window's warm-start cost is a bound for the *window*, not the
	// full trace, and publishing it would poison a racing monolithic
	// solver into cutting optimal paths.  Consuming the (full-trace)
	// board inside a window is equally wrong in the other direction, so
	// the windows run fully detached.
	winCtx := solve.DetachIncumbent(ctx)

	// Each window becomes a standalone instance: sliced requirement
	// rows, the same tasks and public-global term, W = 0 (the one-time
	// global hyperreconfiguration belongs to the whole trace).  The
	// exact engine's preprocess layer drops the columns a window never
	// touches, so windows are cheaper than their step count suggests.
	subs := make([]*model.MTSwitchInstance, len(windows))
	for w, win := range windows {
		reqs := make([][]bitset.Set, m)
		for j := 0; j < m; j++ {
			reqs[j] = ins.Reqs[j][win[0]:win[1]]
		}
		sub, err := model.NewMTSwitchInstance(ins.Tasks, reqs)
		if err != nil {
			return nil, fmt.Errorf("partition: window %d: %w", w, err)
		}
		sub.PublicGlobal = ins.PublicGlobal
		subs[w] = sub
	}

	// Fan the windows out on the shared pool.  The packed engine is
	// sequential, so each inner SolveExact runs on the pool goroutine
	// that owns its window and the sweep is the only parallel level.
	pool := solve.NewPool(o.Workers)
	defer pool.Close()
	workers := pool.Workers()
	if workers > len(subs) {
		workers = len(subs)
	}
	results := make([]*mtswitch.Solution, len(subs))
	var (
		errOnce  sync.Once
		sweepErr error
	)
	poolErr := pool.Do(workers, func(w int) {
		for t := w; t < len(subs); t += workers {
			if err := solve.Checkpoint(ctx); err != nil {
				errOnce.Do(func() { sweepErr = err })
				return
			}
			sol, err := mtswitch.SolveExact(winCtx, subs[t], opt, o)
			if err != nil {
				errOnce.Do(func() { sweepErr = err })
				return
			}
			results[t] = sol
		}
	})
	if poolErr != nil {
		return nil, poolErr
	}
	if sweepErr != nil {
		return nil, sweepErr
	}

	// Stitch: concatenate the window masks (every window's first step
	// installs, so each boundary carries an all-task install) and
	// re-derive the canonical schedule of the full trace.
	stitchStart := time.Now()
	hyper := make([][]bool, m)
	for j := 0; j < m; j++ {
		hyper[j] = make([]bool, n)
	}
	for w, win := range windows {
		for j := 0; j < m; j++ {
			copy(hyper[j][win[0]:win[1]], results[w].Schedule.Hyper[j])
		}
	}
	sched, err := ins.CanonicalSchedule(hyper)
	if err != nil {
		return nil, fmt.Errorf("partition: stitch: %w", err)
	}
	s0, err := ins.Cost(sched, opt)
	if err != nil {
		return nil, fmt.Errorf("partition: stitch cost: %w", err)
	}

	best, bestSched, err := correctCoupling(ctx, ins, opt, hyper, plan.Boundaries, s0, sched)
	if err != nil {
		return nil, err
	}
	stitchTime := time.Since(stitchStart)

	var stats solve.Stats
	for _, r := range results {
		stats.Add(r.Stats)
	}
	stats.Partitions = int64(len(windows))
	stats.CutColumns = plan.CutColumns
	stats.StitchTime = stitchTime

	// Certificate: forcing an all-task install at a boundary of an
	// optimal schedule adds at most Δ = HyperUpload-combine of every
	// v_j (canonical hypercontexts only shrink, so the reconf term
	// never grows), hence OPT ≥ S0 − Σ_s Δ.  Our schedule costs
	// best ≤ S0, so OPT ∈ [best − StitchBound, best] with
	// StitchBound = Σ_s Δ − (S0 − best), clamped at zero.
	var delta model.Cost
	for _, t := range ins.Tasks {
		delta = opt.HyperUpload.Combine(delta, t.V)
	}
	bound := model.Cost(len(plan.Boundaries))*delta - (s0 - best)
	if bound < 0 {
		bound = 0
	}
	stats.StitchBound = int64(bound)

	return &mtswitch.Solution{Schedule: bestSched, Cost: best, Stats: stats}, nil
}

// delegate runs the monolithic exact solver and marks the run as a
// single partition so Stats distinguish "collapsed to monolithic"
// from "never partitioned".
func delegate(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) (*mtswitch.Solution, error) {
	sol, err := mtswitch.SolveExact(ctx, ins, opt, o)
	if err != nil {
		return nil, err
	}
	sol.Stats.Partitions = 1
	return sol, nil
}

// IsExact reports whether a solution returned by Solve carries a
// proven-optimal cost: delegated (single-window) untruncated runs,
// and partitioned untruncated runs whose certificate collapsed to a
// point — StitchBound = 0 means the optimum lies in [Cost, Cost].
// Note an empty column cut alone does NOT qualify: it does not
// structurally force boundary installs to be optimal (see the package
// comment); only the collapsed certificate or a monolithic solve
// proves optimality.  Truncated runs never qualify — a truncated
// window cost is an upper bound, which voids the certificate's lower
// side.
func IsExact(s *mtswitch.Solution) bool {
	if s == nil || s.Stats.Truncated {
		return false
	}
	return s.Stats.Partitions <= 1 || s.Stats.StitchBound == 0
}

// correctCoupling greedily repairs the stitched schedule at the
// window boundaries: for each boundary it tries clearing the install
// jointly for all tasks and for each single task, accepts any strict
// cost decrease, and sweeps until a fixpoint (bounded at four
// sweeps).  Clearing task j's install at s merges its segments [a, s)
// and [s, b) into one whose canonical hypercontext is the union of
// the two, so every trial stays feasible and changes only the steps
// of the merged ranges: a trial is priced as the change of those
// steps' model.StepCost terms against the tracked cost.  If any trial
// was accepted, the final mask is rebuilt once by CanonicalSchedule
// and re-priced once by Cost, which must agree with the tracked cost.
func correctCoupling(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, hyper [][]bool, boundaries []int, cost model.Cost, sched *model.MTSchedule) (model.Cost, *model.MTSchedule, error) {
	m, n := ins.NumTasks(), ins.Steps()
	segs := make([]segments, m)
	for j := range segs {
		segs[j] = newSegments(hyper[j], sched.Hctx[j])
	}
	// A trial clears the installs at s of the tasks with merged[j] ≥ 0,
	// each merging [lo[j], hi[j]) into one segment of size merged[j].
	// price is step i's cost under the trial (under the current mask
	// when no task merges).
	merged := make([]model.Cost, m)
	lo, hi := make([]int, m), make([]int, m)
	install := make([]bool, m)
	size := make([]model.Cost, m)
	price := func(i, s int) model.Cost {
		for j := range segs {
			install[j], size[j] = hyper[j][i], segs[j].size[i]
			if merged[j] >= 0 && lo[j] <= i && i < hi[j] {
				install[j] = install[j] && i != s
				size[j] = merged[j]
			}
		}
		h, r := ins.StepCost(install, size, opt)
		return h + r
	}
	for j := range merged {
		merged[j] = -1
	}
	steps := make([]model.Cost, n)
	for i := range steps {
		steps[i] = price(i, -1)
	}

	accepted := false
	for sweep := 0; sweep < 4; sweep++ {
		if err := solve.Checkpoint(ctx); err != nil {
			return 0, nil, err
		}
		improved := false
		for _, s := range boundaries {
			// variant −1 clears every task's boundary install; variant
			// j ≥ 0 clears only task j's.
			for variant := -1; variant < m; variant++ {
				if variant >= 0 && !hyper[variant][s] {
					continue
				}
				from, to := n, 0
				for j := range merged {
					merged[j] = -1
					if !hyper[j][s] || (variant >= 0 && j != variant) {
						continue
					}
					lo[j], hi[j] = segs[j].start[s-1], s+1
					for hi[j] < n && !hyper[j][hi[j]] {
						hi[j]++
					}
					merged[j] = model.Cost(segs[j].union[lo[j]].UnionCount(segs[j].union[s]))
					from, to = min(from, lo[j]), max(to, hi[j])
				}
				if from >= to {
					continue
				}
				var delta model.Cost
				for i := from; i < to; i++ {
					delta += price(i, s) - steps[i]
				}
				if delta >= 0 {
					continue
				}
				cost += delta
				for i := from; i < to; i++ {
					steps[i] = price(i, s)
				}
				for j, c := range merged {
					if c >= 0 {
						hyper[j][s] = false
						segs[j].merge(lo[j], s, hi[j], c)
					}
				}
				improved, accepted = true, true
			}
		}
		if !improved {
			break
		}
	}
	if !accepted {
		return cost, sched, nil
	}
	out, err := ins.CanonicalSchedule(hyper)
	if err != nil {
		return 0, nil, fmt.Errorf("partition: correction: %w", err)
	}
	c, err := ins.Cost(out, opt)
	if err != nil {
		return 0, nil, fmt.Errorf("partition: correction cost: %w", err)
	}
	if c != cost {
		return 0, nil, fmt.Errorf("partition: correction tracked cost %d, model prices %d", cost, c)
	}
	return cost, out, nil
}

// segments is one task's segment bookkeeping in correctCoupling:
// start[i] is the first step of step i's segment, size[i] that
// segment's hypercontext size, and union[a] the requirement union of
// the segment starting at a (stale for steps that no longer start one).
type segments struct {
	start []int
	size  []model.Cost
	union []bitset.Set
}

// newSegments reads a task's segments off its install row and its
// canonical hypercontexts (step 0 always starts a segment).
func newSegments(row []bool, hctx []bitset.Set) segments {
	n := len(row)
	sg := segments{start: make([]int, n), size: make([]model.Cost, n), union: make([]bitset.Set, n)}
	a, c := 0, model.Cost(0)
	for i := 0; i < n; i++ {
		if i == 0 || row[i] {
			a, c = i, model.Cost(hctx[i].Count())
			sg.union[a] = hctx[i]
		}
		sg.start[i] = a
		sg.size[i] = c
	}
	return sg
}

// merge joins the segments [a, s) and [s, b) into [a, b) of size c.
func (sg *segments) merge(a, s, b int, c model.Cost) {
	sg.union[a] = sg.union[a].Union(sg.union[s])
	for i := s; i < b; i++ {
		sg.start[i] = a
	}
	for i := a; i < b; i++ {
		sg.size[i] = c
	}
}
