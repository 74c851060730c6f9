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
// sweeps).  Clearing an install merges the adjacent segments, whose
// canonical hypercontext is re-derived by CanonicalSchedule, so every
// trial stays feasible; the accepted schedule's cost only decreases.
func correctCoupling(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, hyper [][]bool, boundaries []int, cost model.Cost, sched *model.MTSchedule) (model.Cost, *model.MTSchedule, error) {
	m := ins.NumTasks()
	best, bestSched := cost, sched
	trial := make([][]bool, m)
	for j := range trial {
		trial[j] = make([]bool, len(hyper[j]))
	}
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
				any := false
				for j := 0; j < m; j++ {
					copy(trial[j], hyper[j])
					if variant < 0 && trial[j][s] {
						trial[j][s] = false
						any = true
					}
				}
				if variant >= 0 {
					trial[variant][s] = false
					any = true
				}
				if !any {
					continue
				}
				cand, err := ins.CanonicalSchedule(trial)
				if err != nil {
					return 0, nil, fmt.Errorf("partition: correction: %w", err)
				}
				c, err := ins.Cost(cand, opt)
				if err != nil {
					return 0, nil, fmt.Errorf("partition: correction cost: %w", err)
				}
				if c < best {
					best, bestSched = c, cand
					for j := 0; j < m; j++ {
						copy(hyper[j], trial[j])
					}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, bestSched, nil
}
