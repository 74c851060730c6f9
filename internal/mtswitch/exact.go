package mtswitch

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/phc"
	"repro/internal/solve"
)

// DefaultMaxStates keeps the solver exact on the small instances used
// for validation while bounding memory on adversarial inputs.
const DefaultMaxStates = 100000

// SolveExact solves the fully synchronized MT-Switch problem (the
// setting of the paper's Theorem 1, which states solvability by dynamic
// programming but omits the algorithm) by a forward DP over joint
// hypercontext states, executed by the packed frontier engine in
// packed.go.
//
// Correctness of the search space: some optimal schedule uses canonical
// hypercontexts — for fixed hyperreconfiguration steps, replacing each
// hypercontext by the union of its segment's requirements keeps the
// schedule feasible and never increases any |h_{j,i}|, hence never the
// cost (max and Σ are both monotone).  Every canonical hypercontext
// installed by task j at step i equals U_j(i,e) for some horizon e ≥ i,
// so install branches range over the distinct interval unions starting
// at i.  At each step a frontier state expands, per task, to {keep the
// current hypercontext (valid when the incoming requirement fits)} ∪
// {install a candidate}; joint successors are deduplicated by their
// hypercontext vector keeping the cheapest, which preserves optimality
// because the future cost of a state depends only on the vector.
//
// Like the paper's own bound O(m·n⁴·l^{2m}), the state space is
// exponential in the number of tasks; the paper itself fell back to a
// genetic algorithm for its m=4 experiment.  SolveExact is exact within
// Options.MaxStates and degrades to a beam search beyond it
// (Stats.Truncated reports which happened).  The context is checked
// once per frontier state, so cancellation lands within one state
// expansion.
//
// The packed engine expands each step on the calling goroutine, so
// Options.Workers does not reach it: the result depends on the
// instance and options alone (see packed.go for the determinism
// argument).  SolveExactReference retains the original pointer-and-map
// implementation as the agreement/benchmark baseline.
//
// When both uploads are task-sequential the cost decomposes per task
// and the problem is solved exactly in O(m·n²) by independent
// single-task DPs; SolveExact takes that fast path automatically.
func SolveExact(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) (*Solution, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("mtswitch: nil instance")
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if ins.Steps() == 0 {
		return SolveAligned(ctx, ins, opt)
	}
	if opt.HyperUpload == model.TaskSequential && opt.ReconfUpload == model.TaskSequential {
		return solveSequentialDecomposed(ctx, ins, opt)
	}

	// The stepped engine (engine.go) runs the whole pipeline — pruned
	// layer setup, the packed DP stepped to the end, extraction and the
	// incumbent fallback.  A one-shot engine reuses the pooled packed
	// buffers and retains no per-step frames, so this path is
	// bit-identical to the former monolithic solver.
	eng, err := NewEngine(ctx, ins, opt, o, false)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.Solution(ctx)
}

// incumbentSolution prices the warm-start mask and returns it as the
// solution, used when a truncated pruned run ends worse than (or cut
// away) the incumbent.
func incumbentSolution(ins *model.MTSwitchInstance, opt model.CostOptions, mask [][]bool, stats solve.Stats) (*Solution, error) {
	sched, err := ins.CanonicalSchedule(mask)
	if err != nil {
		return nil, err
	}
	cost, err := ins.Cost(sched, opt)
	if err != nil {
		return nil, err
	}
	return &Solution{Schedule: sched, Cost: cost, Stats: stats}, nil
}

// solveSequentialDecomposed handles the fully task-sequential cost,
// which separates across tasks:
//
//	Σ_i ( Σ_j I_{j,i} v_j + Σ_j |h_{j,i}| + |h^pub| )
//	  = Σ_j single-task-cost_j(W = v_j) + n·|h^pub| + W.
//
// Each per-task subproblem is the polynomial single-task Switch DP.
func solveSequentialDecomposed(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions) (*Solution, error) {
	m, n := ins.NumTasks(), ins.Steps()
	var stats solve.Stats
	mask := make([][]bool, m)
	for j := 0; j < m; j++ {
		single, err := model.NewSwitchInstance(ins.Tasks[j].Local, ins.Tasks[j].V, ins.Reqs[j])
		if err != nil {
			return nil, fmt.Errorf("mtswitch: task %q: %w", ins.Tasks[j].Name, err)
		}
		sol, err := phc.SolveSwitch(ctx, single)
		if err != nil {
			return nil, fmt.Errorf("mtswitch: task %q: %w", ins.Tasks[j].Name, err)
		}
		stats.Add(sol.Stats)
		mask[j] = make([]bool, n)
		for _, s := range sol.Seg.Starts {
			mask[j][s] = true
		}
	}
	sched, err := ins.CanonicalSchedule(mask)
	if err != nil {
		return nil, err
	}
	cost, err := ins.Cost(sched, opt)
	if err != nil {
		return nil, err
	}
	return &Solution{Schedule: sched, Cost: cost, Stats: stats}, nil
}
