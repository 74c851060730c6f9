package mtswitch

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// Solution is a solved multi-task schedule with its cost under the cost
// options it was produced for.  Stats.Truncated reports that the
// producing solver had to limit its search (beam cap or candidate cap
// hit), so Cost is an upper bound rather than a proven optimum.
type Solution struct {
	Schedule *model.MTSchedule
	Cost     model.Cost
	Stats    solve.Stats
}

const infCost = model.Cost(math.MaxInt64 / 4)

// SolveAligned finds the optimal schedule among those where every task
// hyperreconfigures at the same steps (a "global partial
// hyperreconfiguration" pattern).  With aligned breakpoints the problem
// collapses to the single-task segmentation DP:
//
//	D[e] = min_s D[s] + H + R(s,e)·(e-s)
//
// where H combines all tasks' v_j under the hyper upload mode and
// R(s,e) combines the per-task canonical union sizes (plus the
// public-global term) under the reconf upload mode.
//
// The scan over starts s stops early (DESIGN.md §3.1).  For s' < s < e,
// extending D[s']'s schedule by the segment [s',s) bounds D[s] ≤ D[s']
// + H + R(s',s)·(s−s'), and unions only grow as the start moves left,
// so R(s',e) ≥ max(R(s',s), R(s,e)).  Together these give c(s') ≥
// c(s) − H for the candidate cost c(s) = D[s] + H + R(s,e)·(e−s).  Once
// c(s) − H reaches the best cost found, no start left of s can price
// strictly below it; since only a strictly smaller cost replaces the
// best, the cost and the argmin (hence the mask) are those of the full
// scan.  Stats.StatesExpanded counts the starts priced: O(n²·m) in the
// worst case, far fewer when segments pay for themselves quickly.
//
// Aligned schedules are a strict subset of all schedules, so the result
// is an upper bound for SolveExact; the gap between the two is exactly
// the benefit of partial hyperreconfiguration (the paper's multi-task
// contribution).
func SolveAligned(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions) (*Solution, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("mtswitch: nil instance")
	}
	m, n := ins.NumTasks(), ins.Steps()
	if n == 0 {
		sched, err := ins.CanonicalSchedule(make([][]bool, m))
		if err != nil {
			return nil, err
		}
		return &Solution{Schedule: sched, Cost: ins.W}, nil
	}

	// Combined hyperreconfiguration cost when all m tasks participate.
	var allHyper model.Cost
	for _, t := range ins.Tasks {
		allHyper = opt.HyperUpload.Combine(allHyper, t.V)
	}

	d := make([]model.Cost, n+1)
	parent := make([]int, n+1)
	for e := 1; e <= n; e++ {
		d[e] = infCost
	}

	var stats solve.Stats
	unions := make([]bitset.Set, m)
	for j := range unions {
		unions[j] = bitset.New(ins.Tasks[j].Local)
	}
	for e := 1; e <= n; e++ {
		if err := solve.Checkpoint(ctx); err != nil {
			return nil, err
		}
		for j := range unions {
			unions[j].Clear()
		}
		for s := e - 1; s >= 0; s-- {
			var reconf model.Cost
			if opt.ReconfUpload == model.TaskParallel {
				reconf = model.Cost(ins.PublicGlobal)
			}
			for j := 0; j < m; j++ {
				unions[j].UnionWith(ins.Reqs[j][s])
				reconf = opt.ReconfUpload.Combine(reconf, model.Cost(unions[j].Count()))
			}
			if opt.ReconfUpload == model.TaskSequential {
				reconf += model.Cost(ins.PublicGlobal)
			}
			c := d[s] + allHyper + reconf*model.Cost(e-s)
			stats.StatesExpanded++
			if c < d[e] {
				d[e] = c
				parent[e] = s
			}
			if c-allHyper >= d[e] {
				break
			}
		}
	}

	var starts []int
	for e := n; e > 0; e = parent[e] {
		starts = append(starts, parent[e])
	}
	for i, j := 0, len(starts)-1; i < j; i, j = i+1, j-1 {
		starts[i], starts[j] = starts[j], starts[i]
	}

	mask := make([][]bool, m)
	for j := 0; j < m; j++ {
		mask[j] = make([]bool, n)
		for _, s := range starts {
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
	if cost != d[n]+ins.W {
		return nil, fmt.Errorf("mtswitch: aligned DP cost %d disagrees with model cost %d", d[n]+ins.W, cost)
	}
	return &Solution{Schedule: sched, Cost: cost, Stats: stats}, nil
}

// alignedIsExact reports whether some optimal schedule is aligned, so
// that SolveAligned's answer is the optimum: hyperreconfigurations
// upload task-parallel and every task has the same v (DESIGN §3.4).
//
// Proof.  Take an optimal schedule and let S be the steps at which at
// least one task installs (step 0 is one).  Let every task install at
// every step of S, each with the union of its now shorter segment's
// requirements.  At a step of S the hyper term max_j I_{j,i}·v_j was
// already v, since some task installed there, and it stays v; every
// other step's hyper term stays 0.  Each new segment lies inside an
// old one, whose hypercontext held all of its requirements, so no
// hypercontext grows and the reconf term (max or Σ of the sizes, plus
// the public-global term) cannot rise under either reconf upload mode.
// W does not change.  The new schedule is aligned and costs at most
// the optimum, and SolveAligned finds the cheapest aligned schedule.
//
// Neither premise can be dropped.  With unequal v a cheap task can
// re-install alone and spare the costly task's v, and task-sequential
// hyper uploads charge every added install its own v.
func alignedIsExact(tasks []model.Task, opt model.CostOptions) bool {
	if opt.HyperUpload != model.TaskParallel {
		return false
	}
	for _, t := range tasks {
		if t.V != tasks[0].V {
			return false
		}
	}
	return true
}

// LowerBound is an admissible bound on any schedule's cost under the
// given options: every step must pay at least the combined sizes of the
// tasks' own requirements (a hypercontext can never be smaller than the
// requirement it satisfies) plus the public-global term, and the
// mandatory initial hyperreconfigurations of step 0 must be paid.
func LowerBound(ins *model.MTSwitchInstance, opt model.CostOptions) model.Cost {
	if ins == nil || ins.Steps() == 0 {
		return 0
	}
	m, n := ins.NumTasks(), ins.Steps()
	total := ins.W
	var initHyper model.Cost
	for j := 0; j < m; j++ {
		initHyper = opt.HyperUpload.Combine(initHyper, ins.Tasks[j].V)
	}
	total += initHyper
	for i := 0; i < n; i++ {
		var reconf model.Cost
		if opt.ReconfUpload == model.TaskParallel {
			reconf = model.Cost(ins.PublicGlobal)
		}
		for j := 0; j < m; j++ {
			reconf = opt.ReconfUpload.Combine(reconf, model.Cost(ins.Reqs[j][i].Count()))
		}
		if opt.ReconfUpload == model.TaskSequential {
			reconf += model.Cost(ins.PublicGlobal)
		}
		total += reconf
	}
	return total
}

// BruteForce exhausts every joint hyperreconfiguration mask (step 0
// forced) with canonical hypercontexts — the reference optimum for
// tests.  The search space (2^(n-1))^m is capped at ~4 million.
func BruteForce(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions) (*Solution, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("mtswitch: nil instance")
	}
	m, n := ins.NumTasks(), ins.Steps()
	if n == 0 {
		return SolveAligned(ctx, ins, opt)
	}
	bits := (n - 1) * m
	if bits > 22 {
		return nil, fmt.Errorf("mtswitch: brute force needs (n-1)·m ≤ 22, got %d", bits)
	}
	best := infCost
	var bestMask [][]bool
	mask := make([][]bool, m)
	for j := range mask {
		mask[j] = make([]bool, n)
		mask[j][0] = true
	}
	var stats solve.Stats
	for code := 0; code < 1<<uint(bits); code++ {
		if code&1023 == 0 {
			if err := solve.Checkpoint(ctx); err != nil {
				return nil, err
			}
		}
		stats.Evaluations++
		v := code
		for j := 0; j < m; j++ {
			for i := 1; i < n; i++ {
				mask[j][i] = v&1 == 1
				v >>= 1
			}
		}
		sched, err := ins.CanonicalSchedule(mask)
		if err != nil {
			return nil, err
		}
		c, err := ins.Cost(sched, opt)
		if err != nil {
			return nil, err
		}
		if c < best {
			best = c
			bestMask = make([][]bool, m)
			for j := range mask {
				bestMask[j] = append([]bool(nil), mask[j]...)
			}
		}
	}
	sched, err := ins.CanonicalSchedule(bestMask)
	if err != nil {
		return nil, err
	}
	return &Solution{Schedule: sched, Cost: best, Stats: stats}, nil
}
