package ga

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
)

// annealParams are the fully defaulted simulated-annealing
// hyperparameters derived from solve.Options.  Simulated annealing is
// not used by the paper — it serves as an ablation against the genetic
// algorithm on the same search space (joint hyperreconfiguration
// masks).
type annealParams struct {
	iterations  int
	initialTemp float64
	cooling     float64
	seed        int64
}

func annealDefaults(o solve.Options, seedCost model.Cost) annealParams {
	p := annealParams{
		iterations:  o.Iterations,
		initialTemp: o.InitialTemp,
		cooling:     o.Cooling,
		seed:        o.Seed,
	}
	if p.iterations <= 0 {
		p.iterations = 20000
	}
	if p.initialTemp <= 0 {
		// Adaptive: 1/10 of the seed schedule's cost.
		p.initialTemp = float64(seedCost) / 10
		if p.initialTemp < 1 {
			p.initialTemp = 1
		}
	}
	if p.cooling <= 0 || p.cooling >= 1 {
		// Decay to 1e-3 of the initial temperature over the run.
		p.cooling = math.Exp(math.Log(1e-3) / float64(p.iterations))
	}
	if p.seed == 0 {
		p.seed = 1
	}
	return p
}

// Anneal optimizes hyperreconfiguration masks by simulated annealing:
// the state is a joint mask, a move flips one (task, step>0) bit, and
// worsening moves are accepted with the Metropolis probability
// exp(-Δ/T) under a geometric cooling schedule.  The search is seeded
// with the aligned-DP schedule so the result is never worse than that
// baseline, and the best state ever visited is returned (repriced and
// validated through the model).  The context is checked every 256
// iterations.
func Anneal(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) (*Result, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("ga: nil instance")
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m, n := ins.NumTasks(), ins.Steps()
	if n == 0 {
		sched, err := ins.CanonicalSchedule(make([][]bool, m))
		if err != nil {
			return nil, err
		}
		return &Result{Solution: &mtswitch.Solution{Schedule: sched, Cost: ins.W}}, nil
	}

	ev := newEvaluator(ins, opt)
	var stats solve.Stats

	// Seed with the aligned-DP schedule.
	cur := make(genome, m*n)
	if al, err := mtswitch.SolveAligned(ctx, ins, opt); err == nil {
		for j := 0; j < m; j++ {
			for i := 0; i < n; i++ {
				cur[j*n+i] = al.Schedule.Hyper[j][i]
			}
		}
	} else if solve.Checkpoint(ctx) != nil {
		return nil, err
	}
	for j := 0; j < m; j++ {
		cur[j*n] = true
	}
	curCost := ev.cost(cur)
	stats.Evaluations++
	cfg := annealDefaults(o, curCost)
	r := rand.New(rand.NewSource(cfg.seed))

	best := cur.clone()
	bestCost := curCost
	temp := cfg.initialTemp
	// Grown as samples arrive: cfg.iterations is caller-sized and may be
	// far beyond what a cancelled or deadline-bound run reaches.
	var history []model.Cost

	for it := 0; it < cfg.iterations; it++ {
		if it&255 == 0 {
			if err := solve.Checkpoint(ctx); err != nil {
				return nil, err
			}
		}
		// Flip one random non-initial bit.  With n == 1 every bit is an
		// initial bit and no move exists.
		if n > 1 {
			j := r.Intn(m)
			i := 1 + r.Intn(n-1)
			k := j*n + i
			cur[k] = !cur[k]
			newCost := ev.cost(cur)
			stats.Evaluations++
			delta := float64(newCost - curCost)
			if delta <= 0 || r.Float64() < math.Exp(-delta/temp) {
				curCost = newCost
				if curCost < bestCost {
					bestCost = curCost
					copy(best, cur)
				}
			} else {
				cur[k] = !cur[k] // reject: undo
			}
		}
		temp *= cfg.cooling
		if it%100 == 0 {
			history = append(history, bestCost)
		}
	}

	mask := make([][]bool, m)
	for j := 0; j < m; j++ {
		mask[j] = make([]bool, n)
		for i := 0; i < n; i++ {
			mask[j][i] = best[j*n+i]
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
	if cost != bestCost {
		return nil, fmt.Errorf("ga: annealing evaluator cost %d disagrees with model cost %d", bestCost, cost)
	}
	stats.Truncated = true // stochastic search: cost is an upper bound
	return &Result{
		Solution: &mtswitch.Solution{Schedule: sched, Cost: cost, Stats: stats},
		History:  history,
	}, nil
}
