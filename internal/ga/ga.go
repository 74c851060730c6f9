// Package ga implements the genetic algorithm the paper used to compute
// multi-task (hyper)reconfiguration schedules for the SHyRA experiment
// ("(Hyper)reconfiguration costs with partial hyperreconfigurations for
// the multiple task case were computed using a genetic algorithm").
//
// A genome is the joint hyperreconfiguration mask: one bit per (task,
// step) saying whether the task performs a partial hyperreconfiguration
// immediately before the step (step 0 is always set — tasks must
// establish an initial hypercontext).  Hypercontexts are implied:
// canonical segment unions are optimal for any fixed mask, so the
// search space is exactly the mask space.
//
// The GA is deterministic for a fixed Options.Seed: tournament
// selection, uniform crossover, per-bit mutation, elitism, and seeding
// with informed individuals (the aligned-DP mask, the
// hyperreconfigure-only-at-step-0 mask, and the every-step mask) so the
// search starts no worse than the best classical baseline.  Solver
// knobs come from the shared solve.Options (Pop, Generations, MutRate,
// CrossRate, TournamentK, Elites, Seed, Workers, Crossover,
// NoHeuristicSeeds).
package ga

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
)

// CrossoverKind re-exports the shared crossover selector for
// convenience; see solve.CrossoverKind.
type CrossoverKind = solve.CrossoverKind

// Crossover operator aliases (see the solve package for semantics).
const (
	CrossUniform  = solve.CrossUniform
	CrossTwoPoint = solve.CrossTwoPoint
	CrossTaskRow  = solve.CrossTaskRow
)

// params are the fully defaulted GA hyperparameters derived from
// solve.Options.
type params struct {
	pop, generations   int
	mutRate, crossRate float64
	tournamentK        int
	elites             int
	seed               int64
	workers            int
	noHeuristicSeeds   bool
	crossover          CrossoverKind
	degraded           bool // population clamped by MaxFrontierBytes
}

func gaParams(o solve.Options, m, n int) params {
	p := params{
		pop:              o.Pop,
		generations:      o.Generations,
		mutRate:          o.MutRate,
		crossRate:        o.CrossRate,
		tournamentK:      o.TournamentK,
		elites:           o.Elites,
		seed:             o.Seed,
		workers:          o.Workers,
		noHeuristicSeeds: o.NoHeuristicSeeds,
		crossover:        o.Crossover,
	}
	if p.pop <= 0 {
		p.pop = 80
	}
	if p.generations <= 0 {
		p.generations = 300
	}
	if p.mutRate <= 0 {
		p.mutRate = 2.0 / float64(m*n+1)
	}
	if p.crossRate <= 0 {
		p.crossRate = 0.9
	}
	if p.tournamentK <= 0 {
		p.tournamentK = 3
	}
	if o.MaxFrontierBytes > 0 {
		// The GA inherits the solve memory budget: its resident state
		// is two generations of m·n-bool genomes plus their fitness
		// slots, so clamp the population to what the budget affords
		// (never below 2 — a GA needs parents) and record the
		// degradation.
		perGenome := 2 * (int64(m)*int64(n) + 16)
		maxPop := o.MaxFrontierBytes / perGenome
		if maxPop < 2 {
			maxPop = 2
		}
		if int64(p.pop) > maxPop {
			p.pop = int(maxPop)
			p.degraded = true
		}
	}
	if p.elites <= 0 {
		p.elites = 2
	}
	if p.elites > p.pop {
		p.elites = p.pop
	}
	if p.seed == 0 {
		p.seed = 1
	}
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	return p
}

// genome is a flat m·n hyperreconfiguration mask.
type genome []bool

func (g genome) clone() genome { return append(genome(nil), g...) }

// evaluator computes fitness (= schedule cost, lower is better) for
// genomes without materializing a model.MTSchedule: per task it walks
// the mask's segments once, computing canonical union sizes, then
// combines per-step terms under the upload modes.
type evaluator struct {
	ins   *model.MTSwitchInstance
	opt   model.CostOptions
	m, n  int
	sizes [][]int // scratch: per task per step hypercontext size
}

func newEvaluator(ins *model.MTSwitchInstance, opt model.CostOptions) *evaluator {
	m, n := ins.NumTasks(), ins.Steps()
	sizes := make([][]int, m)
	for j := range sizes {
		sizes[j] = make([]int, n)
	}
	return &evaluator{ins: ins, opt: opt, m: m, n: n, sizes: sizes}
}

func (ev *evaluator) cost(g genome) model.Cost {
	m, n := ev.m, ev.n
	for j := 0; j < m; j++ {
		row := g[j*n : (j+1)*n]
		u := bitset.New(ev.ins.Tasks[j].Local)
		for start := 0; start < n; {
			end := start + 1
			for end < n && !row[end] {
				end++
			}
			u.Clear()
			for i := start; i < end; i++ {
				u.UnionWith(ev.ins.Reqs[j][i])
			}
			c := u.Count()
			for i := start; i < end; i++ {
				ev.sizes[j][i] = c
			}
			start = end
		}
	}
	total := ev.ins.W
	for i := 0; i < n; i++ {
		var hyper model.Cost
		for j := 0; j < m; j++ {
			if i == 0 || g[j*n+i] {
				hyper = ev.opt.HyperUpload.Combine(hyper, ev.ins.Tasks[j].V)
			}
		}
		var reconf model.Cost
		if ev.opt.ReconfUpload == model.TaskParallel {
			reconf = model.Cost(ev.ins.PublicGlobal)
		}
		for j := 0; j < m; j++ {
			reconf = ev.opt.ReconfUpload.Combine(reconf, model.Cost(ev.sizes[j][i]))
		}
		if ev.opt.ReconfUpload == model.TaskSequential {
			reconf += model.Cost(ev.ins.PublicGlobal)
		}
		total += hyper + reconf
	}
	return total
}

// crossover recombines two parents under the selected operator.
func crossover(r *rand.Rand, kind CrossoverKind, m, n int, a, b genome) genome {
	child := make(genome, m*n)
	switch kind {
	case CrossTwoPoint:
		lo := r.Intn(m * n)
		hi := lo + r.Intn(m*n-lo) + 1 // (lo, hi]
		copy(child, a)
		copy(child[lo:hi], b[lo:hi])
	case CrossTaskRow:
		for j := 0; j < m; j++ {
			src := a
			if r.Intn(2) == 1 {
				src = b
			}
			copy(child[j*n:(j+1)*n], src[j*n:(j+1)*n])
		}
	default: // CrossUniform
		for k := range child {
			if r.Intn(2) == 0 {
				child[k] = a[k]
			} else {
				child[k] = b[k]
			}
		}
	}
	return child
}

// evalPool evaluates genomes concurrently on the shared solve.Pool —
// the same persistent-worker pool the packed frontier engine and the
// private-global window sweep dispatch onto, instead of spawning fresh
// goroutines per generation.  Each pool task owns an evaluator (the
// evaluator carries scratch buffers, so sharing one across goroutines
// would race).
type evalPool struct {
	pool *solve.Pool
	evs  []*evaluator
}

func newEvalPool(ins *model.MTSwitchInstance, opt model.CostOptions, workers int) *evalPool {
	p := &evalPool{pool: solve.NewPool(workers)}
	p.evs = make([]*evaluator, p.pool.Workers())
	for i := range p.evs {
		p.evs[i] = newEvaluator(ins, opt)
	}
	return p
}

func (p *evalPool) close() { p.pool.Close() }

// evalRange computes out[i] = cost(genomes[i]) for i in [from, len).
// A panic inside an evaluator (isolated by the pool) is returned as a
// *solve.PanicError.
func (p *evalPool) evalRange(genomes []genome, out []model.Cost, from int) error {
	n := len(genomes) - from
	if n <= 0 {
		return nil
	}
	workers := len(p.evs)
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	return p.pool.Do(workers, func(w int) {
		ev := p.evs[w]
		lo := from + w*chunk
		hi := lo + chunk
		if hi > len(genomes) {
			hi = len(genomes)
		}
		for i := lo; i < hi; i++ {
			out[i] = ev.cost(genomes[i])
		}
	})
}

// Result is the GA outcome: the best schedule found, its cost, and the
// best-of-generation history (for convergence plots).
type Result struct {
	Solution *mtswitch.Solution
	History  []model.Cost
}

// Optimize evolves hyperreconfiguration masks for the fully
// synchronized MT-Switch instance and returns the best schedule found.
// The result is repriced through the model (validating feasibility), so
// Result.Solution.Cost is trustworthy even if the fast evaluator were
// wrong — the two are also cross-checked.  The context is checked once
// per generation, so cancellation lands within one generation's work.
func Optimize(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) (*Result, error) {
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
	cfg := gaParams(o, m, n)
	r := rand.New(rand.NewSource(cfg.seed))
	pool := newEvalPool(ins, opt, cfg.workers)
	defer pool.close()
	var stats solve.Stats

	forceStep0 := func(g genome) {
		for j := 0; j < m; j++ {
			g[j*n] = true
		}
	}

	pop := make([]genome, 0, cfg.pop)
	if !cfg.noHeuristicSeeds {
		// Initial-only mask.
		initial := make(genome, m*n)
		forceStep0(initial)
		pop = append(pop, initial)
		// Every-step mask.
		every := make(genome, m*n)
		for i := range every {
			every[i] = true
		}
		pop = append(pop, every)
		// Aligned-DP mask.
		if al, err := mtswitch.SolveAligned(ctx, ins, opt); err == nil {
			g := make(genome, m*n)
			for j := 0; j < m; j++ {
				for i := 0; i < n; i++ {
					g[j*n+i] = al.Schedule.Hyper[j][i]
				}
			}
			pop = append(pop, g)
		} else if solve.Checkpoint(ctx) != nil {
			return nil, err
		}
	}
	for len(pop) < cfg.pop {
		g := make(genome, m*n)
		density := r.Float64() * 0.4 // varied sparsity
		for i := range g {
			g[i] = r.Float64() < density
		}
		forceStep0(g)
		pop = append(pop, g)
	}

	fit := make([]model.Cost, cfg.pop)
	if err := pool.evalRange(pop, fit, 0); err != nil {
		return nil, err
	}
	stats.Evaluations += int64(cfg.pop)

	bestG := pop[0].clone()
	bestC := fit[0]
	for i := 1; i < cfg.pop; i++ {
		if fit[i] < bestC {
			bestC, bestG = fit[i], pop[i].clone()
		}
	}
	// Incumbent exchange: every GA fitness value is a full valid
	// schedule's cost (the evaluator is cross-checked against the
	// model below), so best-so-far improvements are publishable upper
	// bounds for a racing exact DP.
	board := solve.IncumbentFrom(ctx)
	board.Publish(bestC)

	// Grown as generations complete: cfg.generations is caller-sized and
	// may be far beyond what a cancelled or deadline-bound run reaches.
	var history []model.Cost
	tournament := func() genome {
		best := r.Intn(cfg.pop)
		for k := 1; k < cfg.tournamentK; k++ {
			c := r.Intn(cfg.pop)
			if fit[c] < fit[best] {
				best = c
			}
		}
		return pop[best]
	}

	next := make([]genome, cfg.pop)
	nextFit := make([]model.Cost, cfg.pop)
	for gen := 0; gen < cfg.generations; gen++ {
		if err := solve.Checkpoint(ctx); err != nil {
			return nil, err
		}
		// Elitism: copy the current best individuals.
		order := make([]int, cfg.pop)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return fit[order[a]] < fit[order[b]] })
		for e := 0; e < cfg.elites; e++ {
			next[e] = pop[order[e]].clone()
			nextFit[e] = fit[order[e]]
		}
		// Generate all children with the sequential random source, then
		// evaluate them in parallel.
		for i := cfg.elites; i < cfg.pop; i++ {
			var child genome
			if r.Float64() < cfg.crossRate {
				child = crossover(r, cfg.crossover, m, n, tournament(), tournament())
			} else {
				child = tournament().clone()
			}
			for k := range child {
				if r.Float64() < cfg.mutRate {
					child[k] = !child[k]
				}
			}
			forceStep0(child)
			next[i] = child
		}
		if err := pool.evalRange(next, nextFit, cfg.elites); err != nil {
			return nil, err
		}
		stats.Evaluations += int64(cfg.pop - cfg.elites)
		pop, next = next, pop
		fit, nextFit = nextFit, fit
		for i := 0; i < cfg.pop; i++ {
			if fit[i] < bestC {
				bestC, bestG = fit[i], pop[i].clone()
			}
		}
		board.Publish(bestC)
		history = append(history, bestC)
	}

	// Materialize, validate and reprice the best genome through the
	// model; the fast evaluator and the model must agree exactly.
	mask := make([][]bool, m)
	for j := 0; j < m; j++ {
		mask[j] = make([]bool, n)
		for i := 0; i < n; i++ {
			mask[j][i] = bestG[j*n+i]
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
	if cost != bestC {
		return nil, fmt.Errorf("ga: evaluator cost %d disagrees with model cost %d", bestC, cost)
	}
	stats.Truncated = true // stochastic search: cost is an upper bound
	stats.Degraded = cfg.degraded
	return &Result{
		Solution: &mtswitch.Solution{Schedule: sched, Cost: cost, Stats: stats},
		History:  history,
	}, nil
}
