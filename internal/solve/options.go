package solve

import (
	"fmt"
	"time"
)

// Options are the uniform solver knobs, replacing the former
// mtswitch.Config, ga.Config and ga.AnnealConfig.  The zero value
// selects validated per-solver defaults; Validate rejects values that
// the old configs silently misbehaved on (negative beam caps,
// negative populations, out-of-range rates).  Fields a given solver
// has no use for are ignored.
type Options struct {
	// Timeout, when positive, bounds the solve's wall time; solve.Run
	// derives a context deadline from it.  0 means no deadline.
	Timeout time.Duration

	// MaxStates caps the per-step state frontier of the exact
	// multi-task DP.  While the frontier stays within the cap the
	// search is exhaustive; beyond it the solver degrades to a beam
	// search and Stats.Truncated reports the degradation.  0 selects
	// the solver's default.
	MaxStates int
	// MaxCandidates caps, per task and step, how many canonical
	// hypercontext candidates an install may choose from.  0 means
	// unlimited (required for exactness).
	MaxCandidates int
	// MaxFrontierBytes, when positive, budgets the memory of the exact
	// multi-task DP's packed frontier arena.  The frontier engine
	// derives a beam cap from the budget and additionally hard-caps its
	// per-step successor tables, so an adversarial instance degrades to
	// a beam search (Stats.Degraded, and therefore Stats.Truncated,
	// report it) instead of exhausting memory.  SolvePrivateGlobal
	// passes the budget into every window solve, and the GA clamps its
	// population memory to it.  0 means unbudgeted.
	MaxFrontierBytes int64
	// DisablePruning turns off the exact multi-task DP's pruned-search
	// layer (instance preprocessing, dominance elimination and
	// incumbent lower-bound cutoffs) and restores the plain exhaustive
	// frontier expansion.  Pruning never changes the cost of an
	// untruncated run — only which of several equal-cost schedules is
	// returned and how many states are expanded — so the knob exists
	// for baselining and for tests that pin the unpruned engine's
	// exact state counts.
	DisablePruning bool
	// Workers bounds the goroutines of parallel solver stages (GA
	// fitness evaluation, private-global window sweep).  0 means
	// GOMAXPROCS.
	Workers int
	// Seed drives deterministic random sources (default 1).
	Seed int64

	// Pop is the GA population size (default 80).
	Pop int
	// Generations to evolve (default 300).
	Generations int
	// MutRate is the per-bit mutation probability (0 → adaptive
	// 2/(m·n+1)).
	MutRate float64
	// CrossRate is the probability a child is produced by crossover
	// rather than cloning (default 0.9).
	CrossRate float64
	// TournamentK is the tournament size (default 3).
	TournamentK int
	// Elites survive unchanged each generation (default 2, capped at
	// Pop).
	Elites int
	// NoHeuristicSeeds disables injecting the aligned-DP, initial-only
	// and every-step masks into the initial GA population.
	NoHeuristicSeeds bool
	// Crossover selects the GA recombination operator.
	Crossover CrossoverKind

	// Iterations of the annealing loop (default 20000).
	Iterations int
	// InitialTemp is the annealing start temperature in cost units
	// (0 → adaptive: 1/10 of the seed schedule's cost).
	InitialTemp float64
	// Cooling is the geometric cooling factor per iteration (0 →
	// decay to 1e-3 of the initial temperature over the run).
	Cooling float64

	// IntervalK is the period of the fixed-interval baseline solver.
	IntervalK int

	// Partitions is the window count of the partitioned MT-Switch solver
	// ("exact-partitioned"): 0 selects an automatic k from the instance
	// size, 1 forces a monolithic solve, and k ≥ 2 splits the step axis
	// into k windows, at most MaxPartitions.  Other solvers ignore it.
	Partitions int
	// MaxCutColumns caps the weighted column cut the partition planner
	// may accept: boundaries are dropped (merging adjacent windows)
	// until the cut fits.  0 means uncapped.
	MaxCutColumns int
}

// MaxPartitions bounds Options.Partitions.  The window planner's time
// and memory grow with k·n: on a 65,536-step trace 1024 windows plan in
// 0.2–0.3 s with 11 MB, 65,536 windows in 11 s with 292 MB.  Automatic
// plans use at most 64 windows.
const MaxPartitions = 1024

// LimitError rejects an option above its bound (hyperd answers it with
// 413, like an oversized instance); match it with errors.As.
type LimitError struct {
	Option     string
	Got, Limit int
}

// Error implements error.
func (e *LimitError) Error() string {
	return fmt.Sprintf("solve: %s %d exceeds limit %d", e.Option, e.Got, e.Limit)
}

// Validate rejects option values no solver can meaningfully honor.
// Zero values are always valid (they select defaults).
func (o Options) Validate() error {
	if o.Timeout < 0 {
		return fmt.Errorf("solve: negative timeout %v", o.Timeout)
	}
	if o.MaxStates < 0 {
		return fmt.Errorf("solve: negative beam cap MaxStates=%d", o.MaxStates)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("solve: negative candidate cap MaxCandidates=%d", o.MaxCandidates)
	}
	if o.MaxFrontierBytes < 0 {
		return fmt.Errorf("solve: negative frontier byte budget %d", o.MaxFrontierBytes)
	}
	if o.Workers < 0 {
		return fmt.Errorf("solve: negative worker count %d", o.Workers)
	}
	if o.Pop < 0 {
		return fmt.Errorf("solve: negative population %d", o.Pop)
	}
	if o.Generations < 0 {
		return fmt.Errorf("solve: negative generation count %d", o.Generations)
	}
	if o.MutRate < 0 || o.MutRate > 1 {
		return fmt.Errorf("solve: mutation rate %v outside [0,1]", o.MutRate)
	}
	if o.CrossRate < 0 || o.CrossRate > 1 {
		return fmt.Errorf("solve: crossover rate %v outside [0,1]", o.CrossRate)
	}
	if o.TournamentK < 0 {
		return fmt.Errorf("solve: negative tournament size %d", o.TournamentK)
	}
	if o.Elites < 0 {
		return fmt.Errorf("solve: negative elite count %d", o.Elites)
	}
	if o.Crossover < CrossUniform || o.Crossover > CrossTaskRow {
		return fmt.Errorf("solve: unknown crossover kind %d", int(o.Crossover))
	}
	if o.Iterations < 0 {
		return fmt.Errorf("solve: negative iteration count %d", o.Iterations)
	}
	if o.InitialTemp < 0 {
		return fmt.Errorf("solve: negative initial temperature %v", o.InitialTemp)
	}
	if o.Cooling < 0 || o.Cooling >= 1 {
		if o.Cooling != 0 {
			return fmt.Errorf("solve: cooling factor %v outside (0,1)", o.Cooling)
		}
	}
	if o.IntervalK < 0 {
		return fmt.Errorf("solve: negative interval %d", o.IntervalK)
	}
	if o.Partitions < 0 {
		return fmt.Errorf("solve: negative partition count %d", o.Partitions)
	}
	if o.Partitions > MaxPartitions {
		return &LimitError{Option: "partition count", Got: o.Partitions, Limit: MaxPartitions}
	}
	if o.MaxCutColumns < 0 {
		return fmt.Errorf("solve: negative cut-column cap %d", o.MaxCutColumns)
	}
	return nil
}

// CrossoverKind selects the GA's recombination operator.
type CrossoverKind int

const (
	// CrossUniform draws every (task, step) gene independently from one
	// of the two parents — the classic disruptive operator.
	CrossUniform CrossoverKind = iota
	// CrossTwoPoint exchanges one contiguous gene range, preserving
	// runs of hyperreconfiguration decisions.
	CrossTwoPoint
	// CrossTaskRow inherits each task's entire row from one parent —
	// schedules recombine along the problem's natural task structure.
	CrossTaskRow
)

// String implements fmt.Stringer.
func (c CrossoverKind) String() string {
	switch c {
	case CrossUniform:
		return "uniform"
	case CrossTwoPoint:
		return "two-point"
	case CrossTaskRow:
		return "task-row"
	default:
		return fmt.Sprintf("CrossoverKind(%d)", int(c))
	}
}
