// Package solve is the unified solver engine layer: a normalized
// Instance wrapper over every problem kind the repo knows how to
// schedule (single-task Switch/General/DAG, multi-task
// MTSwitch/MTDAG), a normalized Solution carrying cost, exactness and
// run statistics, a Solver interface, and a package-level registry so
// optimizers resolve by name (`-solver exact|aligned|ga|...`).
//
// The package is a leaf: it depends only on the data-model packages
// (model, dag, bitset), the stdlib-only chaos harness
// (resilience/faultinject) and the standard library, so every solver
// package can import it for the shared Options and Stats types while
// the adapters in solve/solvers wire the concrete optimizers into the
// registry.
package solve

import (
	"context"
	"time"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/model"
)

// Kind enumerates the problem families a Solver can accept.
type Kind int

const (
	// KindSwitch is the single-task Switch model (cost(h) = |h|).
	KindSwitch Kind = iota
	// KindGeneral is the single-task General model with an explicit
	// hypercontext catalog.
	KindGeneral
	// KindDAG is the single-task DAG model (catalog + precedence DAG).
	KindDAG
	// KindMTSwitch is the fully synchronized multi-task Switch model.
	KindMTSwitch
	// KindMTDAG is the fully synchronized multi-task DAG model.
	KindMTDAG

	numKinds = int(KindMTDAG) + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSwitch:
		return "switch"
	case KindGeneral:
		return "general"
	case KindDAG:
		return "dag"
	case KindMTSwitch:
		return "mtswitch"
	case KindMTDAG:
		return "mtdag"
	default:
		return "unknown"
	}
}

// MTDAGTask mirrors mtdag.Task without importing mtdag (which would
// cycle through phc back into this package): one task of a multi-task
// DAG machine, its local hyperreconfiguration cost, and its DAG-model
// instance.
type MTDAGTask struct {
	Name string
	V    model.Cost
	Inst *dag.Instance
}

// Instance is the normalized problem wrapper handed to Solvers.
// Exactly one payload field is set, matching Kind().
type Instance struct {
	kind Kind

	// Switch is set for KindSwitch.
	Switch *model.SwitchInstance
	// General is set for KindGeneral.
	General *model.GeneralInstance
	// DAG is set for KindDAG.
	DAG *dag.Instance
	// MT is set for KindMTSwitch.
	MT *model.MTSwitchInstance
	// MTDAG is set for KindMTDAG.
	MTDAG []MTDAGTask

	// Cost carries the upload modes for the multi-task kinds; ignored
	// by the single-task models.
	Cost model.CostOptions
}

// Kind reports which payload the instance carries.
func (in *Instance) Kind() Kind { return in.kind }

// NewSwitch wraps a single-task Switch instance.
func NewSwitch(ins *model.SwitchInstance) *Instance {
	return &Instance{kind: KindSwitch, Switch: ins}
}

// NewGeneral wraps a single-task General instance.
func NewGeneral(ins *model.GeneralInstance) *Instance {
	return &Instance{kind: KindGeneral, General: ins}
}

// NewDAG wraps a single-task DAG instance.
func NewDAG(ins *dag.Instance) *Instance {
	return &Instance{kind: KindDAG, DAG: ins}
}

// NewMT wraps a fully synchronized multi-task Switch instance under
// the given upload modes.
func NewMT(ins *model.MTSwitchInstance, opt model.CostOptions) *Instance {
	return &Instance{kind: KindMTSwitch, MT: ins, Cost: opt}
}

// NewMTDAG wraps a fully synchronized multi-task DAG instance under
// the given upload modes.
func NewMTDAG(tasks []MTDAGTask, opt model.CostOptions) *Instance {
	return &Instance{kind: KindMTDAG, MTDAG: tasks, Cost: opt}
}

// Stats are the run statistics every solver reports.  Counters a
// particular algorithm has no notion of stay zero.
type Stats struct {
	// StatesExpanded counts DP/search states (or transitions) the
	// solver examined.  For the MT-Switch frontier DP it counts the
	// successors generated, before deduplication; StatesExpanded −
	// DedupHits is the distinct successors (plus any the memory
	// budget dropped).
	StatesExpanded int64
	// DedupHits counts states merged into an already-known state
	// (frontier deduplication).
	DedupHits int64
	// PeakFrontier is the largest per-step state frontier the solver
	// held (after deduplication, before beam truncation).  Sub-solves
	// aggregate by max: the peak of the run is the peak of its largest
	// sub-solve.
	PeakFrontier int64
	// ArenaReused counts word slabs the packed frontier engine obtained
	// from its reuse arena instead of allocating fresh — a measure of
	// how allocation-free the hot path ran.
	ArenaReused int64
	// CandidatesPruned counts branches, candidates or moves discarded
	// by caps or bounds before expansion.
	CandidatesPruned int64
	// StatesPruned counts states or expansion branches the pruned
	// search layer eliminated before they reached the frontier — the
	// sum of DominanceHits and BoundCutoffs.
	StatesPruned int64
	// DominanceHits counts frontier states discarded because another
	// state at the same step, with equal requirement residue, no larger
	// per-task hypercontexts and no worse cost, makes them redundant.
	DominanceHits int64
	// BoundCutoffs counts expansion branches abandoned because the
	// admissible remaining-cost bound proved they cannot beat the
	// incumbent schedule.
	BoundCutoffs int64
	// IncumbentTightenings counts the times an externally published
	// incumbent (a portfolio contender's best-known cost on the shared
	// board) was tighter than the solver's own and was adopted
	// mid-flight.  Zero outside portfolio races.
	IncumbentTightenings int64
	// PreprocessReduction counts requirement-matrix cells removed by
	// instance preprocessing (duplicate-column grouping and step
	// run-length compression) before the DP ran.
	PreprocessReduction int64
	// BudgetDropped counts states the MaxFrontierBytes budget discarded
	// (per-worker successor-table caps and budget-forced beam
	// truncation).  Nonzero only on Degraded runs; it quantifies how
	// lossy the degradation was.
	BudgetDropped int64
	// Evaluations counts full-schedule cost evaluations (brute force
	// enumerations, GA fitness calls, annealing moves).
	Evaluations int64
	// Partitions counts the step-axis windows the partitioned solver
	// split the instance into (0 when the run was not partitioned, 1
	// when the planner collapsed to a monolithic solve).
	Partitions int64
	// CutColumns is the weighted column cut of the chosen partition:
	// the total duplicate-group weight of switch columns whose activity
	// interval spans at least one window boundary.
	CutColumns int64
	// StitchBound is the certified additive slack of a partitioned
	// solve: the optimum is guaranteed to lie in
	// [Cost − StitchBound, Cost].  0 on runs the solver proved exact.
	StitchBound int64
	// StitchTime is the wall time of the stitching and coupling
	// correction passes of a partitioned solve.
	StitchTime time.Duration
	// Truncated reports that a beam/candidate cap limited the search,
	// so the result is an upper bound rather than a proven optimum.
	Truncated bool
	// Degraded reports the solver gave up exactness specifically to
	// stay inside Options.MaxFrontierBytes (a budget-forced beam
	// truncation or a clamped GA population).  Degraded implies
	// Truncated; the service layer surfaces it in solution metadata so
	// a budget-degraded result is never mistaken for an exact one.
	Degraded bool
	// WallTime is the end-to-end solve duration.  Filled in by
	// solve.Run; direct calls into solver packages leave it zero.
	WallTime time.Duration
}

// Add accumulates another solver run's counters (used by solvers that
// decompose into sub-solves).
func (s *Stats) Add(o Stats) {
	s.StatesExpanded += o.StatesExpanded
	s.DedupHits += o.DedupHits
	if o.PeakFrontier > s.PeakFrontier {
		s.PeakFrontier = o.PeakFrontier
	}
	s.ArenaReused += o.ArenaReused
	s.CandidatesPruned += o.CandidatesPruned
	s.StatesPruned += o.StatesPruned
	s.DominanceHits += o.DominanceHits
	s.BoundCutoffs += o.BoundCutoffs
	s.IncumbentTightenings += o.IncumbentTightenings
	s.PreprocessReduction += o.PreprocessReduction
	s.BudgetDropped += o.BudgetDropped
	s.Evaluations += o.Evaluations
	s.Partitions += o.Partitions
	s.CutColumns += o.CutColumns
	s.StitchBound += o.StitchBound
	s.StitchTime += o.StitchTime
	s.Truncated = s.Truncated || o.Truncated
	s.Degraded = s.Degraded || o.Degraded
}

// Solution is the normalized result of a solver run.  Cost, Exact and
// Stats are always set; exactly the payload fields matching the
// instance kind are populated.
type Solution struct {
	Kind Kind
	Cost model.Cost
	// Exact reports the cost is a proven optimum for the solver's
	// search space as configured (false for heuristics and for
	// beam-truncated runs).
	Exact bool
	Stats Stats

	// Seg and Hypercontexts carry KindSwitch schedules.
	Seg           model.Segmentation
	Hypercontexts []bitset.Set
	// General carries KindGeneral and KindDAG schedules.
	General model.GeneralSchedule
	// MTSched carries KindMTSwitch schedules.
	MTSched *model.MTSchedule
	// HctxIdx carries KindMTDAG schedules ([task][step] hypercontext
	// index).
	HctxIdx [][]int
	// History is the best-so-far cost trajectory for iterative
	// solvers (GA, annealing); nil otherwise.
	History []model.Cost
	// Contenders is the per-contender breakdown of a portfolio race
	// (who ran, who won, what each cost and expanded); nil outside the
	// portfolio meta-solver.
	Contenders []ContenderReport
}

// ContenderReport is one contender's slice of a portfolio race.
type ContenderReport struct {
	// Solver is the contender's registry name.
	Solver string
	// Won marks the contender whose solution the race returned.
	Won bool
	// Direct marks a learned-dispatch shortcut: the table predicted
	// this solver with high confidence, so no race was run.
	Direct bool
	// Finished reports the contender ran to completion (losers
	// cancelled mid-flight report false).
	Finished bool
	// Cost and Exact mirror the contender's solution when it finished.
	Cost  model.Cost
	Exact bool
	// Err holds the contender's failure, if any ("" on success and on
	// cancellation by the race).
	Err string
	// Stats are the contender's own run statistics (partial for
	// cancelled losers when harvestable).
	Stats Stats
	// WallTime is the contender's own run duration.
	WallTime time.Duration
}

// Capabilities describe what a registered solver accepts.
type Capabilities struct {
	// Kinds lists the problem kinds the solver handles.
	Kinds []Kind
	// Exact reports the solver proves optimality when its caps are not
	// exceeded.
	Exact bool
}

// Supports reports whether the solver accepts the kind.
func (c Capabilities) Supports(k Kind) bool {
	for _, have := range c.Kinds {
		if have == k {
			return true
		}
	}
	return false
}

// Solver is the uniform optimizer interface behind the registry.
type Solver interface {
	// Name is the registry key (e.g. "exact", "ga").
	Name() string
	// Capabilities reports supported kinds and exactness.
	Capabilities() Capabilities
	// Solve runs the optimizer.  Implementations honor ctx
	// cancellation mid-solve and populate Solution.Stats.
	Solve(ctx context.Context, inst *Instance, opts Options) (*Solution, error)
}

// Checkpoint returns the context's error if it has been cancelled or
// its deadline has passed, nil otherwise.  Solver hot loops call this
// periodically; a nil context never cancels.
func Checkpoint(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
