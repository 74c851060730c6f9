package solve

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitset"
)

// StepEngine is an incremental solve session: one instance whose
// demand trace grows (Extend), gets corrected (Amend) or is re-opened
// (Rewind) over time, with the solver re-solving only the suffix each
// mutation invalidates instead of starting over.  It is the solve-layer
// view of the mtswitch stepped engine; the service layer's sessions and
// mtopt's preempt/resume flags are both built on it.
//
// Engines are NOT safe for concurrent use — callers serialize access.
// Close releases pooled resources; every engine must be closed.
type StepEngine interface {
	// Steps reports the current trace length.
	Steps() int

	// Extend appends demand rows, step-major: steps[i][j] is task j's
	// requirement at appended step i.
	Extend(ctx context.Context, steps [][]bitset.Set) error

	// Amend overwrites the already-submitted rows at trace positions
	// at..at+len(steps)-1 (step-major, like Extend).
	Amend(ctx context.Context, at int, steps [][]bitset.Set) error

	// Rewind discards the solved suffix from step onward so the next
	// Advance/Solution re-runs it.
	Rewind(step int) error

	// Advance runs at most maxSteps DP steps (<= 0 means to completion)
	// and reports whether the solve has reached the end of the trace.
	Advance(ctx context.Context, maxSteps int) (bool, error)

	// Solution runs the solve to completion and extracts the schedule
	// for the current trace.
	Solution(ctx context.Context) (*Solution, error)

	// Checkpoint serializes the engine so ResumeStepEngine can continue
	// it later, in another process.
	Checkpoint(ctx context.Context) ([]byte, error)

	// LastResolveStart reports the step of the trace (the original
	// step axis, whatever axis the solver steps internally) the most
	// recent Extend/Amend/Rewind resumed solving from (0 after a full
	// rebuild); the re-solved suffix is Steps() - LastResolveStart.
	LastResolveStart() int

	// ResolveExpanded reports the DP states expanded since the most
	// recent trace mutation — the incremental cost of the latest
	// resolve, comparable to a from-scratch Stats.StatesExpanded.
	ResolveExpanded() int64

	// SizeBytes estimates retained memory, for eviction budgeting.
	SizeBytes() int64

	Close()
}

// StepperProvider is the optional capability a registered Solver
// implements to hand out StepEngines.  It is feature-detected by type
// assertion, so solvers without it are completely unaffected.
type StepperProvider interface {
	Solver

	NewStepEngine(ctx context.Context, inst *Instance, opts Options) (StepEngine, error)
	ResumeStepEngine(ctx context.Context, data []byte) (StepEngine, error)
}

// ErrNotSteppable reports that a solver (or a solver/instance-kind
// combination) has no incremental engine.  Callers feature-detect with
// errors.Is.
var ErrNotSteppable = errors.New("solve: solver does not support incremental stepping")

// NewStepEngine resolves a registered solver by name and opens an
// incremental solve session on it, with the same validation Run
// applies to one-shot solves.  Solvers that do not implement
// StepperProvider (or do not step this instance kind) return
// ErrNotSteppable.
func NewStepEngine(ctx context.Context, name string, inst *Instance, opts Options) (StepEngine, error) {
	sp, err := stepper(name)
	if err != nil {
		return nil, err
	}
	if inst == nil {
		return nil, fmt.Errorf("solve: nil instance")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !sp.Capabilities().Supports(inst.Kind()) {
		return nil, fmt.Errorf("solve: solver %q does not support %v instances (supports %v)",
			name, inst.Kind(), sp.Capabilities().Kinds)
	}
	return sp.NewStepEngine(ctx, inst, opts)
}

// ResumeStepEngine resolves a solver by name and rebuilds one of its
// step engines from a Checkpoint blob.  Everything a solve depends on
// travels inside the checkpoint.
func ResumeStepEngine(ctx context.Context, name string, data []byte) (StepEngine, error) {
	sp, err := stepper(name)
	if err != nil {
		return nil, err
	}
	return sp.ResumeStepEngine(ctx, data)
}

func stepper(name string) (StepperProvider, error) {
	s, err := Get(name)
	if err != nil {
		return nil, err
	}
	sp, ok := s.(StepperProvider)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotSteppable, name)
	}
	return sp, nil
}
