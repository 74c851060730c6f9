// Package solvers wires every optimizer in the repo into the solve
// registry.  Importing it (usually blank from package main, or
// transitively through internal/core) makes the solver names
//
//	exact, exact-partitioned, fast, greedy, interval, changeover,
//	bruteforce, minsat, aligned, beam, ga, anneal, pertask, portfolio
//
// resolvable via solve.Get / solve.Run.  The adapters translate the
// normalized solve.Instance into each package's native types and wrap
// native results into solve.Solution, so all the solver entry points
// are reachable through one interface with uniform options,
// cancellation and run statistics.  The portfolio meta-solver
// registers itself from internal/portfolio (imported blank below); it
// races the registered contenders through the same registry.
package solvers

import (
	"context"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/ga"
	"repro/internal/mtdag"
	"repro/internal/mtswitch"
	"repro/internal/partition"
	"repro/internal/phc"
	"repro/internal/solve"

	_ "repro/internal/portfolio"
)

func fromSwitch(s *phc.Solution, exact bool) *solve.Solution {
	return &solve.Solution{
		Cost:          s.Cost,
		Exact:         exact,
		Stats:         s.Stats,
		Seg:           s.Seg,
		Hypercontexts: s.Hypercontexts,
	}
}

func fromGeneral(s *phc.GeneralSolution, exact bool) *solve.Solution {
	return &solve.Solution{
		Cost:    s.Cost,
		Exact:   exact,
		Stats:   s.Stats,
		General: s.Schedule,
	}
}

func fromMT(s *mtswitch.Solution, exact bool) *solve.Solution {
	return &solve.Solution{
		Cost:    s.Cost,
		Exact:   exact,
		Stats:   s.Stats,
		MTSched: s.Schedule,
	}
}

func fromMTDAG(s *mtdag.Solution, exact bool) *solve.Solution {
	var idx [][]int
	if s.Schedule != nil {
		idx = s.Schedule.HctxIdx
	}
	return &solve.Solution{
		Cost:    s.Cost,
		Exact:   exact,
		Stats:   s.Stats,
		HctxIdx: idx,
	}
}

// beamDefaults applies the beam solver's deliberately tight default
// caps (MaxStates 3000, MaxCandidates 4) — the fast approximate
// configuration used by the paper-experiment pipeline.
func beamDefaults(opts solve.Options) solve.Options {
	if opts.MaxStates <= 0 {
		opts.MaxStates = 3000
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 4
	}
	return opts
}

// stepperSolver decorates a registered solver with the solve.Stepper
// capability: incremental MT-Switch sessions backed by the mtswitch
// stepped engine.  defaults mirrors the solver's one-shot option
// defaulting (beam's tight caps) so a stepped solve and a Run-routed
// solve of the same trace agree exactly.
type stepperSolver struct {
	solve.Solver
	defaults func(opts solve.Options) solve.Options
	exact    bool
}

func (s *stepperSolver) NewStepEngine(ctx context.Context, inst *solve.Instance, opts solve.Options) (solve.StepEngine, error) {
	if inst.Kind() != solve.KindMTSwitch {
		return nil, fmt.Errorf("%w: solver %q steps only mtswitch instances, not %v",
			solve.ErrNotSteppable, s.Name(), inst.Kind())
	}
	if s.defaults != nil {
		opts = s.defaults(opts)
	}
	eng, err := mtswitch.NewEngine(ctx, inst.MT, inst.Cost, opts, true)
	if err != nil {
		return nil, err
	}
	return &mtStepEngine{eng: eng, exact: s.exact}, nil
}

func (s *stepperSolver) ResumeStepEngine(ctx context.Context, data []byte) (solve.StepEngine, error) {
	// The checkpoint carries the solve-shaping options itself.
	eng, err := mtswitch.ResumeEngine(ctx, data, true)
	if err != nil {
		return nil, err
	}
	return &mtStepEngine{eng: eng, exact: s.exact}, nil
}

// mtStepEngine adapts *mtswitch.Engine to solve.StepEngine.
type mtStepEngine struct {
	eng   *mtswitch.Engine
	exact bool
}

func (m *mtStepEngine) Steps() int { return m.eng.Steps() }
func (m *mtStepEngine) Extend(ctx context.Context, steps [][]bitset.Set) error {
	return m.eng.Extend(ctx, steps)
}
func (m *mtStepEngine) Amend(ctx context.Context, at int, steps [][]bitset.Set) error {
	return m.eng.Amend(ctx, at, steps)
}
func (m *mtStepEngine) Rewind(step int) error { return m.eng.Rewind(step) }
func (m *mtStepEngine) Advance(ctx context.Context, maxSteps int) (bool, error) {
	return m.eng.Advance(ctx, maxSteps)
}
func (m *mtStepEngine) Solution(ctx context.Context) (*solve.Solution, error) {
	s, err := m.eng.Solution(ctx)
	if err != nil {
		return nil, err
	}
	sol := fromMT(s, m.exact && !s.Stats.Truncated)
	sol.Kind = solve.KindMTSwitch
	return sol, nil
}
func (m *mtStepEngine) Checkpoint(ctx context.Context) ([]byte, error) {
	return m.eng.Checkpoint(ctx)
}
func (m *mtStepEngine) LastResolveStart() int  { return m.eng.LastResolveStart() }
func (m *mtStepEngine) ResolveExpanded() int64 { return m.eng.ResolveExpanded() }
func (m *mtStepEngine) SizeBytes() int64       { return m.eng.SizeBytes() }
func (m *mtStepEngine) Close()                 { m.eng.Close() }

// mtdagInstance rebuilds the native mtdag.Instance from the normalized
// task list (solve cannot import mtdag without an import cycle, so the
// Instance carries a mirror struct).
func mtdagInstance(inst *solve.Instance) (*mtdag.Instance, error) {
	tasks := make([]mtdag.Task, len(inst.MTDAG))
	for i, t := range inst.MTDAG {
		tasks[i] = mtdag.Task{Name: t.Name, V: t.V, Inst: t.Inst}
	}
	return mtdag.New(tasks)
}

func init() {
	// exact: the optimal algorithm for each kind — single-task DPs,
	// the joint-hypercontext DP for MT-Switch (exact while within
	// MaxStates; Solution.Exact reports whether truncation happened),
	// and the joint-vector DP for MT-DAG.
	solve.Register(&stepperSolver{exact: true, Solver: solve.NewSolver("exact",
		solve.Capabilities{
			Kinds: []solve.Kind{solve.KindSwitch, solve.KindGeneral, solve.KindDAG, solve.KindMTSwitch, solve.KindMTDAG},
			Exact: true,
		},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			switch inst.Kind() {
			case solve.KindSwitch:
				s, err := phc.SolveSwitch(ctx, inst.Switch)
				if err != nil {
					return nil, err
				}
				return fromSwitch(s, true), nil
			case solve.KindGeneral:
				s, err := phc.SolveGeneral(ctx, inst.General)
				if err != nil {
					return nil, err
				}
				return fromGeneral(s, true), nil
			case solve.KindDAG:
				s, err := phc.SolveDAG(ctx, inst.DAG)
				if err != nil {
					return nil, err
				}
				return fromGeneral(s, true), nil
			case solve.KindMTSwitch:
				s, err := mtswitch.SolveExact(ctx, inst.MT, inst.Cost, opts)
				if err != nil {
					return nil, err
				}
				return fromMT(s, !s.Stats.Truncated), nil
			case solve.KindMTDAG:
				mt, err := mtdagInstance(inst)
				if err != nil {
					return nil, err
				}
				s, err := mtdag.Solve(ctx, mt, inst.Cost)
				if err != nil {
					return nil, err
				}
				return fromMTDAG(s, true), nil
			default:
				return nil, fmt.Errorf("solvers: exact: unsupported kind %v", inst.Kind())
			}
		})})

	// exact-partitioned: the step-axis hypergraph decomposition of the
	// exact MT-Switch DP — windows solved concurrently, stitched with
	// a coupling correction and a certified additive bound
	// (Stats.{Partitions, CutColumns, StitchBound, StitchTime}).  Not
	// marked Exact: a genuinely partitioned run returns an upper bound
	// whose gap is certified by StitchBound; Solution.Exact is still
	// true when the run delegated to the monolithic engine or the
	// certificate collapsed to a point (StitchBound 0).
	solve.Register(solve.NewSolver("exact-partitioned",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := partition.Solve(ctx, inst.MT, inst.Cost, opts)
			if err != nil {
				return nil, err
			}
			return fromMT(s, partition.IsExact(s)), nil
		}))

	// fast: the O(n·(L+K)) single-task Switch DP (same optimum as
	// exact, different algorithm).
	solve.Register(solve.NewSolver("fast",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindSwitch}, Exact: true},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := phc.SolveSwitchFast(ctx, inst.Switch)
			if err != nil {
				return nil, err
			}
			return fromSwitch(s, true), nil
		}))

	// greedy: the forward scanning baseline.
	solve.Register(solve.NewSolver("greedy",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := phc.Greedy(ctx, inst.Switch)
			if err != nil {
				return nil, err
			}
			return fromSwitch(s, false), nil
		}))

	// interval: hyperreconfigure every Options.IntervalK steps.
	solve.Register(solve.NewSolver("interval",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := phc.FixedInterval(ctx, inst.Switch, opts.IntervalK)
			if err != nil {
				return nil, err
			}
			return fromSwitch(s, false), nil
		}))

	// changeover: the Δ-cost variant's candidate-class DP.  Not marked
	// exact: it optimizes a different objective (changeover cost) and
	// only within the canonical candidate class.
	solve.Register(solve.NewSolver("changeover",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := phc.SolveChangeover(ctx, inst.Switch)
			if err != nil {
				return nil, err
			}
			return fromSwitch(s, false), nil
		}))

	// bruteforce: exhaustive reference optima for tests and
	// cross-checks (small instances only).
	solve.Register(solve.NewSolver("bruteforce",
		solve.Capabilities{
			Kinds: []solve.Kind{solve.KindSwitch, solve.KindGeneral, solve.KindMTSwitch},
			Exact: true,
		},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			switch inst.Kind() {
			case solve.KindSwitch:
				s, err := phc.BruteForceSwitch(ctx, inst.Switch)
				if err != nil {
					return nil, err
				}
				return fromSwitch(s, true), nil
			case solve.KindGeneral:
				s, err := phc.BruteForceGeneral(ctx, inst.General)
				if err != nil {
					return nil, err
				}
				return fromGeneral(s, true), nil
			case solve.KindMTSwitch:
				s, err := mtswitch.BruteForce(ctx, inst.MT, inst.Cost)
				if err != nil {
					return nil, err
				}
				return fromMT(s, true), nil
			default:
				return nil, fmt.Errorf("solvers: bruteforce: unsupported kind %v", inst.Kind())
			}
		}))

	// minsat: the DAG model's minimal-satisfier greedy heuristic.
	solve.Register(solve.NewSolver("minsat",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindDAG}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := phc.MinimalSatisfierHeuristic(ctx, inst.DAG)
			if err != nil {
				return nil, err
			}
			return fromGeneral(s, false), nil
		}))

	// aligned: the O(n²·m) DP over globally aligned
	// hyperreconfiguration steps — optimal within the aligned class,
	// an upper bound in general.
	solve.Register(solve.NewSolver("aligned",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := mtswitch.SolveAligned(ctx, inst.MT, inst.Cost)
			if err != nil {
				return nil, err
			}
			return fromMT(s, false), nil
		}))

	// beam: the joint-hypercontext DP with deliberately tight default
	// caps (MaxStates 3000, MaxCandidates 4) — the fast approximate
	// configuration used by the paper-experiment pipeline.
	solve.Register(&stepperSolver{defaults: beamDefaults, Solver: solve.NewSolver("beam",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			s, err := mtswitch.SolveExact(ctx, inst.MT, inst.Cost, beamDefaults(opts))
			if err != nil {
				return nil, err
			}
			return fromMT(s, false), nil
		})})

	// ga: the paper's genetic algorithm over joint
	// hyperreconfiguration masks.
	solve.Register(solve.NewSolver("ga",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			r, err := ga.Optimize(ctx, inst.MT, inst.Cost, opts)
			if err != nil {
				return nil, err
			}
			sol := fromMT(r.Solution, false)
			sol.History = r.History
			return sol, nil
		}))

	// anneal: simulated annealing on the same mask space (GA ablation).
	solve.Register(solve.NewSolver("anneal",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			r, err := ga.Anneal(ctx, inst.MT, inst.Cost, opts)
			if err != nil {
				return nil, err
			}
			sol := fromMT(r.Solution, false)
			sol.History = r.History
			return sol, nil
		}))

	// pertask: independent single-task General DPs per MT-DAG task —
	// optimal when the cost separates (task-sequential uploads), an
	// upper bound for task-parallel ones (Stats.Truncated reports
	// which).
	solve.Register(solve.NewSolver("pertask",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTDAG}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			mt, err := mtdagInstance(inst)
			if err != nil {
				return nil, err
			}
			s, err := mtdag.SolvePerTask(ctx, mt, inst.Cost)
			if err != nil {
				return nil, err
			}
			return fromMTDAG(s, !s.Stats.Truncated), nil
		}))
}
