package mtswitch

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// shareV returns a copy of ins in which every task has task 0's v.
func shareV(t testing.TB, ins *model.MTSwitchInstance) *model.MTSwitchInstance {
	t.Helper()
	tasks := append([]model.Task(nil), ins.Tasks...)
	for j := range tasks {
		tasks[j].V = tasks[0].V
	}
	out := mustMT(t, tasks, ins.Reqs)
	out.PublicGlobal, out.W = ins.PublicGlobal, ins.W
	return out
}

// alignedCaps are the option sets the aligned path must answer exactly:
// the default and each cap that truncates or degrades the frontier DP.
var alignedCaps = []solve.Options{{}, {MaxStates: 3}, {MaxCandidates: 2}, {MaxFrontierBytes: 2 << 10}}

// runsFrontierDP reports whether a one-shot engine steps the packed
// frontier DP on ins.
func runsFrontierDP(t *testing.T, ins *model.MTSwitchInstance, opt model.CostOptions, o solve.Options) bool {
	t.Helper()
	ctx := context.Background()
	en, err := NewEngine(ctx, ins, opt, o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	if _, err := en.Advance(ctx, 1); err != nil {
		t.Fatal(err)
	}
	return en.e != nil
}

// checkAlignedExact is the property check of the aligned path
// (alignedIsExact) on an instance whose tasks share one v: under both
// task-parallel hyper upload modes, SolveExact must cost what
// BruteForce does and return a valid, untruncated schedule that is
// SolveAligned's own, without stepping the frontier DP, under the
// default options and under each state, candidate and byte cap.
func checkAlignedExact(t *testing.T, ins *model.MTSwitchInstance, what string) {
	t.Helper()
	ctx := context.Background()
	for oi, opt := range frontierOpts[:2] {
		bf, err := BruteForce(ctx, ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		al, err := SolveAligned(ctx, ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range alignedCaps {
			what := fmt.Sprintf("%s opt %d o %+v", what, oi, o)
			sol, err := SolveExact(ctx, ins, opt, o)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if sol.Cost != bf.Cost {
				t.Fatalf("%s: cost %d, brute force %d", what, sol.Cost, bf.Cost)
			}
			if sol.Stats.Truncated || sol.Stats.Degraded {
				t.Fatalf("%s: truncated %t degraded %t", what, sol.Stats.Truncated, sol.Stats.Degraded)
			}
			if err := ins.Validate(sol.Schedule); err != nil {
				t.Fatalf("%s: invalid schedule: %v", what, err)
			}
			if sol.Stats != al.Stats || !sameSchedule(t, sol.Schedule, al.Schedule) {
				t.Fatalf("%s: stats %+v, not SolveAligned's %+v (or schedules differ)", what, sol.Stats, al.Stats)
			}
			if runsFrontierDP(t, ins, opt, o) {
				t.Fatalf("%s: the frontier DP ran", what)
			}
		}
	}
}

// alignedShapes are served shapes whose tasks share one v: the
// frontier-digest dense 3×40 and phased 2×100 instances, and
// exact-cold's blocked 2×288 seed 1.
func alignedShapes(t *testing.T) []struct {
	name string
	ins  *model.MTSwitchInstance
} {
	t.Helper()
	type named = struct {
		name string
		ins  *model.MTSwitchInstance
	}
	dense, err := workload.Dense(workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	phased, err := workload.Phased(workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []named{{"dense-3x40", dense}, {"phased-2x100", phased}, {"blocked-2x288", blocked}}
}

// TestAlignedExactMatchesPlainDP: on the served shared-v shapes, under
// both task-parallel hyper upload modes, the aligned path must cost
// what the frontier DP proves optimal: the plain DP (DisablePruning)
// on dense 3×40 and phased 2×100, and on blocked 2×288, where the
// plain DP truncates at DefaultMaxStates, the pruned DP with the
// aligned path switched off.
func TestAlignedExactMatchesPlainDP(t *testing.T) {
	ctx := context.Background()
	for _, sh := range alignedShapes(t) {
		for oi, opt := range frontierOpts[:2] {
			var plain *Solution
			var err error
			if sh.name == "blocked-2x288" {
				plain, err = solveFrontierDP(ctx, sh.ins, opt)
			} else {
				plain, err = SolveExact(ctx, sh.ins, opt, solve.Options{DisablePruning: true})
			}
			if err != nil {
				t.Fatal(err)
			}
			if plain.Stats.Truncated {
				t.Fatalf("%s opt %d: the frontier DP truncated", sh.name, oi)
			}
			sol, err := SolveExact(ctx, sh.ins, opt, solve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Cost != plain.Cost || sol.Stats.Truncated {
				t.Fatalf("%s opt %d: aligned path cost %d (truncated %t), frontier DP %d",
					sh.name, oi, sol.Cost, sol.Stats.Truncated, plain.Cost)
			}
			if runsFrontierDP(t, sh.ins, opt, solve.Options{}) {
				t.Fatalf("%s opt %d: the frontier DP ran", sh.name, oi)
			}
		}
	}
}

// solveFrontierDP solves ins with the pruned frontier DP even where
// the aligned path would answer.
func solveFrontierDP(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions) (*Solution, error) {
	en, err := NewEngine(ctx, ins, opt, solve.Options{}, false)
	if err != nil {
		return nil, err
	}
	defer en.Close()
	en.aligned = false
	return en.Solution(ctx)
}

// TestAlignedExactNegativeControl: the aligned path needs both
// premises.  With one task's v raised by 1, or under task-sequential
// hyper uploads, a pruned engine still steps the frontier DP.
func TestAlignedExactNegativeControl(t *testing.T) {
	seqHyper := frontierOpts[2]
	for _, sh := range alignedShapes(t) {
		for oi, opt := range frontierOpts[:2] {
			if !runsFrontierDP(t, unshareV(t, sh.ins), opt, solve.Options{}) {
				t.Fatalf("%s opt %d: v+1 on one task did not reach the frontier DP", sh.name, oi)
			}
		}
		if !runsFrontierDP(t, sh.ins, seqHyper, solve.Options{}) {
			t.Fatalf("%s: task-sequential hyper uploads did not reach the frontier DP", sh.name)
		}
	}
}
