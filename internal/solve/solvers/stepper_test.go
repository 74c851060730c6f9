package solvers

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// prefixOf clones the first n steps of an MT instance, the
// from-scratch baseline for the stepped comparisons.
func prefixOf(t *testing.T, inst *solve.Instance, n int) *model.MTSwitchInstance {
	t.Helper()
	rows := make([][]bitset.Set, inst.MT.NumTasks())
	for j := range rows {
		rows[j] = make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			rows[j][i] = inst.MT.Reqs[j][i].Clone()
		}
	}
	out, err := model.NewMTSwitchInstance(inst.MT.Tasks, rows)
	if err != nil {
		t.Fatal(err)
	}
	out.PublicGlobal = inst.MT.PublicGlobal
	out.W = inst.MT.W
	return out
}

// stepRow extracts one step of the trace in the step-major shape
// Extend takes.
func stepRow(inst *solve.Instance, i int) []bitset.Set {
	row := make([]bitset.Set, inst.MT.NumTasks())
	for j := range row {
		row[j] = inst.MT.Reqs[j][i].Clone()
	}
	return row
}

// TestStepEngineMatchesRun grows a trace step by step through the
// solve-layer Stepper capability and checks every intermediate
// solution against the registry-routed one-shot solve of the same
// prefix, for both steppable solvers.  It runs mustMT as built, whose
// tasks share one v (the aligned path answers every step), and with
// task B's v raised by 1, where the steps resume the frontier DP.
func TestStepEngineMatchesRun(t *testing.T) {
	ctx := context.Background()
	shared := mustMT(t)
	tasks := append([]model.Task(nil), shared.Tasks...)
	tasks[1].V++
	unshared, err := model.NewMTSwitchInstance(tasks, shared.Reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, ins := range []*model.MTSwitchInstance{shared, unshared} {
		full := solve.NewMT(ins, parallel)
		n := full.MT.Steps()
		for _, solver := range []string{"exact", "beam"} {
			name := fmt.Sprintf("%s v=%d,%d", solver, ins.Tasks[0].V, ins.Tasks[1].V)
			prefix := solve.NewMT(prefixOf(t, full, 1), parallel)
			eng, err := solve.NewStepEngine(ctx, solver, prefix, solve.Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for length := 1; length <= n; length++ {
				if length > 1 {
					if err := eng.Extend(ctx, [][]bitset.Set{stepRow(full, length-1)}); err != nil {
						t.Fatalf("%s extend to %d: %v", name, length, err)
					}
				}
				got, err := eng.Solution(ctx)
				if err != nil {
					t.Fatalf("%s length %d: %v", name, length, err)
				}
				want, err := solve.Run(ctx, solver, solve.NewMT(prefixOf(t, full, length), parallel), solve.Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost {
					t.Fatalf("%s length %d: stepped cost %d, one-shot %d", name, length, got.Cost, want.Cost)
				}
				if got.Kind != solve.KindMTSwitch || got.MTSched == nil {
					t.Fatalf("%s: stepped solution missing kind/schedule", name)
				}
				if got.Exact != want.Exact {
					t.Fatalf("%s length %d: stepped Exact=%v, one-shot %v", name, length, got.Exact, want.Exact)
				}
			}
			eng.Close()
		}
	}
}

// TestStepEngineFeatureDetection: non-incremental solvers and
// non-MT-Switch instances must report ErrNotSteppable, never panic or
// misbehave.
func TestStepEngineFeatureDetection(t *testing.T) {
	ctx := context.Background()
	inst := solve.NewMT(mustMT(t), parallel)
	if _, err := solve.NewStepEngine(ctx, "ga", inst, solve.Options{}); !errors.Is(err, solve.ErrNotSteppable) {
		t.Fatalf("ga: got %v, want ErrNotSteppable", err)
	}
	if _, err := solve.NewStepEngine(ctx, "nosuch", inst, solve.Options{}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	sw := solve.NewSwitch(mustSwitch(t, 3, 2, []int{0}, []int{1}))
	if _, err := solve.NewStepEngine(ctx, "exact", sw, solve.Options{}); !errors.Is(err, solve.ErrNotSteppable) {
		t.Fatalf("switch instance: got %v, want ErrNotSteppable", err)
	}
}
