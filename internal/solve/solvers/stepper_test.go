package solvers

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
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
// prefix, for both steppable solvers.
func TestStepEngineMatchesRun(t *testing.T) {
	ctx := context.Background()
	full := solve.NewMT(mustMT(t), parallel)
	n := full.MT.Steps()
	for _, name := range []string{"exact", "beam"} {
		prefix := solve.NewMT(prefixOf(t, full, 1), parallel)
		eng, err := solve.NewStepEngine(ctx, name, prefix, solve.Options{Workers: 2})
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
			want, err := solve.Run(ctx, name, solve.NewMT(prefixOf(t, full, length), parallel), solve.Options{Workers: 2})
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

// TestStepEngineCheckpointHandoff round-trips a session through the
// solve-layer Checkpoint/Resume pair, as the service and mtopt do.
func TestStepEngineCheckpointHandoff(t *testing.T) {
	ctx := context.Background()
	inst := solve.NewMT(mustMT(t), parallel)
	eng, err := solve.NewStepEngine(ctx, "exact", inst, solve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Advance(ctx, 2); err != nil {
		t.Fatal(err)
	}
	data, err := eng.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	res, err := solve.ResumeStepEngine(ctx, "exact", data)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	got, err := res.Solution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solve.Run(ctx, "exact", inst, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("resumed cost %d, one-shot %d", got.Cost, want.Cost)
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

// TestStepEngineResumeThenExtend: a session handed off through
// Checkpoint/ResumeStepEngine keeps growing with the default (pruned)
// options, every batch matching the one-shot solve of its prefix, and
// the batches after the first rebuild resume past step 0.
func TestStepEngineResumeThenExtend(t *testing.T) {
	ctx := context.Background()
	st, err := workload.Streaming(workload.StreamConfig{
		Workload: workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10, Seed: 7},
		Initial:  40, MeanBatch: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := solve.NewMT(st.Instance, parallel)
	eng, err := solve.NewStepEngine(ctx, "exact", solve.NewMT(prefixOf(t, full, 40), parallel), solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solution(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := eng.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	res, err := solve.ResumeStepEngine(ctx, "exact", data)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	n, resumed := 40, 0
	for _, b := range st.Batches {
		if err := res.Extend(ctx, b.Rows); err != nil {
			t.Fatal(err)
		}
		n += len(b.Rows)
		got, err := res.Solution(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solve.Run(ctx, "exact", solve.NewMT(prefixOf(t, full, n), parallel), solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || got.Exact != want.Exact {
			t.Fatalf("%d steps: resumed session cost %d exact %v, one-shot %d exact %v", n, got.Cost, got.Exact, want.Cost, want.Exact)
		}
		if res.LastResolveStart() > 0 {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatal("no batch after the checkpoint handoff resumed past step 0")
	}
}
