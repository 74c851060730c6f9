package partition

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
	"repro/internal/workload"
)

var parallel = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}

// TestPartitionedMatchesReferenceCutFree pins the exactness property
// of the blocked workload: with block-disjoint working sets and
// v_j = ws, the stitched cost equals the monolithic optimum for every
// worker count and window count (window boundaries land on block
// edges, where installing every task is exchange-argument optimal).
func TestPartitionedMatchesReferenceCutFree(t *testing.T) {
	configs := []workload.Config{
		{Tasks: 2, Steps: 12, Switches: 8, MeanPhase: 3, Seed: 11},
		{Tasks: 3, Steps: 16, Switches: 12, MeanPhase: 4, Seed: 23},
	}
	for _, cfg := range configs {
		ins, err := workload.Blocked(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := mtswitch.SolveExactReference(context.Background(), ins, parallel, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, parts := range []int{2, 4} {
				o := solve.Options{Workers: workers, Partitions: parts}
				sol, err := Solve(context.Background(), ins, parallel, o)
				if err != nil {
					t.Fatalf("seed %d workers %d parts %d: %v", cfg.Seed, workers, parts, err)
				}
				if sol.Cost != ref.Cost {
					t.Fatalf("seed %d workers %d parts %d: cost %d, reference %d (bound %d)",
						cfg.Seed, workers, parts, sol.Cost, ref.Cost, sol.Stats.StitchBound)
				}
				if sol.Stats.Partitions != int64(parts) {
					t.Fatalf("seed %d parts %d: Stats.Partitions = %d", cfg.Seed, parts, sol.Stats.Partitions)
				}
				if sol.Stats.CutColumns != 0 {
					t.Fatalf("seed %d parts %d: CutColumns = %d, want 0", cfg.Seed, parts, sol.Stats.CutColumns)
				}
				assertFeasible(t, ins, sol)
			}
		}
	}
}

// TestPartitionedBoundContainsOptimum drives non-empty cuts: the
// certified interval [Cost − StitchBound, Cost] must contain the true
// optimum, and the schedule must stay feasible at its reported cost.
func TestPartitionedBoundContainsOptimum(t *testing.T) {
	for _, cut := range []int{1, 2} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := workload.Config{Tasks: 2, Steps: 12, Switches: 10, MeanPhase: 3, CutWidth: cut, Seed: seed}
			ins, err := workload.Blocked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := mtswitch.SolveExactReference(context.Background(), ins, parallel, solve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sol, err := Solve(context.Background(), ins, parallel, solve.Options{Partitions: 3})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Stats.CutColumns == 0 {
				t.Fatalf("cut %d seed %d: expected a non-empty column cut", cut, seed)
			}
			lo := sol.Cost - model.Cost(sol.Stats.StitchBound)
			if ref.Cost > sol.Cost || ref.Cost < lo {
				t.Fatalf("cut %d seed %d: optimum %d outside certified [%d, %d]",
					cut, seed, ref.Cost, lo, sol.Cost)
			}
			assertFeasible(t, ins, sol)
		}
	}
}

// TestPartitionedDelegates pins every monolithic-delegation path:
// explicit Partitions=1, instances below the auto threshold, the
// fully task-sequential cost model, and plans emptied by the cut cap
// all match SolveExact exactly and report a single partition.
func TestPartitionedDelegates(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 12, Switches: 8, MeanPhase: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sequential := model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}
	cases := []struct {
		name string
		opt  model.CostOptions
		o    solve.Options
	}{
		{"partitions-1", parallel, solve.Options{Partitions: 1}},
		{"auto-below-threshold", parallel, solve.Options{}},
		{"sequential", sequential, solve.Options{Partitions: 4}},
	}
	for _, c := range cases {
		exact, err := mtswitch.SolveExact(context.Background(), ins, c.opt, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Solve(context.Background(), ins, c.opt, c.o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sol.Cost != exact.Cost {
			t.Fatalf("%s: cost %d, SolveExact %d", c.name, sol.Cost, exact.Cost)
		}
		if sol.Stats.Partitions != 1 {
			t.Fatalf("%s: Stats.Partitions = %d, want 1", c.name, sol.Stats.Partitions)
		}
		if !IsExact(sol) {
			t.Fatalf("%s: delegated run must be exact", c.name)
		}
		if sol.Stats.StitchBound != 0 {
			t.Fatalf("%s: StitchBound = %d, want 0", c.name, sol.Stats.StitchBound)
		}
	}

	// A cut cap no boundary satisfies must merge back to monolithic.
	sol, err := Solve(context.Background(), ins, parallel, solve.Options{Partitions: 4, MaxCutColumns: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Partitions != 4 {
		t.Fatalf("uncapped: Partitions = %d, want 4", sol.Stats.Partitions)
	}
}

func TestPartitionedCancelledContext(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 12, Switches: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve(ctx, ins, parallel, solve.Options{Partitions: 2}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// assertFeasible re-validates and re-prices the returned schedule: the
// reported cost must be the schedule's true cost.
func assertFeasible(t *testing.T, ins *model.MTSwitchInstance, sol *mtswitch.Solution) {
	t.Helper()
	if err := ins.Validate(sol.Schedule); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	c, err := ins.Cost(sol.Schedule, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if c != sol.Cost {
		t.Fatalf("reported cost %d, schedule prices at %d", sol.Cost, c)
	}
}

// FuzzPartitionStitch asserts the stitch certificate on arbitrary
// blocked shapes, upload modes and public-global terms: for any
// task/step/switch/cut/window mix the true optimum lies in
// [Cost − StitchBound, Cost] and the schedule prices at its reported
// cost.  The oracle is the packed engine without pruning, which
// TestPackedMatchesReference pins to the reference DP; the reference
// itself can run for tens of seconds on 3-task traces with one-step
// blocks, past the fuzz worker's hang limit.
func FuzzPartitionStitch(f *testing.F) {
	f.Add(2, 10, 6, 3, 1, int64(1), 3, false, false, 0)
	f.Add(1, 2, 2, 1, 0, int64(7), 2, true, false, 2)
	f.Add(3, 9, 9, 4, 2, int64(42), 4, false, true, 1)
	f.Fuzz(func(t *testing.T, tasks, steps, switches, meanPhase, cutWidth int, seed int64, parts int, hyperSeq, reconfSeq bool, pub int) {
		cfg := workload.Config{
			Tasks:     1 + abs(tasks)%3,
			Steps:     2 + abs(steps)%10,
			Switches:  2 + abs(switches)%6,
			MeanPhase: 1 + abs(meanPhase)%4,
			CutWidth:  abs(cutWidth) % 3,
			Seed:      seed,
		}
		if cfg.Seed == 0 {
			cfg.Seed = 1
		}
		ins, err := workload.Blocked(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ins.PublicGlobal = abs(pub) % 5
		opt := parallel
		if hyperSeq {
			opt.HyperUpload = model.TaskSequential
		}
		if reconfSeq {
			opt.ReconfUpload = model.TaskSequential
		}
		sol, err := Solve(context.Background(), ins, opt, solve.Options{Partitions: abs(parts) % 5})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := mtswitch.SolveExact(context.Background(), ins, opt, solve.Options{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		lo := sol.Cost - model.Cost(sol.Stats.StitchBound)
		if ref.Cost > sol.Cost || ref.Cost < lo {
			t.Fatalf("optimum %d outside certified [%d, %d] (cfg %+v, %+v, pub %d)", ref.Cost, lo, sol.Cost, cfg, opt, ins.PublicGlobal)
		}
		if err := ins.Validate(sol.Schedule); err != nil {
			t.Fatalf("invalid schedule: %v (cfg %+v, %+v)", err, cfg, opt)
		}
		c, err := ins.Cost(sol.Schedule, opt)
		if err != nil {
			t.Fatal(err)
		}
		if c != sol.Cost {
			t.Fatalf("reported cost %d, schedule prices at %d (cfg %+v, %+v)", sol.Cost, c, cfg, opt)
		}
	})
}
