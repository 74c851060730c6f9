// The -bench8 mode records the partition-and-conquer baseline
// (BENCH_PR8.json, EXPERIMENTS.md E20): the monolithic pruned exact
// engine against the partitioned solver (internal/partition) on
// block-structured workloads.
//
// Three scenarios are recorded:
//
//   - cut-free: a blocked workload whose working sets are disjoint
//     between blocks; the partitioned cost must equal the monolithic
//     exact cost and (outside -bench8small) the partitioned solve must
//     be at least 5x faster, with the cost also agreeing across
//     Workers {1,2,8} x Partitions {2,4};
//   - budget: a larger blocked workload under a MaxFrontierBytes
//     budget the monolithic frontier cannot fit — the monolithic run
//     degrades to a beam while the partitioned windows each stay
//     within the budget and recover the unbudgeted optimum;
//   - cut: a blocked workload with a nonzero cut width; the optimum
//     must lie inside the certified interval
//     [cost − StitchBound, cost].
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/partition"
	"repro/internal/solve"
	"repro/internal/workload"
)

// blockedWorkload is the cut-free headline instance: aligned blocks
// with block-disjoint working sets, so the step-axis decomposition is
// exact and every window is small.  BenchmarkPartitionedSolve in
// bench_test.go measures the same configuration.
var blockedWorkload = workload.Config{Tasks: 4, Steps: 64, Switches: 24, MeanPhase: 8, Seed: 2}

// blockedSmallWorkload replaces blockedWorkload under -bench8small
// (the CI smoke): the correctness gates still run, the 5x speedup
// floor does not.
var blockedSmallWorkload = workload.Config{Tasks: 2, Steps: 64, Switches: 16, MeanPhase: 4, Seed: 2}

// blockedBudgetWorkload is the degradation scenario: long enough that
// the monolithic frontier blows the byte budget while each window's
// frontier stays far below it.
var blockedBudgetWorkload = workload.Config{Tasks: 4, Steps: 96, Switches: 36, MeanPhase: 8, Seed: 2}

// blockedCutWorkload keeps a nonzero cut (CutWidth always-active
// shared columns) so the certificate is exercised with a positive
// StitchBound.
var blockedCutWorkload = workload.Config{Tasks: 2, Steps: 36, Switches: 12, MeanPhase: 6, CutWidth: 2, Seed: 9}

// partitionBudgetBytes is the MaxFrontierBytes budget of the
// degradation scenario.
const partitionBudgetBytes = 256 << 10

// partitionSpeedupFloor is the acceptance criterion of PR8: the
// partitioned solve must beat the monolithic pruned engine by at
// least this factor on the cut-free workload.
const partitionSpeedupFloor = 5.0

// partitionRun is one solver's measurement on the cut-free workload.
type partitionRun struct {
	Solver      string  `json:"solver"` // "exact" or "exact-partitioned"
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Cost        int64   `json:"cost"`
	Partitions  int64   `json:"partitions,omitempty"`
	CutColumns  int64   `json:"cut_columns"`
	StitchBound int64   `json:"stitch_bound"`
}

// partitionComparison is the cut-free head-to-head.
type partitionComparison struct {
	Workload    string          `json:"workload"`
	Config      workload.Config `json:"config"`
	Monolithic  partitionRun    `json:"monolithic"`
	Partitioned partitionRun    `json:"partitioned"`
	// Speedup is monolithic ns/op ÷ partitioned ns/op.
	Speedup float64 `json:"speedup"`
	// WorkersAgree records that the partitioned cost matched the
	// monolithic exact cost across Workers {1,2,8} x Partitions {2,4}.
	WorkersAgree bool `json:"workers_agree"`
}

// partitionBudgetScenario is the degradation scenario: under the same
// MaxFrontierBytes the monolithic engine degrades to a beam while the
// partitioned windows solve exactly.
type partitionBudgetScenario struct {
	Workload         string          `json:"workload"`
	Config           workload.Config `json:"config"`
	MaxFrontierBytes int64           `json:"max_frontier_bytes"`
	// OptimalCost is the unbudgeted monolithic exact optimum both
	// budgeted runs are judged against.
	OptimalCost int64     `json:"optimal_cost"`
	Monolithic  budgetRun `json:"monolithic"`
	Partitioned budgetRun `json:"partitioned"`
}

// partitionCutScenario records the certificate on a non-empty cut.
type partitionCutScenario struct {
	Workload    string          `json:"workload"`
	Config      workload.Config `json:"config"`
	Cost        int64           `json:"cost"`
	OptimalCost int64           `json:"optimal_cost"`
	Partitions  int64           `json:"partitions"`
	CutColumns  int64           `json:"cut_columns"`
	StitchBound int64           `json:"stitch_bound"`
	// BoundContainsOptimum asserts OptimalCost ∈ [Cost − StitchBound,
	// Cost]; -bench8 fails if it is false.
	BoundContainsOptimum bool `json:"bound_contains_optimum"`
}

// partitionBaseline is the schema of BENCH_PR8.json.
type partitionBaseline struct {
	Benchmark  string               `json:"benchmark"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Small      bool                 `json:"small,omitempty"`
	CutFree    partitionComparison  `json:"cut_free"`
	Cut        partitionCutScenario `json:"cut"`
	// Budget is omitted under -bench8small (the smoke keeps CI fast).
	Budget *partitionBudgetScenario `json:"budget,omitempty"`
}

// budgetRun is one engine variant's outcome under the MaxFrontierBytes
// budget of the degradation scenario.
type budgetRun struct {
	PruningEnabled bool  `json:"pruning_enabled"`
	Cost           int64 `json:"cost"`
	Degraded       bool  `json:"degraded"`
	Truncated      bool  `json:"truncated"`
	BudgetDropped  int64 `json:"budget_dropped"`
}

// measureEngine benchmarks one solve closure with testing.Benchmark.
func measureEngine(run func() (model.Cost, error)) (testing.BenchmarkResult, model.Cost, error) {
	var cost model.Cost
	var err error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cost, err = run()
			if err != nil {
				return
			}
		}
	})
	return res, cost, err
}

// measurePartitionRun benchmarks one solve closure and collects the
// partition statistics from a separate untimed run.
func measurePartitionRun(solver string, workers int, stats func() (*mtswitch.Solution, error), run func() (model.Cost, error)) (partitionRun, error) {
	sol, err := stats()
	if err != nil {
		return partitionRun{}, err
	}
	res, cost, err := measureEngine(run)
	if err != nil {
		return partitionRun{}, err
	}
	return partitionRun{
		Solver:      solver,
		Workers:     workers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		Cost:        int64(cost),
		Partitions:  sol.Stats.Partitions,
		CutColumns:  sol.Stats.CutColumns,
		StitchBound: sol.Stats.StitchBound,
	}, nil
}

// partitionBench runs the partition-and-conquer comparison and writes
// BENCH_PR8.json.  Under small the workload shrinks and the speedup
// floor and budget scenario are skipped — correctness gates (equal
// cut-free cost, workers agreement, certificate containment) always
// run.
func partitionBench(outPath string, small bool) error {
	ctx := context.Background()
	cfg := blockedWorkload
	if small {
		cfg = blockedSmallWorkload
	}
	ins, err := workload.Blocked(cfg)
	if err != nil {
		return err
	}

	mono, err := measurePartitionRun("exact", 0,
		func() (*mtswitch.Solution, error) { return mtswitch.SolveExact(ctx, ins, parallel, solve.Options{}) },
		func() (model.Cost, error) {
			sol, err := mtswitch.SolveExact(ctx, ins, parallel, solve.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		})
	if err != nil {
		return fmt.Errorf("cut-free monolithic: %w", err)
	}
	part, err := measurePartitionRun("exact-partitioned", 0,
		func() (*mtswitch.Solution, error) { return partition.Solve(ctx, ins, parallel, solve.Options{}) },
		func() (model.Cost, error) {
			sol, err := partition.Solve(ctx, ins, parallel, solve.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		})
	if err != nil {
		return fmt.Errorf("cut-free partitioned: %w", err)
	}
	if part.Cost != mono.Cost {
		return fmt.Errorf("cut-free: partitioned cost %d != monolithic exact cost %d", part.Cost, mono.Cost)
	}
	if part.CutColumns != 0 {
		return fmt.Errorf("cut-free: planner cut %d columns, want 0", part.CutColumns)
	}
	cmp := partitionComparison{
		Workload:     "blocked cut-free",
		Config:       cfg,
		Monolithic:   mono,
		Partitioned:  part,
		WorkersAgree: true,
	}
	if part.NsPerOp > 0 {
		cmp.Speedup = mono.NsPerOp / part.NsPerOp
	}
	for _, workers := range []int{1, 2, 8} {
		for _, parts := range []int{2, 4} {
			sol, err := partition.Solve(ctx, ins, parallel, solve.Options{Workers: workers, Partitions: parts})
			if err != nil {
				return fmt.Errorf("cut-free workers=%d partitions=%d: %w", workers, parts, err)
			}
			if int64(sol.Cost) != mono.Cost {
				cmp.WorkersAgree = false
			}
		}
	}
	if !cmp.WorkersAgree {
		return fmt.Errorf("cut-free: partitioned cost differs across workers/partitions")
	}
	if !small && cmp.Speedup < partitionSpeedupFloor {
		return fmt.Errorf("cut-free: speedup %.2fx below the required %.0fx", cmp.Speedup, partitionSpeedupFloor)
	}
	fmt.Printf("cut-free    monolithic %12.0f ns/op | partitioned %12.0f ns/op (%d windows) | speedup=%.2fx cost=%d\n",
		mono.NsPerOp, part.NsPerOp, part.Partitions, cmp.Speedup, part.Cost)

	// Certificate scenario: a positive cut, optimum inside the interval.
	cutIns, err := workload.Blocked(blockedCutWorkload)
	if err != nil {
		return err
	}
	cutSol, err := partition.Solve(ctx, cutIns, parallel, solve.Options{Partitions: 3})
	if err != nil {
		return fmt.Errorf("cut partitioned: %w", err)
	}
	cutOpt, err := mtswitch.SolveExact(ctx, cutIns, parallel, solve.Options{})
	if err != nil {
		return fmt.Errorf("cut optimum: %w", err)
	}
	cut := partitionCutScenario{
		Workload:    "blocked cut-width-2",
		Config:      blockedCutWorkload,
		Cost:        int64(cutSol.Cost),
		OptimalCost: int64(cutOpt.Cost),
		Partitions:  cutSol.Stats.Partitions,
		CutColumns:  cutSol.Stats.CutColumns,
		StitchBound: cutSol.Stats.StitchBound,
	}
	cut.BoundContainsOptimum = cut.OptimalCost <= cut.Cost && cut.OptimalCost >= cut.Cost-cut.StitchBound
	if cut.CutColumns == 0 {
		return fmt.Errorf("cut scenario: expected a positive column cut")
	}
	if !cut.BoundContainsOptimum {
		return fmt.Errorf("cut scenario: optimum %d outside [%d, %d]",
			cut.OptimalCost, cut.Cost-cut.StitchBound, cut.Cost)
	}
	fmt.Printf("cut         cost=%d optimum=%d stitch-bound=%d cut-columns=%d (certified interval holds)\n",
		cut.Cost, cut.OptimalCost, cut.StitchBound, cut.CutColumns)

	out := partitionBaseline{
		Benchmark:  "monolithic pruned exact vs partition-and-conquer (E20)",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Small:      small,
		CutFree:    cmp,
		Cut:        cut,
	}

	if !small {
		budget, err := partitionBudget(ctx)
		if err != nil {
			return err
		}
		out.Budget = budget
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("partition baseline written to %s\n", outPath)
	return nil
}

// partitionBudget runs the degradation scenario: the same byte budget
// beam-degrades the monolithic engine but leaves every partitioned
// window exact.
func partitionBudget(ctx context.Context) (*partitionBudgetScenario, error) {
	ins, err := workload.Blocked(blockedBudgetWorkload)
	if err != nil {
		return nil, err
	}
	budgeted := solve.Options{MaxFrontierBytes: partitionBudgetBytes}
	monoSol, err := mtswitch.SolveExact(ctx, ins, parallel, budgeted)
	if err != nil {
		return nil, fmt.Errorf("budget monolithic: %w", err)
	}
	partSol, err := partition.Solve(ctx, ins, parallel, budgeted)
	if err != nil {
		return nil, fmt.Errorf("budget partitioned: %w", err)
	}
	optSol, err := mtswitch.SolveExact(ctx, ins, parallel, solve.Options{})
	if err != nil {
		return nil, fmt.Errorf("budget optimum: %w", err)
	}
	sc := &partitionBudgetScenario{
		Workload:         "blocked cut-free large",
		Config:           blockedBudgetWorkload,
		MaxFrontierBytes: partitionBudgetBytes,
		OptimalCost:      int64(optSol.Cost),
		Monolithic: budgetRun{
			PruningEnabled: true,
			Cost:           int64(monoSol.Cost),
			Degraded:       monoSol.Stats.Degraded,
			Truncated:      monoSol.Stats.Truncated,
			BudgetDropped:  monoSol.Stats.BudgetDropped,
		},
		Partitioned: budgetRun{
			PruningEnabled: true,
			Cost:           int64(partSol.Cost),
			Degraded:       partSol.Stats.Degraded,
			Truncated:      partSol.Stats.Truncated,
			BudgetDropped:  partSol.Stats.BudgetDropped,
		},
	}
	if !sc.Monolithic.Degraded {
		return nil, fmt.Errorf("budget scenario: monolithic run did not degrade under %d bytes", int64(partitionBudgetBytes))
	}
	if sc.Partitioned.Degraded || sc.Partitioned.Truncated {
		return nil, fmt.Errorf("budget scenario: partitioned run degraded under %d bytes", int64(partitionBudgetBytes))
	}
	if sc.Partitioned.Cost != sc.OptimalCost {
		return nil, fmt.Errorf("budget scenario: partitioned cost %d != unbudgeted optimum %d", sc.Partitioned.Cost, sc.OptimalCost)
	}
	fmt.Printf("budget %d KiB: monolithic degraded (cost %d, dropped %d) | partitioned exact (cost %d = optimum)\n",
		int64(partitionBudgetBytes)>>10, sc.Monolithic.Cost, sc.Monolithic.BudgetDropped, sc.Partitioned.Cost)
	return sc, nil
}
