// The -bench mode records the frontier-engine baseline: it measures
// the seed map-based frontier DP (SolveExactReference) against the
// packed-state engine at Workers=1 and Workers=GOMAXPROCS on the
// BenchmarkScalingTasks m=4 workload and writes the numbers as JSON
// (BENCH_PR3.json in the repo root is the committed baseline; see
// scripts/bench.sh and EXPERIMENTS.md E14).
//
// The -bench5 mode records the pruned-search baseline (BENCH_PR5.json,
// EXPERIMENTS.md E17): the packed engine with pruning disabled — the
// PR3 configuration — against the pruned engine on the phased m=4
// workload and the dense workload, plus the memory-budget scenario
// where pruning turns a degraded beam run back into an exact solve.
//
// The -bench6 mode records the incremental-solve baseline
// (BENCH_PR6.json, EXPERIMENTS.md E18): appending the final 10% of a
// dense trace to an already-solved stepped engine versus re-solving
// the full trace from scratch.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/solve"
	"repro/internal/workload"
)

// benchWorkload pins the measured instance to the m=4 row of
// BenchmarkScalingTasks (bench_test.go) so the JSON baseline and the
// `go test -bench` numbers describe the same computation.
var benchWorkload = workload.Config{Tasks: 4, Steps: 64, Switches: 12, Seed: 1}

// benchOpts are the beam budgets of the m=4/beam sub-benchmark.
var benchOpts = solve.Options{MaxStates: 500, MaxCandidates: 3}

// denseWorkload is the block-structured instance of EXPERIMENTS.md E17:
// requirements equal the phase working set verbatim, so preprocessing
// finds long identical-step runs and the unpruned frontier grows into
// the thousands.  The same configuration backs the dense-stress tests
// in internal/mtswitch/prune_test.go.
var denseWorkload = workload.Config{Tasks: 4, Steps: 48, Switches: 24, Density: 0.5, MeanPhase: 12, Seed: 3}

// incrWorkload is the dense instance of the -bench6 incremental
// baseline (EXPERIMENTS.md E18).  It is deliberately longer and
// narrower than denseWorkload: candidates at step i are suffix unions
// U_j(i,e), so frontier reuse on Extend requires the prefix's unions to
// have saturated — enough short dense phases must have passed that
// appending new phases no longer changes what early steps can install.
// At 8 switches, density 0.85 and ~80 phases the prefix saturates
// quickly; the E17 config (24 switches, ~4 phases) does not, and
// extending it honestly re-solves from step 0.
var incrWorkload = workload.Config{Tasks: 4, Steps: 160, Switches: 8, Density: 0.85, MeanPhase: 2, Seed: 7}

// denseBudget is the MaxFrontierBytes budget of the -bench5 degradation
// scenario: under it the unpruned engine must fall back to a beam while
// the pruned engine still solves the dense workload exactly.
const denseBudget = 128 << 10

// engineResult is one engine's measurement in the JSON baseline.
type engineResult struct {
	Engine  string `json:"engine"`  // "reference" or "packed"
	Workers int    `json:"workers"` // expansion workers (reference is single-threaded)
	// PruningEnabled is recorded explicitly per row: the PR3 baseline
	// pins pruning off (the reference engine has none), and
	// scripts/bench.sh --check must compare like with like.
	PruningEnabled bool `json:"pruning_enabled"`
	// GOMAXPROCS is recorded per row: rows measured on different
	// machines or CPU budgets must not share one global value.
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Cost        int64   `json:"cost"` // schedule cost, asserted identical across engines
	// SpeedupVsSequential and AllocRatioVsSequential compare against
	// the reference engine (reference / this, so >1 is an improvement).
	SpeedupVsSequential    float64 `json:"speedup_vs_sequential"`
	AllocRatioVsSequential float64 `json:"alloc_ratio_vs_sequential"`
}

// benchBaseline is the schema of BENCH_PR3.json.
type benchBaseline struct {
	Benchmark string          `json:"benchmark"`
	Workload  workload.Config `json:"workload"`
	MaxStates int             `json:"max_states"`
	MaxCands  int             `json:"max_candidates"`
	Engines   []engineResult  `json:"engines"`
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

// engineBench runs the engine comparison and writes the JSON baseline.
func engineBench(outPath string) error {
	ctx := context.Background()
	ins, err := workload.Phased(benchWorkload)
	if err != nil {
		return err
	}

	type entry struct {
		engine  string
		workers int
		run     func() (model.Cost, error)
	}
	solvePacked := func(workers int) func() (model.Cost, error) {
		opts := benchOpts
		opts.Workers = workers
		// The baseline tracks the PR3 packed engine; pruning (which now
		// defaults on) is measured separately by -bench5.
		opts.DisablePruning = true
		return func() (model.Cost, error) {
			sol, err := mtswitch.SolveExact(ctx, ins, parallel, opts)
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		}
	}
	entries := []entry{
		{"reference", 1, func() (model.Cost, error) {
			sol, err := mtswitch.SolveExactReference(ctx, ins, parallel, benchOpts)
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		}},
		{"packed", 1, solvePacked(1)},
	}
	// On a single-core machine the Workers=GOMAXPROCS row would repeat
	// the Workers=1 row verbatim; skip the duplicate.
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		entries = append(entries, entry{"packed", procs, solvePacked(procs)})
	}

	out := benchBaseline{
		Benchmark: "BenchmarkScalingTasks/m=4/beam (phased workload)",
		Workload:  benchWorkload,
		MaxStates: benchOpts.MaxStates,
		MaxCands:  benchOpts.MaxCandidates,
	}
	var refResult *engineResult
	for _, e := range entries {
		res, cost, err := measureEngine(e.run)
		if err != nil {
			return fmt.Errorf("%s (workers=%d): %w", e.engine, e.workers, err)
		}
		er := engineResult{
			Engine:  e.engine,
			Workers: e.workers,
			// All PR3 rows run unpruned: the reference engine has no
			// pruning layer and solvePacked disables it to match.
			PruningEnabled: false,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			NsPerOp:        float64(res.NsPerOp()),
			AllocsPerOp:    res.AllocsPerOp(),
			BytesPerOp:     res.AllocedBytesPerOp(),
			Cost:           int64(cost),
		}
		if refResult == nil {
			er.SpeedupVsSequential = 1
			er.AllocRatioVsSequential = 1
		} else {
			if er.Cost != refResult.Cost {
				return fmt.Errorf("%s (workers=%d) cost %d != reference cost %d",
					e.engine, e.workers, er.Cost, refResult.Cost)
			}
			if er.NsPerOp > 0 {
				er.SpeedupVsSequential = refResult.NsPerOp / er.NsPerOp
			}
			if er.AllocsPerOp > 0 {
				er.AllocRatioVsSequential = float64(refResult.AllocsPerOp) / float64(er.AllocsPerOp)
			}
		}
		out.Engines = append(out.Engines, er)
		if refResult == nil {
			refResult = &out.Engines[0]
		}
		fmt.Printf("%-10s workers=%-2d %12.0f ns/op %8d B/op %6d allocs/op  cost=%d  speedup=%.2fx  alloc-ratio=%.2fx\n",
			e.engine, e.workers, er.NsPerOp, er.BytesPerOp, er.AllocsPerOp, er.Cost,
			er.SpeedupVsSequential, er.AllocRatioVsSequential)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench baseline written to %s\n", outPath)
	return nil
}

// pruneRun is one engine variant's measurement in BENCH_PR5.json.
type pruneRun struct {
	// PruningEnabled makes the measured configuration explicit in the
	// schema instead of implicit in the field name above it.
	PruningEnabled      bool    `json:"pruning_enabled"`
	NsPerOp             float64 `json:"ns_per_op"`
	Cost                int64   `json:"cost"`
	StatesExpanded      int64   `json:"states_expanded"`
	PeakFrontier        int64   `json:"peak_frontier"`
	StatesPruned        int64   `json:"states_pruned,omitempty"`
	DominanceHits       int64   `json:"dominance_hits,omitempty"`
	BoundCutoffs        int64   `json:"bound_cutoffs,omitempty"`
	PreprocessReduction int64   `json:"preprocess_reduction,omitempty"`
}

// pruneComparison compares the PR3 packed engine (pruning disabled)
// against the pruned engine on one workload.
type pruneComparison struct {
	Workload string          `json:"workload"`
	Config   workload.Config `json:"config"`
	Unpruned pruneRun        `json:"unpruned"`
	Pruned   pruneRun        `json:"pruned"`
	// Speedup is unpruned ns/op ÷ pruned ns/op; ExpansionReduction is
	// unpruned StatesExpanded ÷ pruned StatesExpanded (>1 means the
	// pruned engine did less work).
	Speedup            float64 `json:"speedup"`
	ExpansionReduction float64 `json:"expansion_reduction"`
	// WorkersAgree records that the pruned engine returned the same
	// cost at Workers 1, 2 and 8.
	WorkersAgree bool `json:"workers_agree"`
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

// budgetScenario is the -bench5 degradation scenario: a workload that
// in PR4 could only be beam-searched under the byte budget, now solved
// exactly by the pruned engine within the same budget.
type budgetScenario struct {
	Workload         string          `json:"workload"`
	Config           workload.Config `json:"config"`
	MaxFrontierBytes int64           `json:"max_frontier_bytes"`
	// OptimalCost is the unbudgeted exact optimum the budgeted runs are
	// judged against.
	OptimalCost int64     `json:"optimal_cost"`
	Unpruned    budgetRun `json:"unpruned"`
	Pruned      budgetRun `json:"pruned"`
}

// pruneBaseline is the schema of BENCH_PR5.json.
type pruneBaseline struct {
	Benchmark  string            `json:"benchmark"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []pruneComparison `json:"workloads"`
	Budget     budgetScenario    `json:"budget"`
}

// measurePrune times one full exact solve per iteration and returns the
// measurement together with the run's statistics.
func measurePrune(ctx context.Context, ins *model.MTSwitchInstance, opts solve.Options) (pruneRun, error) {
	sol, err := mtswitch.SolveExact(ctx, ins, parallel, opts)
	if err != nil {
		return pruneRun{}, err
	}
	res, _, err := measureEngine(func() (model.Cost, error) {
		s, err := mtswitch.SolveExact(ctx, ins, parallel, opts)
		if err != nil {
			return 0, err
		}
		return s.Cost, nil
	})
	if err != nil {
		return pruneRun{}, err
	}
	return pruneRun{
		PruningEnabled:      !opts.DisablePruning,
		NsPerOp:             float64(res.NsPerOp()),
		Cost:                int64(sol.Cost),
		StatesExpanded:      sol.Stats.StatesExpanded,
		PeakFrontier:        sol.Stats.PeakFrontier,
		StatesPruned:        sol.Stats.StatesPruned,
		DominanceHits:       sol.Stats.DominanceHits,
		BoundCutoffs:        sol.Stats.BoundCutoffs,
		PreprocessReduction: sol.Stats.PreprocessReduction,
	}, nil
}

// pruneBench runs the pruning comparison and writes BENCH_PR5.json.
func pruneBench(outPath string) error {
	ctx := context.Background()
	out := pruneBaseline{
		Benchmark:  "packed engine, pruning off (PR3 baseline) vs on (E17)",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	workloads := []struct {
		name string
		gen  func(workload.Config) (*model.MTSwitchInstance, error)
		cfg  workload.Config
		opts solve.Options
		// exact marks an unbudgeted run whose cost must be identical
		// with pruning on and off.  Under the beam caps the two engines
		// keep different frontiers, so the beam row only records both
		// costs (pruning tends to improve the beam: dominance keeps the
		// stronger of two comparable states).
		exact bool
	}{
		{"phased m=4 beam", workload.Phased, benchWorkload, benchOpts, false},
		{"dense m=4 exact", workload.Dense, denseWorkload, solve.Options{}, true},
	}
	for _, w := range workloads {
		ins, err := w.gen(w.cfg)
		if err != nil {
			return err
		}
		off := w.opts
		off.DisablePruning = true
		unpruned, err := measurePrune(ctx, ins, off)
		if err != nil {
			return fmt.Errorf("%s unpruned: %w", w.name, err)
		}
		pruned, err := measurePrune(ctx, ins, w.opts)
		if err != nil {
			return fmt.Errorf("%s pruned: %w", w.name, err)
		}
		if w.exact && pruned.Cost != unpruned.Cost {
			return fmt.Errorf("%s: pruned cost %d != unpruned cost %d", w.name, pruned.Cost, unpruned.Cost)
		}
		cmp := pruneComparison{
			Workload:     w.name,
			Config:       w.cfg,
			Unpruned:     unpruned,
			Pruned:       pruned,
			WorkersAgree: true,
		}
		if pruned.NsPerOp > 0 {
			cmp.Speedup = unpruned.NsPerOp / pruned.NsPerOp
		}
		if pruned.StatesExpanded > 0 {
			cmp.ExpansionReduction = float64(unpruned.StatesExpanded) / float64(pruned.StatesExpanded)
		}
		for _, workers := range []int{1, 2, 8} {
			wopts := w.opts
			wopts.Workers = workers
			sol, err := mtswitch.SolveExact(ctx, ins, parallel, wopts)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", w.name, workers, err)
			}
			if int64(sol.Cost) != pruned.Cost {
				cmp.WorkersAgree = false
			}
		}
		if !cmp.WorkersAgree {
			return fmt.Errorf("%s: pruned cost differs across worker counts", w.name)
		}
		out.Workloads = append(out.Workloads, cmp)
		fmt.Printf("%-16s unpruned %12.0f ns/op %9d expanded | pruned %12.0f ns/op %9d expanded | speedup=%.2fx expansion-reduction=%.2fx\n",
			w.name, unpruned.NsPerOp, unpruned.StatesExpanded,
			pruned.NsPerOp, pruned.StatesExpanded, cmp.Speedup, cmp.ExpansionReduction)
	}

	// Budget scenario: the dense workload under a byte budget the
	// unpruned frontier cannot fit.
	ins, err := workload.Dense(denseWorkload)
	if err != nil {
		return err
	}
	budgeted := func(disable bool) (budgetRun, error) {
		sol, err := mtswitch.SolveExact(ctx, ins, parallel, solve.Options{
			MaxFrontierBytes: denseBudget,
			DisablePruning:   disable,
		})
		if err != nil {
			return budgetRun{}, err
		}
		return budgetRun{
			PruningEnabled: !disable,
			Cost:           int64(sol.Cost),
			Degraded:       sol.Stats.Degraded,
			Truncated:      sol.Stats.Truncated,
			BudgetDropped:  sol.Stats.BudgetDropped,
		}, nil
	}
	unpruned, err := budgeted(true)
	if err != nil {
		return fmt.Errorf("budget unpruned: %w", err)
	}
	pruned, err := budgeted(false)
	if err != nil {
		return fmt.Errorf("budget pruned: %w", err)
	}
	optSol, err := mtswitch.SolveExact(ctx, ins, parallel, solve.Options{})
	if err != nil {
		return fmt.Errorf("budget optimum: %w", err)
	}
	optimal := int64(optSol.Cost)
	if !unpruned.Degraded {
		return fmt.Errorf("budget scenario: unpruned run did not degrade under %d bytes", int64(denseBudget))
	}
	if pruned.Degraded || pruned.Truncated {
		return fmt.Errorf("budget scenario: pruned run degraded under %d bytes", int64(denseBudget))
	}
	if pruned.Cost != optimal {
		return fmt.Errorf("budget scenario: pruned cost %d != unbudgeted optimum %d", pruned.Cost, optimal)
	}
	out.Budget = budgetScenario{
		Workload:         "dense m=4",
		Config:           denseWorkload,
		MaxFrontierBytes: denseBudget,
		OptimalCost:      optimal,
		Unpruned:         unpruned,
		Pruned:           pruned,
	}
	fmt.Printf("budget %d KiB: unpruned degraded (cost %d, dropped %d) | pruned exact (cost %d = optimum)\n",
		int64(denseBudget)>>10, unpruned.Cost, unpruned.BudgetDropped, pruned.Cost)

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("pruning baseline written to %s\n", outPath)
	return nil
}

// incrBaseline is the schema of BENCH_PR6.json: the cost of appending
// the final 10% of a dense trace to an already-solved stepped engine,
// against re-solving the whole trace from scratch.
type incrBaseline struct {
	Benchmark string          `json:"benchmark"`
	Config    workload.Config `json:"config"`
	// PruningEnabled is false by construction: the pinned configuration
	// measures the unpruned engine, as the committed artifact recorded
	// it.  Pruned engines reuse frames too (DESIGN.md §10).
	PruningEnabled bool `json:"pruning_enabled"`
	PrefixSteps    int  `json:"prefix_steps"`
	SuffixSteps    int  `json:"suffix_steps"`
	// FromScratchExpanded is Stats.StatesExpanded for one solve of the
	// full trace; SuffixExpanded is the engine's ResolveExpanded after
	// Extend-ing the suffix onto the solved prefix.
	FromScratchExpanded int64 `json:"from_scratch_expanded"`
	SuffixExpanded      int64 `json:"suffix_expanded"`
	// ExpansionReduction is from-scratch ÷ suffix (>1 means the
	// incremental re-solve did less work); the baseline requires >= 5.
	ExpansionReduction float64 `json:"expansion_reduction"`
	Cost               int64   `json:"cost"`
	// WorkersAgree records that the incremental solve returned the
	// from-scratch cost at Workers 1, 2 and 8.
	WorkersAgree bool `json:"workers_agree"`
}

// incrExtend solves the first prefix steps of ins in a stepped engine,
// appends the rest, and reports the final solution plus the states the
// suffix re-solve expanded.
func incrExtend(ctx context.Context, ins *model.MTSwitchInstance, prefix int, opts solve.Options) (*solve.Solution, int64, error) {
	prefReqs := make([][]bitset.Set, len(ins.Reqs))
	for j, reqs := range ins.Reqs {
		prefReqs[j] = make([]bitset.Set, prefix)
		for i := 0; i < prefix; i++ {
			prefReqs[j][i] = reqs[i].Clone()
		}
	}
	pref, err := model.NewMTSwitchInstance(ins.Tasks, prefReqs)
	if err != nil {
		return nil, 0, err
	}
	eng, err := solve.NewStepEngine(ctx, "exact", solve.NewMT(pref, parallel), opts)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	if _, err := eng.Solution(ctx); err != nil {
		return nil, 0, err
	}
	if err := eng.Extend(ctx, workload.StepRows(ins, prefix, ins.Steps())); err != nil {
		return nil, 0, err
	}
	sol, err := eng.Solution(ctx)
	if err != nil {
		return nil, 0, err
	}
	return sol, eng.ResolveExpanded(), nil
}

// incrBench measures incremental suffix re-solve against from-scratch
// and writes BENCH_PR6.json.  The scenario is the acceptance criterion
// of PR6: append the final 10% of a dense trace to a solved engine.
func incrBench(outPath string) error {
	ctx := context.Background()
	ins, err := workload.Dense(incrWorkload)
	if err != nil {
		return err
	}
	opts := solve.Options{DisablePruning: true}
	prefix := ins.Steps() * 9 / 10

	scratch, err := mtswitch.SolveExact(ctx, ins, parallel, opts)
	if err != nil {
		return fmt.Errorf("from-scratch: %w", err)
	}
	sol, suffixExpanded, err := incrExtend(ctx, ins, prefix, opts)
	if err != nil {
		return fmt.Errorf("incremental: %w", err)
	}
	if sol.Cost != scratch.Cost {
		return fmt.Errorf("incremental cost %d != from-scratch cost %d", sol.Cost, scratch.Cost)
	}
	if suffixExpanded <= 0 {
		return fmt.Errorf("suffix re-solve expanded no states (suspicious measurement)")
	}
	reduction := float64(scratch.Stats.StatesExpanded) / float64(suffixExpanded)
	if reduction < 5 {
		return fmt.Errorf("suffix re-solve expanded %d states vs %d from scratch (%.2fx < the required 5x)",
			suffixExpanded, scratch.Stats.StatesExpanded, reduction)
	}
	for _, workers := range []int{1, 2, 8} {
		wopts := opts
		wopts.Workers = workers
		wsol, _, err := incrExtend(ctx, ins, prefix, wopts)
		if err != nil {
			return fmt.Errorf("incremental workers=%d: %w", workers, err)
		}
		if wsol.Cost != scratch.Cost {
			return fmt.Errorf("incremental workers=%d cost %d != from-scratch cost %d", workers, wsol.Cost, scratch.Cost)
		}
	}

	out := incrBaseline{
		Benchmark:           "stepped engine: Extend final 10% of dense trace vs from-scratch (E18)",
		Config:              incrWorkload,
		PruningEnabled:      false,
		PrefixSteps:         prefix,
		SuffixSteps:         ins.Steps() - prefix,
		FromScratchExpanded: scratch.Stats.StatesExpanded,
		SuffixExpanded:      suffixExpanded,
		ExpansionReduction:  reduction,
		Cost:                int64(scratch.Cost),
		WorkersAgree:        true,
	}
	fmt.Printf("incremental: from-scratch %d states | suffix (%d steps) %d states | reduction=%.1fx cost=%d\n",
		out.FromScratchExpanded, out.SuffixSteps, out.SuffixExpanded, reduction, out.Cost)

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("incremental baseline written to %s\n", outPath)
	return nil
}
