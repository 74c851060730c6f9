// Benchmarks regenerating the paper's evaluation artifacts.  One bench
// per experiment of DESIGN.md's experiment index; each reports the
// experiment's headline quantity through b.ReportMetric so the numeric
// results appear alongside the timing:
//
//	go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/ga"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/mtdag"
	"repro/internal/mtswitch"
	"repro/internal/partition"
	"repro/internal/phc"
	"repro/internal/report"
	"repro/internal/rmesh"
	"repro/internal/shyra"
	"repro/internal/solve"
	"repro/internal/workload"
)

var parallel = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}

// benchGA keeps GA work modest so the suite stays fast; the CLI uses
// larger populations for final numbers.
var benchGA = solve.Options{Pop: 40, Generations: 60, Seed: 1}

// paperTrace runs the paper's workload once per benchmark.
func paperTrace(b *testing.B) *shyra.Trace {
	b.Helper()
	tr, err := core.CounterTrace(0, 10)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkShyraCycle measures the simulator's cycle throughput (E1 /
// Figure 1: the architecture exists and executes).
func BenchmarkShyraCycle(b *testing.B) {
	var m shyra.Machine
	var cfg shyra.Config
	for v := 0; v < shyra.LUTTableBits; v++ {
		cfg.LUT[0][v] = v&1 == 0
		cfg.LUT[1][v] = v&3 == 3
	}
	cfg.MuxSel = [6]uint8{0, 1, 2, 3, 4, 5}
	cfg.DemuxSel = [2]uint8{6, 7}
	if err := m.Configure(cfg); err != nil {
		b.Fatal(err)
	}
	use := shyra.Usage{LUT: [2]bool{true, true}, LiveInputs: [2]uint8{3, 3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Cycle(use); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterTrace measures running and tracing the paper's 4-bit
// counter application end to end (E1).
func BenchmarkCounterTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := core.CounterTrace(0, 10)
		if err != nil {
			b.Fatal(err)
		}
		if tr.Len() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkPaperCostTable regenerates the headline cost comparison
// (E2): disabled baseline vs optimal single-task vs multi-task GA.  The
// resulting costs are attached as metrics.
func BenchmarkPaperCostTable(b *testing.B) {
	var a *core.Analysis
	for i := 0; i < b.N; i++ {
		var err error
		a, err = core.RunPaperExperiment(context.Background(), core.Options{Solve: benchGA})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Disabled), "disabled-cost")
	b.ReportMetric(float64(a.SingleOpt.Cost), "single-cost")
	b.ReportMetric(float64(a.Best().Cost), "multi-cost")
}

// BenchmarkFigure2 regenerates the Figure 2 rendering (E3): context
// sequences plus hyperreconfiguration time steps for m=1 and m=4.
func BenchmarkFigure2(b *testing.B) {
	a, err := core.RunPaperExperiment(context.Background(), core.Options{Solve: benchGA})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.SegmentsLine(a.Single.Len(), a.SingleOpt.Seg.Starts)
		if _, err := report.ContextMap(a.MT, a.Best().MTSched); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates the Figure 3 rendering (E4): which tasks
// perform partial hyperreconfigurations at each step.
func BenchmarkFigure3(b *testing.B) {
	a, err := core.RunPaperExperiment(context.Background(), core.Options{Solve: benchGA})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, a.MT.NumTasks())
	for j, t := range a.MT.Tasks {
		names[j] = t.Name
	}
	b.ReportMetric(float64(core.HyperCount(a.Best().MTSched)), "partial-hyper-steps")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = report.HyperMap(names, a.Best().MTSched)
	}
}

// BenchmarkSyncModes sweeps the upload modes (E5), reporting the GA
// cost for each combination as a metric.
func BenchmarkSyncModes(b *testing.B) {
	tr := paperTrace(b)
	ins, err := tr.MTInstance(shyra.GranularityBit)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opt  model.CostOptions
	}{
		{"hyperPar-reconfPar", model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}},
		{"hyperPar-reconfSeq", model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskSequential}},
		{"hyperSeq-reconfPar", model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskParallel}},
		{"hyperSeq-reconfSeq", model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var cost model.Cost
			for i := 0; i < b.N; i++ {
				res, err := ga.Optimize(context.Background(), ins, bc.opt, benchGA)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Solution.Cost
			}
			b.ReportMetric(float64(cost), "cost")
		})
	}
}

// BenchmarkSolvers compares the solvers on the paper trace (E6).
func BenchmarkSolvers(b *testing.B) {
	tr := paperTrace(b)
	ins, err := tr.MTInstance(shyra.GranularityBit)
	if err != nil {
		b.Fatal(err)
	}
	single, err := ins.SingleTaskView()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SingleTaskDP", func(b *testing.B) {
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			sol, err := phc.SolveSwitch(context.Background(), single)
			if err != nil {
				b.Fatal(err)
			}
			cost = sol.Cost
		}
		b.ReportMetric(float64(cost), "cost")
	})
	b.Run("SingleTaskGreedy", func(b *testing.B) {
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			sol, err := phc.Greedy(context.Background(), single)
			if err != nil {
				b.Fatal(err)
			}
			cost = sol.Cost
		}
		b.ReportMetric(float64(cost), "cost")
	})
	b.Run("AlignedDP", func(b *testing.B) {
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			sol, err := mtswitch.SolveAligned(context.Background(), ins, parallel)
			if err != nil {
				b.Fatal(err)
			}
			cost = sol.Cost
		}
		b.ReportMetric(float64(cost), "cost")
	})
	b.Run("BeamDP", func(b *testing.B) {
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			sol, err := mtswitch.SolveExact(context.Background(), ins, parallel, solve.Options{MaxStates: 2000, MaxCandidates: 4})
			if err != nil {
				b.Fatal(err)
			}
			cost = sol.Cost
		}
		b.ReportMetric(float64(cost), "cost")
	})
	b.Run("GA", func(b *testing.B) {
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			res, err := ga.Optimize(context.Background(), ins, parallel, benchGA)
			if err != nil {
				b.Fatal(err)
			}
			cost = res.Solution.Cost
		}
		b.ReportMetric(float64(cost), "cost")
	})
}

// BenchmarkPointerTechnique compares the plain O(n²) single-task DP
// with the pointer-technique variant the paper alludes to, on a long
// periodic trace (the regime the technique accelerates).
func BenchmarkPointerTechnique(b *testing.B) {
	tr := paperTrace(b)
	base, err := tr.SingleInstance(shyra.GranularityBit)
	if err != nil {
		b.Fatal(err)
	}
	// Tile the counter trace to 4000 steps.
	reqs := base.Reqs
	for len(reqs) < 4000 {
		reqs = append(reqs, base.Reqs...)
	}
	long, err := model.NewSwitchInstance(base.Universe, base.W, reqs[:4000])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("PlainDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := phc.SolveSwitch(context.Background(), long); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PointerDP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := phc.SolveSwitchFast(context.Background(), long); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkChangeover prices the changeover-cost variant (E7).
func BenchmarkChangeover(b *testing.B) {
	tr := paperTrace(b)
	single, err := tr.SingleInstance(shyra.GranularityBit)
	if err != nil {
		b.Fatal(err)
	}
	var plain, change model.Cost
	for i := 0; i < b.N; i++ {
		p, err := phc.SolveSwitch(context.Background(), single)
		if err != nil {
			b.Fatal(err)
		}
		c, err := phc.SolveChangeover(context.Background(), single)
		if err != nil {
			b.Fatal(err)
		}
		plain, change = p.Cost, c.Cost
	}
	b.ReportMetric(float64(plain), "plain-cost")
	b.ReportMetric(float64(change), "changeover-cost")
}

// BenchmarkApps analyzes every bundled application (E8).
func BenchmarkApps(b *testing.B) {
	for _, name := range core.AppNames() {
		b.Run(name, func(b *testing.B) {
			var a *core.Analysis
			for i := 0; i < b.N; i++ {
				tr, err := core.AppTrace(name)
				if err != nil {
					b.Fatal(err)
				}
				a, err = core.AnalyzeTrace(context.Background(), tr, core.Options{Solve: benchGA, SkipBeam: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Disabled), "disabled-cost")
			b.ReportMetric(float64(a.Best().Cost), "multi-cost")
		})
	}
}

// BenchmarkGranularities compares requirement-extraction granularities
// (E9).
func BenchmarkGranularities(b *testing.B) {
	tr := paperTrace(b)
	for _, g := range []shyra.Granularity{shyra.GranularityBit, shyra.GranularityUnit, shyra.GranularityDelta} {
		b.Run(g.String(), func(b *testing.B) {
			var a *core.Analysis
			for i := 0; i < b.N; i++ {
				var err error
				a, err = core.AnalyzeTrace(context.Background(), tr, core.Options{Granularity: g, Solve: benchGA, SkipBeam: true})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(a.Best().Cost), "multi-cost")
			b.ReportMetric(float64(a.SingleOpt.Cost), "single-cost")
		})
	}
}

// BenchmarkMachineRuntime executes a solved schedule on the concurrent
// barrier-synchronized runtime (the machine substrate).
func BenchmarkMachineRuntime(b *testing.B) {
	tr := paperTrace(b)
	ins, err := tr.MTInstance(shyra.GranularityBit)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := mtswitch.SolveAligned(context.Background(), ins, parallel)
	if err != nil {
		b.Fatal(err)
	}
	programs, err := machine.FromSchedule(ins, sol.Schedule)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(ins.Tasks, model.FullySynchronized, parallel, ins.W, ins.PublicGlobal)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := m.Run(programs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total != sol.Cost {
			b.Fatalf("runtime %d != model %d", rep.Total, sol.Cost)
		}
	}
}

// BenchmarkScalingSteps sweeps the trace length n on phased synthetic
// workloads (E12): how solver time and schedule quality scale with the
// computation length.
func BenchmarkScalingSteps(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		ins, err := workload.Phased(workload.Config{Tasks: 4, Steps: n, Switches: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d/aligned", n), func(b *testing.B) {
			var cost model.Cost
			for i := 0; i < b.N; i++ {
				sol, err := mtswitch.SolveAligned(context.Background(), ins, parallel)
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.Cost
			}
			b.ReportMetric(float64(cost), "cost")
			b.ReportMetric(100*float64(cost)/float64(ins.DisabledCost()), "pct-of-disabled")
		})
		b.Run(fmt.Sprintf("n=%d/ga", n), func(b *testing.B) {
			var cost model.Cost
			for i := 0; i < b.N; i++ {
				res, err := ga.Optimize(context.Background(), ins, parallel, benchGA)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Solution.Cost
			}
			b.ReportMetric(float64(cost), "cost")
		})
	}
}

// unshareV returns a copy of ins whose last task's v is one higher.
// The generators give every task one v, and under task-parallel hyper
// uploads a pruned exact solve of such an instance is SolveAligned's
// (DESIGN §3.4); the copy keeps the frontier DP running.
func unshareV(b *testing.B, ins *model.MTSwitchInstance) *model.MTSwitchInstance {
	tasks := append([]model.Task(nil), ins.Tasks...)
	tasks[len(tasks)-1].V++
	out, err := model.NewMTSwitchInstance(tasks, ins.Reqs)
	if err != nil {
		b.Fatal(err)
	}
	out.PublicGlobal, out.W = ins.PublicGlobal, ins.W
	return out
}

// BenchmarkScalingTasks sweeps the task count m on phased synthetic
// workloads (E12), with the last task's v raised by 1 (unshareV) so
// that beam runs the capped frontier DP.
func BenchmarkScalingTasks(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		shared, err := workload.Phased(workload.Config{Tasks: m, Steps: 64, Switches: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		ins := unshareV(b, shared)
		b.Run(fmt.Sprintf("m=%d/aligned", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mtswitch.SolveAligned(context.Background(), ins, parallel); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("m=%d/beam", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mtswitch.SolveExact(context.Background(), ins, parallel, solve.Options{MaxStates: 500, MaxCandidates: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrontierEngines compares the MT-Switch frontier engines
// (E14/E17) on the m=4 phased workload of BenchmarkScalingTasks under
// beam caps: Reference is the seed map-keyed frontier DP and Packed the
// packed-state engine — both run with pruning disabled and return the
// same cost, pinned by TestPackedMatchesReferencePhased4x64 — and Pruned
// adds the pruned-search layer (preprocessing, dominance elimination,
// bound cutoffs), whose beam keeps other states.  dense-4x48 is E17's
// dense instance (24 switches, density 0.5, mean phase 12, seed 3),
// solved exactly with pruning off and on; both reach the optimum
// (TestDenseBudgetNowExact) and report states/op.  Both instances have
// their last task's v raised by 1 (unshareV), so that the pruned rows
// time the frontier DP rather than the aligned path.
func BenchmarkFrontierEngines(b *testing.B) {
	shared, err := workload.Phased(workload.Config{Tasks: 4, Steps: 64, Switches: 12, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ins := unshareV(b, shared)
	opts := solve.Options{MaxStates: 500, MaxCandidates: 3, DisablePruning: true}
	run := func(b *testing.B, solveOne func() (model.Cost, error)) {
		b.ReportAllocs()
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			c, err := solveOne()
			if err != nil {
				b.Fatal(err)
			}
			cost = c
		}
		b.ReportMetric(float64(cost), "cost")
	}
	packed := func(o solve.Options) func() (model.Cost, error) {
		return func() (model.Cost, error) {
			sol, err := mtswitch.SolveExact(context.Background(), ins, parallel, o)
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		}
	}
	b.Run("Reference", func(b *testing.B) {
		run(b, func() (model.Cost, error) {
			sol, err := mtswitch.SolveExactReference(context.Background(), ins, parallel, opts)
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		})
	})
	b.Run("Packed", func(b *testing.B) {
		run(b, packed(opts))
	})
	pruned := opts
	pruned.DisablePruning = false
	b.Run("Pruned", func(b *testing.B) {
		run(b, packed(pruned))
	})
	denseShared, err := workload.Dense(workload.Config{Tasks: 4, Steps: 48, Switches: 24, Density: 0.5, MeanPhase: 12, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	dense := unshareV(b, denseShared)
	for _, disable := range []bool{true, false} {
		name := "dense-4x48/pruned"
		if disable {
			name = "dense-4x48/unpruned"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sol *mtswitch.Solution
			for i := 0; i < b.N; i++ {
				s, err := mtswitch.SolveExact(context.Background(), dense, parallel, solve.Options{DisablePruning: disable})
				if err != nil {
					b.Fatal(err)
				}
				sol = s
			}
			b.ReportMetric(float64(sol.Cost), "cost")
			b.ReportMetric(float64(sol.Stats.StatesExpanded), "states/op")
		})
	}
}

// BenchmarkPartitionedSolve compares the monolithic pruned exact
// engine with the partition-and-conquer solver (E20) on the cut-free
// blocked workload of `paperbench -bench8` (BENCH_PR8.json records
// the same comparison): aligned blocks with block-disjoint working
// sets, where the step-axis decomposition is exact and each window's
// frontier is tiny.  Both variants return identical costs, asserted
// by internal/partition's tests and by -bench8 itself.  The tasks
// share one v, so Monolithic runs the aligned path;
// Monolithic-unequal-v solves the instance with its last task's v
// raised by 1 (unshareV), which the frontier DP answers.  blocked-2x288
// runs perfbench exact-cold's blocked family (2 tasks × 288 steps) on
// one worker: one op solves four seeds (planning, nine window solves
// and the stitch's coupling correction each) and cost is their sum.
// blocked-2x288-monolithic solves the same four seeds with monolithic
// `exact`, which is what hyperd runs on them (E28), and proves each
// optimum.
func BenchmarkPartitionedSolve(b *testing.B) {
	ins, err := workload.Blocked(workload.Config{Tasks: 4, Steps: 64, Switches: 24, MeanPhase: 8, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, solveOne func() (model.Cost, error)) {
		b.ReportAllocs()
		var cost model.Cost
		for i := 0; i < b.N; i++ {
			c, err := solveOne()
			if err != nil {
				b.Fatal(err)
			}
			cost = c
		}
		b.ReportMetric(float64(cost), "cost")
	}
	b.Run("Monolithic", func(b *testing.B) {
		run(b, func() (model.Cost, error) {
			sol, err := mtswitch.SolveExact(context.Background(), ins, parallel, solve.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		})
	})
	unequal := unshareV(b, ins)
	b.Run("Monolithic-unequal-v", func(b *testing.B) {
		run(b, func() (model.Cost, error) {
			sol, err := mtswitch.SolveExact(context.Background(), unequal, parallel, solve.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		})
	})
	b.Run("Partitioned", func(b *testing.B) {
		run(b, func() (model.Cost, error) {
			sol, err := partition.Solve(context.Background(), ins, parallel, solve.Options{})
			if err != nil {
				return 0, err
			}
			return sol.Cost, nil
		})
	})
	var blocked []*model.MTSwitchInstance
	for seed := int64(1); seed <= 4; seed++ {
		ins, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		blocked = append(blocked, ins)
	}
	blockedRow := func(solveOne func(*model.MTSwitchInstance) (model.Cost, error)) func(*testing.B) {
		return func(b *testing.B) {
			run(b, func() (model.Cost, error) {
				var total model.Cost
				for _, ins := range blocked {
					c, err := solveOne(ins)
					if err != nil {
						return 0, err
					}
					total += c
				}
				return total, nil
			})
		}
	}
	b.Run("blocked-2x288", blockedRow(func(ins *model.MTSwitchInstance) (model.Cost, error) {
		sol, err := partition.Solve(context.Background(), ins, parallel, solve.Options{Workers: 1})
		if err != nil {
			return 0, err
		}
		return sol.Cost, nil
	}))
	b.Run("blocked-2x288-monolithic", blockedRow(func(ins *model.MTSwitchInstance) (model.Cost, error) {
		sol, err := mtswitch.SolveExact(context.Background(), ins, parallel, solve.Options{Workers: 1})
		if err != nil {
			return 0, err
		}
		return sol.Cost, nil
	}))
}

// BenchmarkWorkloadShapes compares schedule quality across the four
// synthetic workload shapes (E12): structure is what
// hyperreconfiguration exploits.
func BenchmarkWorkloadShapes(b *testing.B) {
	for _, name := range []string{"phased", "bursty", "markov", "uniform"} {
		gen := workload.Generators()[name]
		ins, err := gen(workload.Config{Tasks: 4, Steps: 64, Switches: 12, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var cost model.Cost
			for i := 0; i < b.N; i++ {
				res, err := ga.Optimize(context.Background(), ins, parallel, benchGA)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Solution.Cost
			}
			b.ReportMetric(100*float64(cost)/float64(ins.DisabledCost()), "pct-of-disabled")
		})
	}
}

// BenchmarkCrossoverOperators compares the GA's recombination
// operators on the paper trace (ablation).
func BenchmarkCrossoverOperators(b *testing.B) {
	tr := paperTrace(b)
	ins, err := tr.MTInstance(shyra.GranularityDelta)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []ga.CrossoverKind{ga.CrossUniform, ga.CrossTwoPoint, ga.CrossTaskRow} {
		b.Run(kind.String(), func(b *testing.B) {
			var cost model.Cost
			for i := 0; i < b.N; i++ {
				cfg := benchGA
				cfg.Crossover = kind
				res, err := ga.Optimize(context.Background(), ins, parallel, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Solution.Cost
			}
			b.ReportMetric(float64(cost), "cost")
		})
	}
}

// BenchmarkMTDAG measures the Multi Task DAG model's joint DP (E13) on
// a coarse-grained two-task workload.
func BenchmarkMTDAG(b *testing.B) {
	levels := func() []model.Hypercontext {
		return []model.Hypercontext{
			{Name: "local", PerStep: 1, Sat: bitset.FromMembers(3, 0)},
			{Name: "row", PerStep: 3, Sat: bitset.FromMembers(3, 0, 1)},
			{Name: "global", PerStep: 7, Sat: bitset.Full(3)},
		}
	}
	mk := func(name string, v model.Cost, seq []int) mtdag.Task {
		inst, err := dag.Chain(3, levels(), seq, 1)
		if err != nil {
			b.Fatal(err)
		}
		return mtdag.Task{Name: name, V: v, Inst: inst}
	}
	seqA := make([]int, 64)
	seqB := make([]int, 64)
	for i := range seqA {
		if i%8 < 3 {
			seqA[i] = 1
		}
		if i%16 == 9 {
			seqB[i] = 2
		}
	}
	ins, err := mtdag.New([]mtdag.Task{mk("A", 2, seqA), mk("B", 4, seqB)})
	if err != nil {
		b.Fatal(err)
	}
	var cost model.Cost
	for i := 0; i < b.N; i++ {
		sol, err := mtdag.Solve(context.Background(), ins, parallel)
		if err != nil {
			b.Fatal(err)
		}
		cost = sol.Cost
	}
	b.ReportMetric(float64(cost), "cost")
}

// BenchmarkAnneal measures the simulated-annealing ablation on the
// paper trace.
func BenchmarkAnneal(b *testing.B) {
	tr := paperTrace(b)
	ins, err := tr.MTInstance(shyra.GranularityBit)
	if err != nil {
		b.Fatal(err)
	}
	var cost model.Cost
	for i := 0; i < b.N; i++ {
		res, err := ga.Anneal(context.Background(), ins, parallel, solve.Options{Iterations: 5000, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cost = res.Solution.Cost
	}
	b.ReportMetric(float64(cost), "cost")
}

// BenchmarkReplay measures the hypercontext-gated replay (end-to-end
// schedule verification).
func BenchmarkReplay(b *testing.B) {
	a, err := core.RunPaperExperiment(context.Background(), core.Options{Solve: benchGA, SkipBeam: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.VerifyReplay(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMesh runs the reconfigurable-mesh workload analysis (E15):
// execute the rotate-and-or program, extract delta requirements and
// optimize.
func BenchmarkMesh(b *testing.B) {
	input := []bool{true, false, false, true, false, false, true, false}
	var cost model.Cost
	for i := 0; i < b.N; i++ {
		prog, err := rmesh.RotateAndOr(8, 8, input)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := rmesh.Run(prog)
		if err != nil {
			b.Fatal(err)
		}
		ins, err := tr.MTInstanceDelta()
		if err != nil {
			b.Fatal(err)
		}
		res, err := ga.Optimize(context.Background(), ins, parallel, benchGA)
		if err != nil {
			b.Fatal(err)
		}
		cost = res.Solution.Cost
	}
	b.ReportMetric(float64(cost), "cost")
}

// BenchmarkAllApps ensures every bundled program still executes inside
// the benchmark suite (guards against app regressions).
func BenchmarkAllApps(b *testing.B) {
	catalog := apps.Catalog()
	names := core.AppNames()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			p, err := catalog[name]()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := shyra.Run(p, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
