// Command mtopt solves the multi-task (m=4) partial-hyperreconfiguration
// scheduling problem for an application trace or a requirements CSV.
// Solvers resolve by name through the solve registry.
//
// Usage:
//
//	mtopt -app counter -solver ga            # the paper's approach
//	mtopt -app counter -solver aligned       # aligned-DP baseline
//	mtopt -app counter -solver beam          # beam-limited exact DP
//	mtopt -app counter -solver anneal        # simulated-annealing ablation
//	mtopt -app counter -solver exact         # joint-hypercontext DP (small n)
//	mtopt -app counter -solver portfolio     # race exact+beam+ga, incumbent exchange
//	mtopt -app counter -solver all -fig      # aligned+beam+ga + Figure 2/3 charts
//	mtopt -reqs trace.csv -upload sequential # task-sequential uploads
//
// Every solver runs one-shot through solve.Run; -out saves the best
// schedule for hyperverify.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/profutil"
	"repro/internal/report"
	"repro/internal/shyra"
	"repro/internal/solve"
	"repro/internal/traceio"
)

func main() {
	var (
		app      = flag.String("app", "counter", "application to analyze (ignored with -reqs)")
		reqsPath = flag.String("reqs", "", "requirements CSV to analyze instead of an app trace")
		solver   = flag.String("solver", "ga", "solver: one of "+strings.Join(solve.Names(), ", ")+", or all")
		upload   = flag.String("upload", "parallel", "upload mode for hyper+reconf: parallel or sequential")
		gran     = flag.String("gran", "bit", "requirement granularity: bit, unit or delta")
		fig      = flag.Bool("fig", false, "print Figure 2/3 style charts for the best schedule")
		pop      = flag.Int("pop", 80, "GA population size")
		gens     = flag.Int("gens", 300, "GA generations")
		seed     = flag.Int64("seed", 1, "random seed for ga/anneal")
		beamN    = flag.Int("beam", 3000, "beam width for -solver beam")
		outPath  = flag.String("out", "", "write the best schedule as JSON to this file (verify with hyperverify)")
		stats    = flag.Bool("stats", false, "print per-solver run statistics (states/evals/pruned/dedup/peak/wall time)")
		workers  = flag.Int("workers", 0, "worker count for parallel solvers (0 = GOMAXPROCS)")
		parts    = flag.Int("partitions", 0, "window count for -solver exact-partitioned (0 = auto, 1 = monolithic)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the solver runs to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile after the solver runs to this file")
	)
	flag.Parse()

	stop, err := profutil.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtopt:", err)
		os.Exit(1)
	}
	err = run(*app, *reqsPath, *solver, *upload, *gran, *fig, *pop, *gens, *seed, *beamN, *workers, *parts, *outPath, *stats)
	stop()
	if err == nil {
		err = profutil.WriteHeap(*memProf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtopt:", err)
		var unknown *solve.UnknownSolverError
		if errors.As(err, &unknown) {
			fmt.Fprintf(os.Stderr, "usage: mtopt -solver {%s|all}\n",
				strings.Join(unknown.Registered, "|"))
		}
		os.Exit(1)
	}
}

func load(app, reqsPath, gran string) (*model.MTSwitchInstance, error) {
	if reqsPath != "" {
		f, err := os.Open(reqsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return traceio.ReadRequirementsCSV(f)
	}
	g, err := shyra.ParseGranularity(gran)
	if err != nil {
		return nil, err
	}
	tr, err := core.AppTrace(app)
	if err != nil {
		return nil, err
	}
	return tr.MTInstance(g)
}

func run(app, reqsPath, solver, upload, gran string, fig bool, pop, gens int, seed int64, beamN, workers, parts int, outPath string, stats bool) error {
	ins, err := load(app, reqsPath, gran)
	if err != nil {
		return err
	}
	var opt model.CostOptions
	switch upload {
	case "parallel":
		opt = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
	case "sequential":
		opt = model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}
	default:
		return fmt.Errorf("unknown upload mode %q", upload)
	}

	fmt.Printf("instance: m=%d tasks, n=%d steps, %d switches total, %v uploads\n",
		ins.NumTasks(), ins.Steps(), ins.TotalLocalSwitches(), opt.HyperUpload)
	fmt.Printf("disabled baseline: %d\n", ins.DisabledCost())
	fmt.Printf("lower bound:       %d\n", mtswitch.LowerBound(ins, opt))

	best := (*solve.Solution)(nil)
	record := func(name string, sol *solve.Solution) {
		hypers := core.HyperCount(sol.MTSched)
		note := ""
		if sol.Stats.Truncated {
			note = " (upper bound)"
		}
		fmt.Printf("%-8s cost=%d (%.1f%% of disabled), partial hyper steps=%d%s\n",
			name, sol.Cost, 100*float64(sol.Cost)/float64(ins.DisabledCost()), hypers, note)
		if stats {
			fmt.Printf("  stats: states=%d evals=%d pruned=%d dedup=%d peak=%d exact=%t wall=%s\n",
				sol.Stats.StatesExpanded, sol.Stats.Evaluations, sol.Stats.CandidatesPruned,
				sol.Stats.DedupHits, sol.Stats.PeakFrontier, sol.Exact,
				sol.Stats.WallTime.Round(time.Microsecond))
			if sol.Stats.StatesPruned > 0 || sol.Stats.PreprocessReduction > 0 || sol.Stats.BudgetDropped > 0 {
				fmt.Printf("  prune: cut=%d (dominance=%d bound=%d) preprocess-cells=%d budget-dropped=%d\n",
					sol.Stats.StatesPruned, sol.Stats.DominanceHits, sol.Stats.BoundCutoffs,
					sol.Stats.PreprocessReduction, sol.Stats.BudgetDropped)
			}
			if sol.Stats.Partitions > 0 {
				fmt.Printf("  partition: parts=%d cut-columns=%d stitch-bound=%d stitch=%s\n",
					sol.Stats.Partitions, sol.Stats.CutColumns, sol.Stats.StitchBound,
					sol.Stats.StitchTime.Round(time.Microsecond))
			}
			for _, c := range sol.Contenders {
				mark := "-"
				if c.Won {
					mark = "*"
				}
				outcome := "cancelled (lost the race)"
				switch {
				case c.Finished && c.Direct:
					outcome = fmt.Sprintf("direct dispatch, cost=%d exact=%t", c.Cost, c.Exact)
				case c.Finished:
					outcome = fmt.Sprintf("cost=%d exact=%t", c.Cost, c.Exact)
				case c.Err != "":
					outcome = "failed: " + c.Err
				}
				fmt.Printf("  %s %-18s %-32s states=%d wall=%s\n",
					mark, c.Solver, outcome, c.Stats.StatesExpanded, c.WallTime.Round(time.Microsecond))
			}
			if len(sol.Contenders) > 0 && sol.Stats.IncumbentTightenings > 0 {
				fmt.Printf("  exchange: exact DP adopted %d incumbent tightenings\n",
					sol.Stats.IncumbentTightenings)
			}
		}
		if best == nil || sol.Cost < best.Cost {
			best = sol
		}
	}

	names := []string{solver}
	if solver == "all" {
		names = []string{"aligned", "beam", "ga"}
	}
	mtInst := solve.NewMT(ins, opt)
	for _, name := range names {
		var o solve.Options
		switch name {
		case "beam":
			o = solve.Options{MaxStates: beamN, MaxCandidates: 4}
		case "ga", "anneal":
			o = solve.Options{Pop: pop, Generations: gens, Seed: seed}
		case "exact-partitioned":
			o = solve.Options{Partitions: parts}
		case "portfolio":
			// GA knobs feed the heuristic scouts; MaxStates is left zero
			// so the exact lane stays uncapped (the beam lane defaults
			// its own width).
			o = solve.Options{Pop: pop, Generations: gens, Seed: seed, Partitions: parts}
		}
		o.Workers = workers
		sol, err := solve.Run(context.Background(), name, mtInst, o)
		if err != nil {
			return err
		}
		record(name, sol)
	}

	if outPath != "" && best != nil {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		if err := traceio.WriteScheduleJSON(f, ins, best.MTSched); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("best schedule written to %s\n", outPath)
	}

	if fig && best != nil {
		names := make([]string, ins.NumTasks())
		for j, t := range ins.Tasks {
			names[j] = t.Name
		}
		fmt.Println("\nFigure 3 — partial hyperreconfiguration operations (# = hyper, . = no-hyper):")
		fmt.Print(report.HyperMap(names, best.MTSched))
		fmt.Println("\nFigure 2 — per-task activity (used = requirement size, avail = hypercontext size, base-36 digits):")
		cm, err := report.ContextMap(ins, best.MTSched)
		if err != nil {
			return err
		}
		fmt.Print(cm)
	}
	return nil
}
