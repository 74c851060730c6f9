// Command paperbench regenerates every table and figure of the paper's
// evaluation (Section 6) plus the ablations catalogued in DESIGN.md.
// All optimizers resolve by name through the solve registry.
//
// Usage:
//
//	paperbench -exp all        # everything
//	paperbench -fig 1          # architecture (Figure 1)
//	paperbench -fig 2          # context sequences + hyper steps (Figure 2)
//	paperbench -fig 3          # partial hyperreconfiguration map (Figure 3)
//	paperbench -exp costs      # the headline cost table (E2)
//	paperbench -exp modes      # sync/upload-mode sweep (E5)
//	paperbench -exp solvers    # solver-quality ablation (E6)
//	paperbench -exp changeover # changeover-cost variant (E7)
//	paperbench -exp apps       # all bundled applications (E8)
//	paperbench -exp gran       # requirement-granularity ablation (E9)
//	paperbench -exp async      # asynchronous vs synchronized (E10)
//	paperbench -exp privglobal # private global resources (E11)
//	paperbench -exp mtdag      # the Multi Task DAG cost model (E13)
//	paperbench -exp mesh       # the reconfigurable-mesh machine (E15)
//	paperbench -bench8         # partition-and-conquer bench baseline (E20)
//	paperbench -bench10        # portfolio racing baseline (E22)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/report"
	"repro/internal/rmesh"
	"repro/internal/shyra"
	"repro/internal/solve"
)

var parallel = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}

// svgOut, when non-empty, makes the figure generators additionally
// write SVG renderings into this directory.
var svgOut string

// writeSVG stores an SVG document when -svgdir is set.
func writeSVG(name, svg string) error {
	if svgOut == "" {
		return nil
	}
	path := filepath.Join(svgOut, name)
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("SVG written to %s\n", path)
	return nil
}

func main() {
	var (
		exp        = flag.String("exp", "", "experiment: costs, modes, solvers, changeover, apps, gran, async, privglobal, mtdag, mesh, all")
		fig        = flag.Int("fig", 0, "figure to regenerate: 1, 2 or 3")
		svgDir     = flag.String("svgdir", "", "also write Figure 2/3 as SVG files into this directory")
		bench8     = flag.Bool("bench8", false, "measure the partitioned solver vs the monolithic exact engine and write a JSON baseline (E20)")
		bench8Out  = flag.String("bench8out", "BENCH_PR8.json", "output path for the -bench8 baseline")
		bench8Sm   = flag.Bool("bench8small", false, "with -bench8: shrink the workload and skip the speedup floor and budget scenario (CI smoke)")
		bench10    = flag.Bool("bench10", false, "measure the portfolio racing meta-solver vs its solo contenders and write a JSON baseline (E22)")
		bench10Out = flag.String("bench10out", "BENCH_PR10.json", "output path for the -bench10 baseline")
		bench10Sm  = flag.Bool("bench10small", false, "with -bench10: shrink the workload and skip the wall-clock floors (CI smoke)")
	)
	flag.Parse()

	ranBench := false
	if *bench8 {
		if err := partitionBench(*bench8Out, *bench8Sm); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		ranBench = true
	}
	if *bench10 {
		if err := portfolioBench(*bench10Out, *bench10Sm); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		ranBench = true
	}
	if ranBench {
		return
	}
	if *exp == "" && *fig == 0 {
		*exp = "all"
	}
	svgOut = *svgDir
	if err := run(*exp, *fig); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

func run(exp string, fig int) error {
	switch fig {
	case 0:
	case 1:
		return figure1()
	case 2:
		return figure2()
	case 3:
		return figure3()
	default:
		return fmt.Errorf("unknown figure %d", fig)
	}
	switch exp {
	case "":
		return nil
	case "costs":
		return costs()
	case "modes":
		return modes()
	case "solvers":
		return solvers()
	case "changeover":
		return changeover()
	case "apps":
		return appsSweep()
	case "gran":
		return granularities()
	case "async":
		return asyncVsSync()
	case "privglobal":
		return privGlobal()
	case "mtdag":
		return mtDAG()
	case "mesh":
		return mesh()
	case "all":
		for _, f := range []func() error{figure1, costs, figure2, figure3, modes, solvers, changeover, appsSweep, granularities, asyncVsSync, privGlobal, mtDAG, mesh} {
			if err := f(); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// figure1 prints the SHyRA architecture — the content of the paper's
// Figure 1 plus the reconfiguration bit budget.
func figure1() error {
	fmt.Println("=== Figure 1: the SHyRA architecture ===")
	fmt.Println(`
           +---------+      +------+      +---------+
  regs --->|  10:6   |----->| LUT1 |----->|  2:10   |---> regs
  r0..r9   |   MUX   |  3   | 3->1 |  1   |  DeMUX  |   r0..r9
           |         |----->| LUT2 |----->|         |
           +---------+  3   | 3->1 |  1   +---------+
                            +------+
        register file: 10 x 1 bit, edge triggered`)
	fmt.Println("reconfiguration bit budget (the 48 switches of the MT-Switch analysis):")
	rows := make([][]string, 0, 4)
	for _, u := range shyra.Units() {
		s, e := u.BitRange()
		rows = append(rows, []string{u.String(), fmt.Sprintf("%d", u.Bits()), fmt.Sprintf("%d..%d", s, e-1)})
	}
	rows = append(rows, []string{"total", fmt.Sprintf("%d", shyra.ConfigBits), ""})
	fmt.Print(report.Table([]string{"unit / task", "bits (l_j)", "global bit range"}, rows))
	return nil
}

func analyze() (*core.Analysis, error) {
	return core.RunPaperExperiment(context.Background(), core.Options{
		Solve: solve.Options{Pop: 120, Generations: 400, Seed: 1},
	})
}

// costs prints the headline comparison (E2) next to the paper's values.
func costs() error {
	fmt.Println("=== E2: total (hyper)reconfiguration costs, 4-bit counter 0→10 ===")
	a, err := analyze()
	if err != nil {
		return err
	}
	best := a.Best()
	fmt.Printf("trace: %s, n=%d reconfiguration steps (paper: n=110)\n\n", a.Trace.Program, a.Trace.Len())
	headers := []string{"schedule", "cost", "% of disabled", "hyper steps"}
	rows := [][]string{
		report.CostRow("hyperreconfiguration disabled", a.Disabled, a.Disabled, 0),
		report.CostRow("single task optimal (m=1, DP)", a.SingleOpt.Cost, a.Disabled, len(a.SingleOpt.Seg.Starts)),
		report.CostRow("multi task GA (m=4)", a.MultiGA.Cost, a.Disabled, core.HyperCount(a.MultiGA.MTSched)),
		report.CostRow("multi task aligned DP", a.MultiAligned.Cost, a.Disabled, core.HyperCount(a.MultiAligned.MTSched)),
	}
	if a.MultiBeam != nil {
		rows = append(rows, report.CostRow("multi task beam DP", a.MultiBeam.Cost, a.Disabled, core.HyperCount(a.MultiBeam.MTSched)))
	}
	rows = append(rows,
		report.CostRow("multi task best", best.Cost, a.Disabled, core.HyperCount(best.MTSched)),
		report.CostRow("multi task lower bound", a.Bound, a.Disabled, 0),
	)
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\npaper reference (n=110 trace): disabled 5280 (100%), single 3761 (71.2%, 30 hyper steps), multi GA 2813 (53.3%, 50 partial hyper steps)")
	fmt.Println("ordering multi < single < disabled reproduces; see EXPERIMENTS.md for the factor discussion")
	return nil
}

// analyzeFigures produces the analysis the figures are drawn from: the
// data-dependent counter at delta granularity, where requirement
// diversity makes the schedule structure visible (the straight-line
// counter's optimal schedules hyperreconfigure only once, which renders
// as an empty chart).
func analyzeFigures() (*core.Analysis, error) {
	tr, err := core.AppTrace("counterdd")
	if err != nil {
		return nil, err
	}
	return core.AnalyzeTrace(context.Background(), tr, core.Options{
		Granularity: shyra.GranularityDelta,
		Solve:       solve.Options{Pop: 120, Generations: 400, Seed: 1},
	})
}

// figure2 renders the context sequences and hyperreconfiguration steps.
func figure2() error {
	fmt.Println("=== Figure 2: hypercontexts and hyperreconfiguration time steps ===")
	fmt.Println("(data-dependent 4-bit counter 0→10, delta granularity)")
	a, err := analyzeFigures()
	if err != nil {
		return err
	}
	fmt.Printf("single task case (m=1): %d hyperreconfigurations, cost %d (%.1f%% of disabled)\n",
		len(a.SingleOpt.Seg.Starts), a.SingleOpt.Cost, a.Percent(a.SingleOpt.Cost))
	fmt.Println("  " + report.SegmentsLine(a.Single.Len(), a.SingleOpt.Seg.Starts))
	fmt.Println()
	fmt.Printf("multiple task case (m=4): cost %d (%.1f%% of disabled)\n", a.Best().Cost, a.Percent(a.Best().Cost))
	fmt.Println("(used = requirement size, avail = hypercontext size, base-36 digits)")
	cm, err := report.ContextMap(a.MT, a.Best().MTSched)
	if err != nil {
		return err
	}
	fmt.Print(cm)
	svg, err := report.SVGContextMap(a.MT, a.Best().MTSched)
	if err != nil {
		return err
	}
	return writeSVG("fig2.svg", svg)
}

// figure3 renders which tasks partially hyperreconfigure at each step.
func figure3() error {
	fmt.Println("=== Figure 3: partial hyperreconfiguration operations per task ===")
	fmt.Println("(data-dependent 4-bit counter 0→10, delta granularity)")
	a, err := analyzeFigures()
	if err != nil {
		return err
	}
	names := make([]string, a.MT.NumTasks())
	for j, t := range a.MT.Tasks {
		names[j] = t.Name
	}
	fmt.Printf("best multi-task schedule, %d partial hyperreconfiguration steps (# = hyper, . = no-hyper):\n",
		core.HyperCount(a.Best().MTSched))
	fmt.Print(report.HyperMap(names, a.Best().MTSched))
	svg, err := report.SVGHyperMap(names, a.Best().MTSched)
	if err != nil {
		return err
	}
	return writeSVG("fig3.svg", svg)
}

// modes sweeps the upload modes (E5).
func modes() error {
	fmt.Println("=== E5: upload-mode sweep (4-bit counter trace, m=4) ===")
	ctx := context.Background()
	tr, err := core.CounterTrace(0, 10)
	if err != nil {
		return err
	}
	ins, err := tr.MTInstance(shyra.GranularityBit)
	if err != nil {
		return err
	}
	headers := []string{"hyper upload", "reconf upload", "GA cost", "aligned cost", "lower bound"}
	var rows [][]string
	for _, hu := range []model.UploadMode{model.TaskParallel, model.TaskSequential} {
		for _, ru := range []model.UploadMode{model.TaskParallel, model.TaskSequential} {
			opt := model.CostOptions{HyperUpload: hu, ReconfUpload: ru}
			mtInst := solve.NewMT(ins, opt)
			res, err := solve.Run(ctx, "ga", mtInst, solve.Options{Pop: 80, Generations: 200, Seed: 1})
			if err != nil {
				return err
			}
			al, err := solve.Run(ctx, "aligned", mtInst, solve.Options{})
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				hu.String(), ru.String(),
				fmt.Sprintf("%d", res.Cost),
				fmt.Sprintf("%d", al.Cost),
				fmt.Sprintf("%d", mtswitch.LowerBound(ins, opt)),
			})
		}
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\ntask-parallel uploads never cost more than task-sequential ones (max ≤ sum per step)")
	return nil
}

// solvers compares solver quality across the bundled apps (E6), every
// optimizer resolved by name through the solve registry.
func solvers() error {
	fmt.Println("=== E6: solver quality (m=4, task-parallel uploads) ===")
	ctx := context.Background()
	headers := []string{"app", "n", "disabled", "aligned", "beam", "GA", "SA", "bound"}
	var rows [][]string
	for _, name := range core.AppNames() {
		tr, err := core.AppTrace(name)
		if err != nil {
			return err
		}
		ins, err := tr.MTInstance(shyra.GranularityBit)
		if err != nil {
			return err
		}
		mtInst := solve.NewMT(ins, parallel)
		al, err := solve.Run(ctx, "aligned", mtInst, solve.Options{})
		if err != nil {
			return err
		}
		beam, err := solve.Run(ctx, "beam", mtInst, solve.Options{MaxStates: 2000, MaxCandidates: 4})
		if err != nil {
			return err
		}
		res, err := solve.Run(ctx, "ga", mtInst, solve.Options{Pop: 80, Generations: 200, Seed: 1})
		if err != nil {
			return err
		}
		sa, err := solve.Run(ctx, "anneal", mtInst, solve.Options{Iterations: 20000, Seed: 1})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			name, fmt.Sprintf("%d", ins.Steps()),
			fmt.Sprintf("%d", ins.DisabledCost()),
			fmt.Sprintf("%d", al.Cost),
			fmt.Sprintf("%d", beam.Cost),
			fmt.Sprintf("%d", res.Cost),
			fmt.Sprintf("%d", sa.Cost),
			fmt.Sprintf("%d", mtswitch.LowerBound(ins, parallel)),
		})
	}
	fmt.Print(report.Table(headers, rows))
	return nil
}

// changeover compares the plain and changeover-cost variants (E7).
func changeover() error {
	fmt.Println("=== E7: changeover-cost variant (m=1 view) ===")
	ctx := context.Background()
	headers := []string{"app", "plain DP", "changeover DP", "hyper steps plain", "hyper steps changeover"}
	var rows [][]string
	for _, name := range core.AppNames() {
		tr, err := core.AppTrace(name)
		if err != nil {
			return err
		}
		ins, err := tr.SingleInstance(shyra.GranularityBit)
		if err != nil {
			return err
		}
		single := solve.NewSwitch(ins)
		plain, err := solve.Run(ctx, "exact", single, solve.Options{})
		if err != nil {
			return err
		}
		ch, err := solve.Run(ctx, "changeover", single, solve.Options{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", plain.Cost),
			fmt.Sprintf("%d", ch.Cost),
			fmt.Sprintf("%d", len(plain.Seg.Starts)),
			fmt.Sprintf("%d", len(ch.Seg.Starts)),
		})
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\nchangeover costs make hyperreconfiguration cheaper when consecutive hypercontexts overlap,")
	fmt.Println("so changeover schedules use at least as many hyperreconfigurations")
	return nil
}

// granularities compares the three requirement-extraction notions (E9):
// bit (live bits), unit (whole used units) and delta (changed bits).
func granularities() error {
	fmt.Println("=== E9: requirement-granularity ablation (counter trace) ===")
	tr, err := core.CounterTrace(0, 10)
	if err != nil {
		return err
	}
	headers := []string{"granularity", "disabled", "single opt", "single %", "multi best", "multi %", "single hypers", "multi hyper steps"}
	var rows [][]string
	for _, g := range []shyra.Granularity{shyra.GranularityBit, shyra.GranularityUnit, shyra.GranularityDelta} {
		a, err := core.AnalyzeTrace(context.Background(), tr, core.Options{
			Granularity: g,
			Solve:       solve.Options{Pop: 100, Generations: 300, Seed: 1},
		})
		if err != nil {
			return err
		}
		best := a.Best()
		rows = append(rows, []string{
			g.String(),
			fmt.Sprintf("%d", a.Disabled),
			fmt.Sprintf("%d", a.SingleOpt.Cost),
			fmt.Sprintf("%.1f%%", a.Percent(a.SingleOpt.Cost)),
			fmt.Sprintf("%d", best.Cost),
			fmt.Sprintf("%.1f%%", a.Percent(best.Cost)),
			fmt.Sprintf("%d", len(a.SingleOpt.Seg.Starts)),
			fmt.Sprintf("%d", core.HyperCount(best.MTSched)),
		})
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\ndelta granularity (only changed bits must be uploaded) yields the richest schedules;")
	fmt.Println("the ordering multi < single < disabled holds under every granularity")
	return nil
}

// asyncVsSync compares the non-synchronized General-MT window time with
// the fully synchronized cost on every bundled app (E10).
func asyncVsSync() error {
	fmt.Println("=== E10: asynchronous (General MT) vs fully synchronized execution ===")
	ctx := context.Background()
	headers := []string{"app", "async window", "bottleneck task", "fully-sync parallel", "fully-sync sequential"}
	var rows [][]string
	for _, name := range core.AppNames() {
		tr, err := core.AppTrace(name)
		if err != nil {
			return err
		}
		ins, err := tr.MTInstance(shyra.GranularityBit)
		if err != nil {
			return err
		}
		async, err := core.AnalyzeAsync(ctx, ins)
		if err != nil {
			return err
		}
		par, err := solve.Run(ctx, "ga", solve.NewMT(ins, parallel), solve.Options{Pop: 60, Generations: 150, Seed: 1})
		if err != nil {
			return err
		}
		seqOpt := model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}
		seq, err := solve.Run(ctx, "exact", solve.NewMT(ins, seqOpt), solve.Options{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", async.Window),
			ins.Tasks[async.Bottleneck].Name,
			fmt.Sprintf("%d", par.Cost),
			fmt.Sprintf("%d", seq.Cost),
		})
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\nasynchronous execution overlaps per-task reconfiguration with the other tasks'")
	fmt.Println("computation (window = slowest task); it always beats sequential uploads and the")
	fmt.Println("MUX task (24 of 48 switches) is the bottleneck throughout")
	return nil
}

// privGlobal demonstrates the private-global-resource extension (E11):
// three tasks share four private I/O pins whose ownership must migrate
// between computation phases, forcing global hyperreconfigurations.
func privGlobal() error {
	fmt.Println("=== E11: private global resources (shared I/O pins) ===")
	ins, err := privGlobalWorkload()
	if err != nil {
		return err
	}
	sol, err := mtswitch.SolvePrivateGlobal(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("workload: m=%d tasks, n=%d steps, %d private I/O pins, W=%d per global hyperreconfiguration\n",
		ins.Base.NumTasks(), ins.Base.Steps(), ins.G, ins.W)
	fmt.Printf("optimal global windowing: %d windows starting at steps %v, total cost %d\n",
		len(sol.GlobalStarts), sol.GlobalStarts, sol.Cost)
	for k, w := range sol.Windows {
		fmt.Printf("  window %d: local+private cost %d\n", k, w.Cost)
	}
	fmt.Println("\nownership of the pins flips mid-run, so at least two global windows are required;")
	fmt.Println("the outer DP places the global hyperreconfiguration exactly at the flip")
	return nil
}

// privGlobalWorkload builds the E11 instance: task A drives the pins in
// the first half, task C in the second half, task B never does.
func privGlobalWorkload() (*mtswitch.PrivateGlobalInstance, error) {
	const n = 12
	tasks := []model.Task{
		{Name: "A", Local: 4, V: 4},
		{Name: "B", Local: 4, V: 4},
		{Name: "C", Local: 4, V: 4},
	}
	local := make([][]bitset.Set, len(tasks))
	priv := make([][]bitset.Set, len(tasks))
	for j := range tasks {
		local[j] = make([]bitset.Set, n)
		priv[j] = make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			local[j][i] = bitset.FromMembers(4, (i+j)%4)
			priv[j][i] = bitset.New(4)
		}
	}
	for i := 0; i < n/2; i++ {
		priv[0][i] = bitset.FromMembers(4, 0, 1) // A owns pins 0,1 early
	}
	for i := n / 2; i < n; i++ {
		priv[2][i] = bitset.FromMembers(4, 0, 1, 2) // C owns pins 0..2 late
	}
	base, err := model.NewMTSwitchInstance(tasks, local)
	if err != nil {
		return nil, err
	}
	return mtswitch.NewPrivateGlobalInstance(base, 4, priv, 8)
}

// mtDAG demonstrates the Multi Task DAG cost model (E13): two tasks on
// a coarse-grained machine with three routability levels each; the
// joint DP exploits task-parallel uploads, while independent per-task
// scheduling is an upper bound.
func mtDAG() error {
	fmt.Println("=== E13: the Multi Task DAG cost model ===")
	ctx := context.Background()
	levels := func() []model.Hypercontext {
		return []model.Hypercontext{
			{Name: "local", PerStep: 1, Sat: bitset.FromMembers(3, 0)},
			{Name: "row", PerStep: 3, Sat: bitset.FromMembers(3, 0, 1)},
			{Name: "global", PerStep: 7, Sat: bitset.Full(3)},
		}
	}
	mk := func(name string, v model.Cost, seq []int) (solve.MTDAGTask, error) {
		inst, err := dag.Chain(3, levels(), seq, 1)
		if err != nil {
			return solve.MTDAGTask{}, err
		}
		return solve.MTDAGTask{Name: name, V: v, Inst: inst}, nil
	}
	// Task A needs bursts of row routing; task B one global transpose.
	a, err := mk("A", 2, []int{0, 1, 1, 0, 0, 1, 1, 0, 0, 0})
	if err != nil {
		return err
	}
	b, err := mk("B", 4, []int{0, 0, 0, 0, 2, 2, 0, 0, 0, 0})
	if err != nil {
		return err
	}
	tasks := []solve.MTDAGTask{a, b}
	headers := []string{"uploads", "joint DP", "per-task DP (upper bound)"}
	var rows [][]string
	for _, c := range []struct {
		name string
		opt  model.CostOptions
	}{
		{"task-parallel", parallel},
		{"task-sequential", model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}},
	} {
		inst := solve.NewMTDAG(tasks, c.opt)
		joint, err := solve.Run(ctx, "exact", inst, solve.Options{})
		if err != nil {
			return err
		}
		per, err := solve.Run(ctx, "pertask", inst, solve.Options{})
		if err != nil {
			return err
		}
		rows = append(rows, []string{c.name, fmt.Sprintf("%d", joint.Cost), fmt.Sprintf("%d", per.Cost)})
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\nunder task-sequential uploads the cost separates and the per-task DP is optimal;")
	fmt.Println("under task-parallel uploads the joint DP coordinates the tasks' quality levels")
	return nil
}

// mesh runs the multi-task analysis on the reconfigurable mesh (E15) —
// the architecture the paper names as the canonical fully synchronized
// machine.  Tasks are the mesh rows.
func mesh() error {
	fmt.Println("=== E15: reconfigurable mesh (fully synchronized by construction) ===")
	ctx := context.Background()
	workloads := []struct {
		name  string
		build func() (*rmesh.Program, error)
	}{
		{"rotate-and-or 2x8, 8 rounds", func() (*rmesh.Program, error) {
			return rmesh.RotateAndOr(8, 8, []bool{true, false, false, true, false, false, true, false})
		}},
		{"broadcast-or 4x6", func() (*rmesh.Program, error) {
			in := make([][]bool, 4)
			for r := range in {
				in[r] = make([]bool, 6)
			}
			in[2][3] = true
			return rmesh.BroadcastOR(4, 6, in)
		}},
		{"prefix-or 1x12", func() (*rmesh.Program, error) {
			in := make([]bool, 12)
			in[3], in[9] = true, true
			return rmesh.PrefixOR(in)
		}},
	}
	headers := []string{"workload", "rows (m)", "n", "disabled", "aligned", "GA", "GA %"}
	var rows [][]string
	for _, wl := range workloads {
		prog, err := wl.build()
		if err != nil {
			return err
		}
		tr, err := rmesh.Run(prog)
		if err != nil {
			return err
		}
		ins, err := tr.MTInstanceDelta()
		if err != nil {
			return err
		}
		mtInst := solve.NewMT(ins, parallel)
		al, err := solve.Run(ctx, "aligned", mtInst, solve.Options{})
		if err != nil {
			return err
		}
		res, err := solve.Run(ctx, "ga", mtInst, solve.Options{Pop: 60, Generations: 150, Seed: 1})
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			wl.name,
			fmt.Sprintf("%d", ins.NumTasks()),
			fmt.Sprintf("%d", ins.Steps()),
			fmt.Sprintf("%d", ins.DisabledCost()),
			fmt.Sprintf("%d", al.Cost),
			fmt.Sprintf("%d", res.Cost),
			fmt.Sprintf("%.1f%%", 100*float64(res.Cost)/float64(ins.DisabledCost())),
		})
	}
	fmt.Print(report.Table(headers, rows))
	fmt.Println("\nthe same multi-task machinery prices a second, very different architecture;")
	fmt.Println("idle rows and phase alternation make partial hyperreconfiguration pay, while the")
	fmt.Println("single-step prefix-or shows the degenerate case: one reconfiguration cannot")
	fmt.Println("amortize the mandatory initial hyperreconfiguration (200% of disabled)")
	return nil
}

// appsSweep runs the full Section 6 analysis on every bundled app (E8).
func appsSweep() error {
	fmt.Println("=== E8: all bundled applications (bit granularity, task-parallel) ===")
	headers := []string{"app", "n", "disabled", "single opt", "single %", "multi best", "multi %"}
	var rows [][]string
	for _, name := range core.AppNames() {
		tr, err := core.AppTrace(name)
		if err != nil {
			return err
		}
		a, err := core.AnalyzeTrace(context.Background(), tr, core.Options{
			Solve: solve.Options{Pop: 80, Generations: 200, Seed: 1},
		})
		if err != nil {
			return err
		}
		best := a.Best()
		rows = append(rows, []string{
			name, fmt.Sprintf("%d", tr.Len()),
			fmt.Sprintf("%d", a.Disabled),
			fmt.Sprintf("%d", a.SingleOpt.Cost),
			fmt.Sprintf("%.1f%%", a.Percent(a.SingleOpt.Cost)),
			fmt.Sprintf("%d", best.Cost),
			fmt.Sprintf("%.1f%%", a.Percent(best.Cost)),
		})
	}
	fmt.Print(report.Table(headers, rows))
	return nil
}
