// The -bench10 mode records the portfolio racing baseline
// (BENCH_PR10.json, EXPERIMENTS.md E22): the "portfolio" meta-solver
// against its own contenders run solo.
//
// Three scenarios are recorded:
//
//   - mixed: a heterogeneous workload (many seeds per family) solved by
//     each contender solo and by the portfolio as shipped — races while
//     its fresh dispatch table is cold, direct dispatch once a family's
//     winner is learned, exactly the amortized behavior a long-running
//     service sees.  Outside -bench10small the portfolio's total wall
//     must beat the worst single solver by at least 2x and stay within
//     10% of best-in-hindsight (the per-instance cheapest single solver
//     that matches the portfolio's cost and exactness guarantee), and
//     wherever the portfolio reports an exact result its cost must
//     equal the solo exact cost;
//   - exchange: the incumbent-exchange probe — the pruned exact DP run
//     once blind and once with the beam scout's bound published on the
//     shared incumbent board; the bound must cut the expanded states
//     without changing the cost.  The probe uses the sequential-hyper /
//     parallel-reconf upload model: under fully parallel uploads the
//     aligned-DP warm start is already optimal on these workloads and
//     the board has nothing to add, while mixed upload modes leave a
//     gap the scout's bound closes mid-solve;
//   - dispatch: a fresh win table warmed by races over several
//     instance families, then evaluated on repeat instances of the
//     same families — at least 80% must dispatch directly to the
//     family's race winner.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/portfolio"
	"repro/internal/solve"
	"repro/internal/workload"
)

// pfFamily is one instance family of the heterogeneous workload: a
// generator plus its configuration; per-instance seeds vary within the
// family.
type pfFamily struct {
	Name string          `json:"name"`
	Gen  string          `json:"gen"`
	Cfg  workload.Config `json:"config"`
}

// pfMixedFamilies is the -bench10 mixed workload: family sizes chosen
// so the exact DP lane, which is monolithic, can prove optimality and
// cancel the race.
var pfMixedFamilies = []pfFamily{
	{Name: "phased-small", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8}},
	{Name: "phased", Gen: "phased", Cfg: workload.Config{Tasks: 3, Steps: 40, Switches: 12, MeanPhase: 10}},
	{Name: "dense", Gen: "dense", Cfg: workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10}},
}

// pfMixedFamiliesSmall shrinks the mixed workload for -bench10small
// (the CI smoke); the wall-clock floors are skipped there, the
// correctness gates are not.
var pfMixedFamiliesSmall = []pfFamily{
	{Name: "phased-small", Gen: "phased", Cfg: workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8}},
}

// pfDispatchFamilies adds a longer blocked trace.  Its races line up the
// monolithic exact lane, which proves the optimum and cancels the
// heuristics; repeat instances then skip the race for the family's
// learned winner.
var pfDispatchFamilies = append(pfMixedFamilies[:len(pfMixedFamilies):len(pfMixedFamilies)],
	pfFamily{Name: "blocked-long", Gen: "blocked", Cfg: workload.Config{Tasks: 4, Steps: 96, Switches: 24, MeanPhase: 8}})

// pfDispatchFamiliesSmall replaces it under -bench10small.
var pfDispatchFamiliesSmall = append(pfMixedFamiliesSmall[:1:1],
	pfFamily{Name: "blocked-long", Gen: "blocked", Cfg: workload.Config{Tasks: 2, Steps: 80, Switches: 16, MeanPhase: 8}})

// pfSeqPar is the upload model of the exchange probe: hyperconfig
// uploads are task-sequential (their cost sums over tasks) while
// reconfiguration uploads stay task-parallel.  This keeps the joint DP
// coupled across tasks and is the regime where the aligned warm start
// is not already optimal, so the scout's published bound actually
// tightens the exact DP mid-solve.
var pfSeqPar = model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskParallel}

// pfExchangeWorkload is the incumbent-exchange probe instance: dense
// phases where the beam scout finds the optimum while the exact DP's
// own warm start overshoots it, so the published bound prunes a
// measurable share of the frontier.
var pfExchangeWorkload = workload.Config{Tasks: 4, Steps: 36, Switches: 12, MeanPhase: 4, Seed: 2}

// pfExchangeWorkloadSmall replaces it under -bench10small.
var pfExchangeWorkloadSmall = workload.Config{Tasks: 3, Steps: 32, Switches: 12, MeanPhase: 5, Seed: 1}

const (
	// pfWorstFactor is acceptance gate (a1): portfolio total wall at
	// least this many times better than the worst single solver.
	pfWorstFactor = 2.0
	// pfHindsightSlack is gate (a2): portfolio total wall within 10% of
	// best-in-hindsight.
	pfHindsightSlack = 1.10
	// pfDirectFloor is gate (c): share of repeat-family instances that
	// must dispatch directly to the eventual winner after warm-up.
	pfDirectFloor = 0.8
	// pfMixedSeeds instances are generated per family (seed = 1..N).
	// The count is deliberately large: the portfolio races only the
	// first few instances of a family before its dispatch table learns
	// the winner, so the measured total reflects the amortized cost of
	// the meta-solver over a real workload, not the one-off race tax.
	pfMixedSeeds      = 24
	pfMixedSeedsSmall = 3
	// pfWarmSeeds races warm the dispatch table per family before
	// pfEvalSeeds repeat instances are evaluated.
	pfWarmSeeds = 4
	pfEvalSeeds = 5
)

// pfRun is one solver's result on one instance.
type pfRun struct {
	Solver string  `json:"solver"`
	WallMS float64 `json:"wall_ms"`
	Cost   int64   `json:"cost"`
	Exact  bool    `json:"exact"`
}

// pfInstance is the head-to-head on one mixed-workload instance.
type pfInstance struct {
	Family    string `json:"family"`
	Seed      int64  `json:"seed"`
	Portfolio pfRun  `json:"portfolio"`
	Winner    string `json:"winner"`
	// Direct reports that the portfolio skipped the race and dispatched
	// straight to the learned winner.
	Direct  bool    `json:"direct,omitempty"`
	Singles []pfRun `json:"singles"`
	// Hindsight is the cheapest single solver whose cost AND exactness
	// match the portfolio's result — the solver a perfect oracle would
	// have dispatched to.
	Hindsight pfRun `json:"hindsight"`
}

// pfMixed is the mixed-workload scenario and gate (a).
type pfMixed struct {
	Families  []pfFamily   `json:"families"`
	Instances []pfInstance `json:"instances"`
	// Raced and Direct split the portfolio's instances by strategy:
	// full races while the dispatch table is cold vs direct dispatches
	// once a family's winner is learned.
	Raced  int `json:"raced"`
	Direct int `json:"direct"`
	// Totals across all instances, per strategy.
	PortfolioMS float64 `json:"portfolio_ms"`
	WorstMS     float64 `json:"worst_ms"`
	WorstSolver string  `json:"worst_solver"`
	HindsightMS float64 `json:"hindsight_ms"`
	// VsWorst is WorstMS / PortfolioMS (gate: >= 2 outside -small);
	// VsHindsight is PortfolioMS / HindsightMS (gate: <= 1.10).
	VsWorst     float64 `json:"vs_worst"`
	VsHindsight float64 `json:"vs_hindsight"`
	// ExactCostsAgree records that every exact portfolio result matched
	// the solo exact cost (always gated).
	ExactCostsAgree bool `json:"exact_costs_agree"`
}

// pfExchange is the incumbent-exchange probe and gate (b).
type pfExchange struct {
	Workload       workload.Config `json:"workload"`
	BeamBound      int64           `json:"beam_bound"`
	Cost           int64           `json:"cost"`
	StatesBlind    int64           `json:"states_blind"`
	StatesExchange int64           `json:"states_exchange"`
	Tightenings    int64           `json:"tightenings"`
	// Reduction is 1 - StatesExchange/StatesBlind (gate: > 0).
	Reduction float64 `json:"reduction"`
}

// pfFamilyDispatch is one family's dispatch outcome.
type pfFamilyDispatch struct {
	Family string `json:"family"`
	Winner string `json:"winner"`
	Evals  int    `json:"evals"`
	// Direct counts evaluation instances dispatched directly to Winner.
	Direct int `json:"direct"`
}

// pfDispatch is the learned-dispatch scenario and gate (c).
type pfDispatch struct {
	WarmRacesPerFamily int                `json:"warm_races_per_family"`
	Families           []pfFamilyDispatch `json:"families"`
	Evals              int                `json:"evals"`
	Direct             int                `json:"direct"`
	// DirectRate is Direct / Evals (gate: >= 0.8).
	DirectRate float64 `json:"direct_rate"`
}

// portfolioBaseline is the schema of BENCH_PR10.json.
type portfolioBaseline struct {
	Benchmark  string     `json:"benchmark"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Small      bool       `json:"small,omitempty"`
	Mixed      pfMixed    `json:"mixed"`
	Exchange   pfExchange `json:"exchange"`
	Dispatch   pfDispatch `json:"dispatch"`
}

// pfInstanceOf generates one family instance.
func pfInstanceOf(f pfFamily, seed int64) (*solve.Instance, error) {
	gen, ok := workload.Generators()[f.Gen]
	if !ok {
		return nil, fmt.Errorf("unknown generator %q", f.Gen)
	}
	cfg := f.Cfg
	cfg.Seed = seed
	mt, err := gen(cfg)
	if err != nil {
		return nil, err
	}
	return solve.NewMT(mt, parallel), nil
}

// pfMeasure times one solve.  A single measurement per solve is
// deliberate: the portfolio is measured stateful (its dispatch table
// warms as the workload progresses), so re-running an instance would
// change what is being measured.
func pfMeasure(run func() (*solve.Solution, error)) (*solve.Solution, float64, error) {
	start := time.Now()
	s, err := run()
	wall := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return nil, 0, err
	}
	return s, wall, nil
}

// pfMixedBench runs the heterogeneous head-to-head.  The portfolio is
// configured exactly as the product ships it — racing with incumbent
// exchange plus a learned dispatch table that starts empty — so the
// first few instances of each family pay the race tax and the rest
// dispatch straight to the learned winner.
func pfMixedBench(ctx context.Context, families []pfFamily, seeds int64, small bool) (pfMixed, error) {
	mixed := pfMixed{Families: families, ExactCostsAgree: true}
	cfg := portfolio.Defaults()
	cfg.Table = portfolio.NewTable()
	worstBySolver := map[string]float64{}
	for _, f := range families {
		for seed := int64(1); seed <= seeds; seed++ {
			inst, err := pfInstanceOf(f, seed)
			if err != nil {
				return mixed, err
			}
			psol, pwall, err := pfMeasure(func() (*solve.Solution, error) {
				return portfolio.Race(ctx, inst, solve.Options{}, cfg)
			})
			if err != nil {
				return mixed, fmt.Errorf("mixed %s seed %d portfolio: %w", f.Name, seed, err)
			}
			res := pfInstance{
				Family:    f.Name,
				Seed:      seed,
				Portfolio: pfRun{Solver: "portfolio", WallMS: pwall, Cost: int64(psol.Cost), Exact: psol.Exact},
				Direct:    len(psol.Contenders) == 1 && psol.Contenders[0].Direct,
			}
			if res.Direct {
				mixed.Direct++
			} else {
				mixed.Raced++
			}
			// The solo field: the contenders the race would line up,
			// each run alone through the same registry path.
			singles := []string{"exact", "beam", "ga"}
			for _, c := range psol.Contenders {
				if c.Won {
					res.Winner = c.Solver
				}
			}
			hind := -1
			for _, name := range singles {
				ssol, swall, err := pfMeasure(func() (*solve.Solution, error) {
					return solve.Run(ctx, name, inst, solve.Options{})
				})
				if err != nil {
					return mixed, fmt.Errorf("mixed %s seed %d %s: %w", f.Name, seed, name, err)
				}
				run := pfRun{Solver: name, WallMS: swall, Cost: int64(ssol.Cost), Exact: ssol.Exact}
				res.Singles = append(res.Singles, run)
				worstBySolver[name] += swall
				if psol.Exact && ssol.Exact && run.Cost != res.Portfolio.Cost {
					mixed.ExactCostsAgree = false
				}
				if run.Cost == res.Portfolio.Cost && run.Exact == res.Portfolio.Exact {
					if hind < 0 || swall < res.Singles[hind].WallMS {
						hind = len(res.Singles) - 1
					}
				}
			}
			if hind < 0 {
				return mixed, fmt.Errorf("mixed %s seed %d: no single solver reproduces the portfolio result (cost=%d exact=%t)",
					f.Name, seed, res.Portfolio.Cost, res.Portfolio.Exact)
			}
			res.Hindsight = res.Singles[hind]
			mixed.Instances = append(mixed.Instances, res)
			mixed.PortfolioMS += pwall
			mixed.HindsightMS += res.Hindsight.WallMS
		}
	}
	for name, total := range worstBySolver {
		if total > mixed.WorstMS {
			mixed.WorstMS, mixed.WorstSolver = total, name
		}
	}
	if mixed.PortfolioMS > 0 {
		mixed.VsWorst = mixed.WorstMS / mixed.PortfolioMS
	}
	if mixed.HindsightMS > 0 {
		mixed.VsHindsight = mixed.PortfolioMS / mixed.HindsightMS
	}
	if !mixed.ExactCostsAgree {
		return mixed, fmt.Errorf("mixed: portfolio exact cost differs from the solo exact cost")
	}
	if !small {
		if mixed.VsWorst < pfWorstFactor {
			return mixed, fmt.Errorf("mixed: portfolio only %.2fx better than the worst single solver (%s), need %.0fx",
				mixed.VsWorst, mixed.WorstSolver, pfWorstFactor)
		}
		if mixed.VsHindsight > pfHindsightSlack {
			return mixed, fmt.Errorf("mixed: portfolio at %.2fx of best-in-hindsight, cap is %.2fx",
				mixed.VsHindsight, pfHindsightSlack)
		}
	}
	return mixed, nil
}

// pfExchangeBench runs the incumbent-exchange probe: the same exact DP
// solve, blind vs with the beam scout's bound pre-published on the
// shared board.  Publishing before the solve (rather than mid-race)
// makes the probe deterministic; the published value is exactly what
// the beam lane broadcasts in a live race.
func pfExchangeBench(ctx context.Context, cfg workload.Config) (pfExchange, error) {
	mt, err := workload.Dense(cfg)
	if err != nil {
		return pfExchange{}, err
	}
	inst := solve.NewMT(mt, pfSeqPar)

	beam, err := solve.Run(ctx, "beam", inst, solve.Options{Workers: 1})
	if err != nil {
		return pfExchange{}, fmt.Errorf("exchange beam scout: %w", err)
	}
	blind, err := mtswitch.SolveExact(ctx, mt, pfSeqPar, solve.Options{})
	if err != nil {
		return pfExchange{}, fmt.Errorf("exchange blind exact: %w", err)
	}
	board := solve.NewIncumbent()
	board.Publish(beam.Cost)
	coupled, err := mtswitch.SolveExact(solve.WithIncumbent(ctx, board), mt, pfSeqPar, solve.Options{})
	if err != nil {
		return pfExchange{}, fmt.Errorf("exchange coupled exact: %w", err)
	}

	ex := pfExchange{
		Workload:       cfg,
		BeamBound:      int64(beam.Cost),
		Cost:           int64(coupled.Cost),
		StatesBlind:    blind.Stats.StatesExpanded,
		StatesExchange: coupled.Stats.StatesExpanded,
		Tightenings:    coupled.Stats.IncumbentTightenings,
	}
	if ex.StatesBlind > 0 {
		ex.Reduction = 1 - float64(ex.StatesExchange)/float64(ex.StatesBlind)
	}
	if model.Cost(ex.Cost) != blind.Cost {
		return ex, fmt.Errorf("exchange: coupled cost %d != blind cost %d", ex.Cost, blind.Cost)
	}
	if ex.StatesExchange >= ex.StatesBlind {
		return ex, fmt.Errorf("exchange: bound did not reduce expanded states (%d blind, %d coupled)",
			ex.StatesBlind, ex.StatesExchange)
	}
	if ex.Tightenings == 0 {
		return ex, fmt.Errorf("exchange: exact DP never adopted the published bound")
	}
	return ex, nil
}

// pfDispatchBench warms a fresh win table with races, then checks that
// repeat instances of the same families dispatch directly to the
// family's winner.
func pfDispatchBench(ctx context.Context, families []pfFamily) (pfDispatch, error) {
	table := portfolio.NewTable()
	cfg := portfolio.Defaults()
	cfg.Table = table

	disp := pfDispatch{WarmRacesPerFamily: pfWarmSeeds}
	for _, f := range families {
		fd := pfFamilyDispatch{Family: f.Name}
		for seed := int64(100); seed < 100+pfWarmSeeds; seed++ {
			inst, err := pfInstanceOf(f, seed)
			if err != nil {
				return disp, err
			}
			sol, err := portfolio.Race(ctx, inst, solve.Options{}, cfg)
			if err != nil {
				return disp, fmt.Errorf("dispatch warm %s seed %d: %w", f.Name, seed, err)
			}
			// A warm run that already dispatched directly (the family's
			// bucket was learned from an earlier family) names the same
			// winner a race would have: the direct target IS the learned
			// winner.
			for _, c := range sol.Contenders {
				if c.Won {
					fd.Winner = c.Solver
				}
			}
		}
		for seed := int64(200); seed < 200+pfEvalSeeds; seed++ {
			inst, err := pfInstanceOf(f, seed)
			if err != nil {
				return disp, err
			}
			sol, err := portfolio.Race(ctx, inst, solve.Options{}, cfg)
			if err != nil {
				return disp, fmt.Errorf("dispatch eval %s seed %d: %w", f.Name, seed, err)
			}
			fd.Evals++
			if len(sol.Contenders) == 1 && sol.Contenders[0].Direct && sol.Contenders[0].Solver == fd.Winner {
				fd.Direct++
			}
		}
		disp.Families = append(disp.Families, fd)
		disp.Evals += fd.Evals
		disp.Direct += fd.Direct
	}
	if disp.Evals > 0 {
		disp.DirectRate = float64(disp.Direct) / float64(disp.Evals)
	}
	if disp.DirectRate < pfDirectFloor {
		return disp, fmt.Errorf("dispatch: only %.0f%% of repeat instances dispatched directly (floor %.0f%%)",
			100*disp.DirectRate, 100*pfDirectFloor)
	}
	return disp, nil
}

// portfolioBench runs all three scenarios and writes BENCH_PR10.json.
func portfolioBench(outPath string, small bool) error {
	ctx := context.Background()
	mixedFamilies, dispatchFamilies := pfMixedFamilies, pfDispatchFamilies
	exchangeCfg := pfExchangeWorkload
	seeds := int64(pfMixedSeeds)
	if small {
		mixedFamilies, dispatchFamilies = pfMixedFamiliesSmall, pfDispatchFamiliesSmall
		exchangeCfg = pfExchangeWorkloadSmall
		seeds = pfMixedSeedsSmall
	}

	mixed, err := pfMixedBench(ctx, mixedFamilies, seeds, small)
	if err != nil {
		return err
	}
	fmt.Printf("mixed       portfolio %.1fms over %d instances (%d raced, %d direct) | worst single %s %.1fms (%.1fx) | hindsight %.1fms (%.2fx)\n",
		mixed.PortfolioMS, mixed.Raced+mixed.Direct, mixed.Raced, mixed.Direct,
		mixed.WorstSolver, mixed.WorstMS, mixed.VsWorst, mixed.HindsightMS, mixed.VsHindsight)

	exchange, err := pfExchangeBench(ctx, exchangeCfg)
	if err != nil {
		return err
	}
	fmt.Printf("exchange    blind %d states | coupled %d states (-%.0f%%, %d tightenings) | cost %d unchanged\n",
		exchange.StatesBlind, exchange.StatesExchange, 100*exchange.Reduction, exchange.Tightenings, exchange.Cost)

	dispatch, err := pfDispatchBench(ctx, dispatchFamilies)
	if err != nil {
		return err
	}
	fmt.Printf("dispatch    %d/%d repeat instances dispatched directly (%.0f%%)\n",
		dispatch.Direct, dispatch.Evals, 100*dispatch.DirectRate)

	out := portfolioBaseline{
		Benchmark:  "portfolio racing vs solo contenders (E22)",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Small:      small,
		Mixed:      mixed,
		Exchange:   exchange,
		Dispatch:   dispatch,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("portfolio baseline written to %s\n", outPath)
	return nil
}
