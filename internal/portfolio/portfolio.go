// Package portfolio is the racing meta-solver: it runs a small
// portfolio of registered MT-Switch solvers concurrently on one
// instance — the exact DP (monolithic, or partitioned above the
// automatic step threshold), the beam configuration and the GA — and
// returns the best result, cancelling the losers as soon as one
// contender proves optimality.
//
// The contenders are coupled through a shared incumbent board
// (solve.Incumbent): every valid full-schedule cost a heuristic finds
// is published, and the exact DP adopts any bound tighter than its own
// between steps, so its `> incumbent` cutoffs prune harder the moment
// a heuristic gets lucky.  The exchange never changes the returned
// cost (published bounds are valid upper bounds and the cutoffs are
// strict), only how much of the state space the DP has to touch.
//
// On top of the racer sits learned dispatch (dispatch.go): a win-record
// table keyed by coarse instance features predicts the likely winner,
// and when the prediction is confident the portfolio skips the race
// and dispatches straight to it.  Races feed the table; direct
// dispatches do not (so a wrong habit cannot reinforce itself
// unobserved — low confidence always forces a fresh race eventually
// via the staleness rule).
package portfolio

import (
	"context"
	"fmt"
	"time"

	"repro/internal/mtswitch"
	"repro/internal/partition"
	"repro/internal/solve"
)

// Config shapes one race.  The zero value is NOT the default
// configuration; use Defaults().
type Config struct {
	// Exchange couples the contenders through a shared incumbent
	// board.  Off, the contenders run blind — only useful for
	// measuring what the exchange buys (paperbench gate b).
	Exchange bool
	// Table is the learned-dispatch win-record table; nil disables
	// dispatch and always races.
	Table *Table
	// MinSamples and MinShare gate direct dispatch: the predicted
	// winner must hold at least MinShare of at least MinSamples
	// recorded race wins in the instance's feature bucket.
	MinSamples int64
	MinShare   float64
	// ForceDirect names a solver to dispatch to without consulting the
	// table — the service batch mode sets it on follower requests after
	// the group leader's race has picked a winner.
	ForceDirect string
}

// Defaults is the configuration the registered "portfolio" solver
// runs with: exchange on, dispatch through the shared DefaultTable.
func Defaults() Config {
	return Config{Exchange: true, Table: DefaultTable, MinSamples: 3, MinShare: 0.8}
}

// contender is one lane of a race.
type contender struct {
	name string
	run  func(ctx context.Context) (*solve.Solution, solve.Stats, error)
}

// lane is one contender's outcome.
type lane struct {
	report solve.ContenderReport
	sol    *solve.Solution
}

// exactName picks the exact contender: the partitioned decomposition
// once the automatic planner would split the trace, the monolithic DP
// below that.
func exactName(inst *solve.Instance) string {
	if partition.AutoPartitions(inst.MT.Steps()) > 1 {
		return "exact-partitioned"
	}
	return "exact"
}

// contenders assembles the race lineup.  The GA scout evaluates on
// one worker so the race does not oversubscribe the machine; the exact
// lane's packed engine is sequential whatever the worker count.
func contenders(inst *solve.Instance, opts solve.Options) []contender {
	exact := exactName(inst)
	scout := opts
	scout.Workers = 1
	scout.Timeout = 0
	exactOpts := opts
	exactOpts.Timeout = 0

	cs := make([]contender, 0, 3)
	if exact == "exact" {
		// Drive the monolithic DP through the stepped engine so a
		// cancelled lane still surrenders the stats of the work it did.
		cs = append(cs, contender{name: "exact", run: func(ctx context.Context) (*solve.Solution, solve.Stats, error) {
			return runSteppedExact(ctx, inst, exactOpts)
		}})
	} else {
		cs = append(cs, contender{name: exact, run: func(ctx context.Context) (*solve.Solution, solve.Stats, error) {
			sol, err := solve.Run(ctx, exact, inst, exactOpts)
			if err != nil {
				return nil, solve.Stats{}, err
			}
			return sol, sol.Stats, nil
		}})
	}
	for _, name := range []string{"beam", "ga"} {
		name := name
		o := scout
		cs = append(cs, contender{name: name, run: func(ctx context.Context) (*solve.Solution, solve.Stats, error) {
			sol, err := solve.Run(ctx, name, inst, o)
			if err != nil {
				return nil, solve.Stats{}, err
			}
			return sol, sol.Stats, nil
		}})
	}
	return cs
}

// runSteppedExact runs the monolithic exact DP via the stepped engine,
// harvesting partial stats when the race cancels it mid-flight.
func runSteppedExact(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, solve.Stats, error) {
	en, err := mtswitch.NewEngine(ctx, inst.MT, inst.Cost, opts, false)
	if err != nil {
		return nil, solve.Stats{}, err
	}
	defer en.Close()
	s, err := en.Solution(ctx)
	if err != nil {
		return nil, en.Stats(), err
	}
	sol := &solve.Solution{
		Kind:    solve.KindMTSwitch,
		Cost:    s.Cost,
		Exact:   !s.Stats.Truncated,
		Stats:   s.Stats,
		MTSched: s.Schedule,
	}
	return sol, sol.Stats, nil
}

// Race runs the portfolio on one MT-Switch instance.  When the
// learned-dispatch table (or ForceDirect) confidently names a winner,
// the race collapses to that single solver (reported as a Direct
// contender); otherwise all contenders run concurrently, the first
// proven-optimal finisher cancels the rest, and the race outcome is
// recorded into the table.
func Race(ctx context.Context, inst *solve.Instance, opts solve.Options, cfg Config) (*solve.Solution, error) {
	if inst == nil || inst.Kind() != solve.KindMTSwitch || inst.MT == nil {
		return nil, fmt.Errorf("portfolio: race needs an mtswitch instance")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}

	// Learned dispatch: skip the race when the table (or the service
	// batch leader, via ForceDirect) confidently names the winner.
	var feat Features
	var haveFeat bool
	if cfg.Table != nil || cfg.ForceDirect != "" {
		feat = Extract(inst.MT)
		haveFeat = true
	}
	direct := cfg.ForceDirect
	if direct == "" && cfg.Table != nil {
		if winner, share, samples := cfg.Table.Predict(feat.Bucket()); samples >= cfg.MinSamples && share >= cfg.MinShare {
			direct = winner
		}
	}
	if direct != "" {
		return runDirect(ctx, inst, opts, cfg, direct)
	}

	sol, winner, err := race(ctx, inst, opts, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Table != nil && haveFeat && winner != "" {
		cfg.Table.Record(feat.Bucket(), winner)
	}
	return sol, nil
}

// runDirect executes the confidence shortcut: one solver, no race.
// The incumbent board is still attached (when exchange is on) so the
// exact DP keeps its warm-start publication path exercised.
func runDirect(ctx context.Context, inst *solve.Instance, opts solve.Options, cfg Config, name string) (*solve.Solution, error) {
	if cfg.Exchange {
		ctx = solve.WithIncumbent(ctx, solve.NewIncumbent())
	}
	o := opts
	o.Timeout = 0
	start := time.Now()
	sol, err := solve.Run(ctx, name, inst, o)
	if err != nil {
		return nil, err
	}
	rep := solve.ContenderReport{
		Solver:   name,
		Won:      true,
		Direct:   true,
		Finished: true,
		Cost:     sol.Cost,
		Exact:    sol.Exact,
		Stats:    sol.Stats,
		WallTime: time.Since(start),
	}
	out := *sol
	out.Contenders = []solve.ContenderReport{rep}
	return &out, nil
}

// race runs all contenders concurrently and picks the winner: a
// proven-optimal finisher if there is one (it also cancelled everyone
// else the moment it finished), otherwise the cheapest finished
// result.  It returns the winner's solution with the per-contender
// breakdown attached and every lane's stats folded into the top-level
// counters (the winner's Truncated/Degraded/Exact semantics are
// preserved — a loser's truncation must not taint an exact winner).
func race(ctx context.Context, inst *solve.Instance, opts solve.Options, cfg Config) (*solve.Solution, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Exchange {
		ctx = solve.WithIncumbent(ctx, solve.NewIncumbent())
	}
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	cs := contenders(inst, opts)
	lanes := make([]lane, len(cs))
	board := solve.IncumbentFrom(raceCtx)

	pool := solve.NewPool(len(cs))
	defer pool.Close()
	err := pool.Do(len(cs), func(i int) {
		c := cs[i]
		start := time.Now()
		sol, stats, err := c.run(raceCtx)
		rep := solve.ContenderReport{Solver: c.name, Stats: stats, WallTime: time.Since(start)}
		switch {
		case err == nil:
			rep.Finished = true
			rep.Cost = sol.Cost
			rep.Exact = sol.Exact
			lanes[i].sol = sol
			// A finished lane's cost is a valid bound for everyone
			// still running.
			board.Publish(sol.Cost)
			if sol.Exact {
				// First proven-optimal finisher: stop the losers.
				cancel()
			}
		case raceCtx.Err() != nil && ctx.Err() == nil:
			// Cancelled by the race, not by the caller: a loser, not a
			// failure.
		default:
			rep.Err = err.Error()
		}
		lanes[i].report = rep
	})
	if err != nil {
		return nil, "", err
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}

	// Pick the winner: proven-optimal beats everything; among
	// heuristics the cheapest finished cost wins (ties to the earlier
	// lane, i.e. the exact lane's truncated upper bound).
	win := -1
	for i := range lanes {
		if lanes[i].sol == nil {
			continue
		}
		if win < 0 {
			win = i
			continue
		}
		a, b := lanes[i].sol, lanes[win].sol
		if (a.Exact && !b.Exact) || (a.Exact == b.Exact && a.Cost < b.Cost) {
			win = i
		}
	}
	if win < 0 {
		for i := range lanes {
			if e := lanes[i].report.Err; e != "" {
				return nil, "", fmt.Errorf("portfolio: all contenders failed; first: %s: %s", lanes[i].report.Solver, e)
			}
		}
		return nil, "", fmt.Errorf("portfolio: no contender finished")
	}
	lanes[win].report.Won = true

	out := *lanes[win].sol
	stats := out.Stats
	for i := range lanes {
		if i == win {
			continue
		}
		stats.Add(lanes[i].report.Stats)
	}
	// Stats.Add ORs Truncated/Degraded; the race's exactness is the
	// winner's alone.
	stats.Truncated = out.Stats.Truncated
	stats.Degraded = out.Stats.Degraded
	out.Stats = stats
	out.Contenders = make([]solve.ContenderReport, len(lanes))
	for i := range lanes {
		out.Contenders[i] = lanes[i].report
	}
	return &out, lanes[win].report.Solver, nil
}

func init() {
	solve.Register(solve.NewSolver("portfolio",
		solve.Capabilities{Kinds: []solve.Kind{solve.KindMTSwitch}},
		func(ctx context.Context, inst *solve.Instance, opts solve.Options) (*solve.Solution, error) {
			cfg := Defaults()
			if d, ok := directFrom(ctx); ok {
				cfg.ForceDirect = d
			}
			return Race(ctx, inst, opts, cfg)
		}))
}

// directKey carries a batch-mode dispatch override in the context.
type directKey struct{}

// WithDirect returns a context that forces the portfolio solver to
// dispatch straight to the named solver — the service batch mode sets
// it on follower requests once their group leader's race has picked a
// winner.
func WithDirect(ctx context.Context, solver string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, directKey{}, solver)
}

func directFrom(ctx context.Context) (string, bool) {
	if ctx == nil {
		return "", false
	}
	s, ok := ctx.Value(directKey{}).(string)
	return s, ok && s != ""
}
