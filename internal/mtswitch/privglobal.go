package mtswitch

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// PrivateGlobalInstance extends a fully synchronized MT-Switch instance
// with private global resources: G switches shared between tasks.  A
// global hyperreconfiguration (cost W, barrier-synchronized, all local
// hypercontexts and contexts invalidated afterwards) assigns disjoint
// portions of the private switches to the tasks; between two global
// hyperreconfigurations each task may make its assigned private
// switches available through local hyperreconfigurations exactly like
// additional local switches (h^priv_j ⊆ h_j), and the reconfiguration
// cost of a task is |h^loc_j| + |h^priv_j|.
type PrivateGlobalInstance struct {
	// Base holds the tasks and their local requirement sequences.
	Base *model.MTSwitchInstance
	// G is the number of private global switches.
	G int
	// PrivReqs[j][i] is task j's private-global requirement at step i,
	// a subset of {0..G-1}.
	PrivReqs [][]bitset.Set
	// W is the cost of one global hyperreconfiguration.  The paper's
	// typical special case is W = |X^loc| + |X^priv|.
	W model.Cost
}

// NewPrivateGlobalInstance validates shapes and universes.
func NewPrivateGlobalInstance(base *model.MTSwitchInstance, g int, privReqs [][]bitset.Set, w model.Cost) (*PrivateGlobalInstance, error) {
	if base == nil {
		return nil, fmt.Errorf("mtswitch: nil base instance")
	}
	if g < 0 {
		return nil, fmt.Errorf("mtswitch: negative private switch count")
	}
	if w <= 0 {
		return nil, fmt.Errorf("mtswitch: global hyperreconfiguration cost must be positive")
	}
	m, n := base.NumTasks(), base.Steps()
	if len(privReqs) != m {
		return nil, fmt.Errorf("mtswitch: %d private requirement rows for %d tasks", len(privReqs), m)
	}
	for j := 0; j < m; j++ {
		if len(privReqs[j]) != n {
			return nil, fmt.Errorf("mtswitch: task %q has %d private steps, want %d", base.Tasks[j].Name, len(privReqs[j]), n)
		}
		for i, r := range privReqs[j] {
			if r.Universe() != g {
				return nil, fmt.Errorf("mtswitch: task %q private requirement %d over universe %d, want %d", base.Tasks[j].Name, i, r.Universe(), g)
			}
		}
	}
	return &PrivateGlobalInstance{Base: base, G: g, PrivReqs: privReqs, W: w}, nil
}

// PGSolution is a solved private-global schedule: the steps at which
// global hyperreconfigurations happen (always including 0), the
// per-window local solutions over the extended (local + private)
// universes, and the total cost.
type PGSolution struct {
	// GlobalStarts are the steps immediately preceded by a global
	// hyperreconfiguration.
	GlobalStarts []int
	// Windows[k] is the schedule of window k over extended universes
	// (task j's switches are its Local ones followed by its private
	// union for that window).
	Windows []*Solution
	Cost    model.Cost
	// Stats aggregates the window solves; Stats.Truncated mirrors
	// Solution.Stats.Truncated across all selected windows.
	Stats solve.Stats
}

// SolvePrivateGlobal chooses global hyperreconfiguration windows by an
// outer O(n²) DP and prices each window with the given local solver
// configuration.  Within a window [a,b) task j's private assignment is
// the union of its private requirements over the window (the smallest
// feasible assignment); the window is feasible only if those unions are
// pairwise disjoint — otherwise two tasks would own the same private
// switch simultaneously.  The window's scheduling problem is the plain
// fully synchronized MT-Switch problem with each task's universe
// extended by its private assignment, solved by SolveExact.
//
// If even single-step windows are infeasible at some step (two tasks
// demand the same private switch at the same time), no schedule exists
// and an error is returned.
func SolvePrivateGlobal(ctx context.Context, ins *PrivateGlobalInstance, opt model.CostOptions, o solve.Options) (*PGSolution, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("mtswitch: nil instance")
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	m, n := ins.Base.NumTasks(), ins.Base.Steps()
	if n == 0 {
		return &PGSolution{Cost: 0}, nil
	}

	// All O(n²) windows are independent, so the sweep fans out across
	// the shared solve.Pool: pool task w handles window rows a ≡ w (mod
	// workers); within a row, private unions extend incrementally as
	// the window end grows.  The packed engine is sequential, so each
	// inner SolveExact runs on the pool goroutine that owns its row and
	// the sweep is the only parallel level.
	type windowResult struct {
		cost     model.Cost
		feasible bool
		sol      *Solution
	}
	window := make([][]windowResult, n+1) // window[a][b]
	pool := solve.NewPool(o.Workers)
	defer pool.Close()
	workers := pool.Workers()
	if workers > n {
		workers = n
	}
	var (
		errOnce  sync.Once
		sweepErr error
	)
	poolErr := pool.Do(workers, func(w int) {
		for a := w; a < n; a += workers {
			row := make([]windowResult, n+1)
			unions := make([]bitset.Set, m)
			for j := range unions {
				unions[j] = bitset.New(ins.G)
			}
			for b := a + 1; b <= n; b++ {
				// Extend private unions with step b-1 and check
				// pairwise disjointness of the assignments.
				for j := 0; j < m; j++ {
					unions[j].UnionWith(ins.PrivReqs[j][b-1])
				}
				feasible := true
				for j1 := 0; j1 < m && feasible; j1++ {
					for j2 := j1 + 1; j2 < m; j2++ {
						if !unions[j1].Intersect(unions[j2]).IsEmpty() {
							feasible = false
							break
						}
					}
				}
				if !feasible {
					continue
				}
				if err := solve.Checkpoint(ctx); err != nil {
					errOnce.Do(func() { sweepErr = err })
					return
				}
				sub, err := extendedWindowInstance(ins, a, b, unions)
				if err != nil {
					errOnce.Do(func() { sweepErr = err })
					return
				}
				sol, err := SolveExact(ctx, sub, opt, o)
				if err != nil {
					errOnce.Do(func() { sweepErr = err })
					return
				}
				row[b] = windowResult{cost: ins.W + sol.Cost, feasible: true, sol: sol}
			}
			window[a] = row
		}
	})
	if poolErr != nil {
		// A panic inside a window solve: the pool isolated it to this
		// sweep, surfaced as a typed *solve.PanicError.
		return nil, poolErr
	}
	if sweepErr != nil {
		return nil, sweepErr
	}

	// Outer DP over window boundaries.
	d := make([]model.Cost, n+1)
	parent := make([]int, n+1)
	for b := 1; b <= n; b++ {
		d[b] = infCost
		parent[b] = -1
		for a := 0; a < b; a++ {
			if !window[a][b].feasible || d[a] >= infCost {
				continue
			}
			if c := d[a] + window[a][b].cost; c < d[b] {
				d[b] = c
				parent[b] = a
			}
		}
	}
	if d[n] >= infCost {
		return nil, fmt.Errorf("mtswitch: no feasible global windowing (conflicting private requirements at some step)")
	}

	var starts []int
	for b := n; b > 0; b = parent[b] {
		starts = append(starts, parent[b])
	}
	for i, j := 0, len(starts)-1; i < j; i, j = i+1, j-1 {
		starts[i], starts[j] = starts[j], starts[i]
	}
	out := &PGSolution{GlobalStarts: starts, Cost: d[n]}
	for k, a := range starts {
		b := n
		if k+1 < len(starts) {
			b = starts[k+1]
		}
		out.Windows = append(out.Windows, window[a][b].sol)
		out.Stats.Add(window[a][b].sol.Stats)
	}
	return out, nil
}

// extendedWindowInstance builds the window's MT-Switch subproblem: task
// j's universe becomes Local + |assignment_j|, with private requirement
// bits remapped onto the extension.  The per-task local
// hyperreconfiguration cost follows the paper's typical special case
// v_j = |h_j| + |f_j^loc| = assignment size + local size.
func extendedWindowInstance(ins *PrivateGlobalInstance, a, b int, assign []bitset.Set) (*model.MTSwitchInstance, error) {
	m := ins.Base.NumTasks()
	tasks := make([]model.Task, m)
	reqRows := make([][]bitset.Set, m)
	for j := 0; j < m; j++ {
		members := assign[j].Members()
		remap := make(map[int]int, len(members))
		for idx, sw := range members {
			remap[sw] = ins.Base.Tasks[j].Local + idx
		}
		ext := ins.Base.Tasks[j].Local + len(members)
		tasks[j] = model.Task{
			Name:  ins.Base.Tasks[j].Name,
			Local: ext,
			V:     model.Cost(ins.Base.Tasks[j].Local + len(members)),
		}
		rows := make([]bitset.Set, 0, b-a)
		for i := a; i < b; i++ {
			s := bitset.New(ext)
			ins.Base.Reqs[j][i].ForEach(func(sw int) { s.Add(sw) })
			ins.PrivReqs[j][i].ForEach(func(sw int) { s.Add(remap[sw]) })
			rows = append(rows, s)
		}
		reqRows[j] = rows
	}
	return model.NewMTSwitchInstance(tasks, reqRows)
}
