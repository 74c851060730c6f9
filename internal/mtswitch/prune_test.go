package mtswitch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// withPG randomly decorates an instance with a public-global context
// size and a base cost, so the pruning bound's public-global terms are
// exercised alongside the zero-default path.
func withPG(r *rand.Rand, ins *model.MTSwitchInstance) *model.MTSwitchInstance {
	ins.PublicGlobal = r.Intn(3)
	ins.W = model.Cost(r.Intn(5))
	return ins
}

// TestPrunedMatchesReferenceCost is the exactness property test of the
// pruned layer: on unbudgeted runs the pruned engine's cost must equal
// SolveExactReference's optimum for every upload mode and worker count,
// and the returned schedule must be valid and priced at that cost.
func TestPrunedMatchesReferenceCost(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(41))
	instances := []*model.MTSwitchInstance{phased(t)}
	for k := 0; k < 16; k++ {
		instances = append(instances, withPG(r, randomMT(r, 3, 5, 7)))
	}
	for ii, ins := range instances {
		for _, opt := range frontierOpts {
			ref, err := SolveExactReference(ctx, ins, opt, solve.Options{})
			if err != nil {
				t.Fatalf("instance %d: reference: %v", ii, err)
			}
			for _, workers := range agreementWorkers {
				got, err := SolveExact(ctx, ins, opt, solve.Options{Workers: workers})
				if err != nil {
					t.Fatalf("instance %d workers %d: %v", ii, workers, err)
				}
				if got.Cost != ref.Cost {
					t.Fatalf("instance %d opt %+v workers %d: pruned cost %d, reference optimum %d",
						ii, opt, workers, got.Cost, ref.Cost)
				}
				if err := ins.Validate(got.Schedule); err != nil {
					t.Fatalf("instance %d workers %d: invalid schedule: %v", ii, workers, err)
				}
				st := got.Stats
				if st.StatesPruned != st.DominanceHits+st.BoundCutoffs {
					t.Fatalf("instance %d: StatesPruned %d != DominanceHits %d + BoundCutoffs %d",
						ii, st.StatesPruned, st.DominanceHits, st.BoundCutoffs)
				}
			}
		}
	}
}

// TestPrunedBudgetedDeterministic pins the determinism contract under
// pruning + beam truncation: every worker count returns bit-identical
// schedules, and the (possibly truncated) cost never beats the true
// optimum.
func TestPrunedBudgetedDeterministic(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(83))
	for k := 0; k < 8; k++ {
		ins := withPG(r, randomMT(r, 4, 6, 8))
		for _, opt := range frontierOpts {
			ref, err := SolveExactReference(ctx, ins, opt, solve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			base, err := SolveExact(ctx, ins, opt, solve.Options{Workers: 1, MaxStates: 4})
			if err != nil {
				t.Fatal(err)
			}
			if base.Cost < ref.Cost {
				t.Fatalf("instance %d: truncated pruned cost %d beats optimum %d", k, base.Cost, ref.Cost)
			}
			if err := ins.Validate(base.Schedule); err != nil {
				t.Fatalf("instance %d: invalid schedule: %v", k, err)
			}
			for _, workers := range agreementWorkers[1:] {
				got, err := SolveExact(ctx, ins, opt, solve.Options{Workers: workers, MaxStates: 4})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != base.Cost || !sameSchedule(t, got.Schedule, base.Schedule) {
					t.Fatalf("instance %d workers %d diverges from workers 1 under pruned beam", k, workers)
				}
			}
		}
	}
}

// TestPrunedExpandsFewerStates is the headline perf property: on the
// structured phased instance the pruned engine must expand strictly
// fewer states than the exhaustive engine, and report the reduction in
// its counters.
func TestPrunedExpandsFewerStates(t *testing.T) {
	ctx := context.Background()
	ins := phased(t)
	plain, err := SolveExact(ctx, ins, parallel, solve.Options{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := SolveExact(ctx, ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Cost != plain.Cost {
		t.Fatalf("pruned cost %d != exhaustive cost %d", pruned.Cost, plain.Cost)
	}
	if pruned.Stats.StatesExpanded >= plain.Stats.StatesExpanded {
		t.Fatalf("pruned expanded %d states, exhaustive %d — no reduction",
			pruned.Stats.StatesExpanded, plain.Stats.StatesExpanded)
	}
	if pruned.Stats.StatesPruned == 0 {
		t.Fatal("StatesPruned = 0 on a structured instance")
	}
}

// TestStepDuplicatedRLEAgreement targets the run-length compression
// proof obligation directly: duplicating every step k times makes every
// instance maximally compressible, and the pruned (compressed) optimum
// must still equal the exhaustive optimum for every upload mode —
// including max-composed hyper uploads, where the exchange argument is
// subtlest.
func TestStepDuplicatedRLEAgreement(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(67))
	for k := 0; k < 12; k++ {
		base := randomMT(r, 3, 5, 4)
		dup := duplicateSteps(t, base, 2+r.Intn(2))
		withPG(r, dup)
		for _, opt := range frontierOpts {
			plain, err := SolveExact(ctx, dup, opt, solve.Options{DisablePruning: true})
			if err != nil {
				t.Fatal(err)
			}
			pruned, err := SolveExact(ctx, dup, opt, solve.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if pruned.Cost != plain.Cost {
				t.Fatalf("instance %d opt %+v: pruned cost %d != exhaustive %d on step-duplicated instance",
					k, opt, pruned.Cost, plain.Cost)
			}
			if pruned.Stats.PreprocessReduction <= 0 {
				t.Fatalf("instance %d: PreprocessReduction = %d on a fully duplicated instance",
					k, pruned.Stats.PreprocessReduction)
			}
			if err := dup.Validate(pruned.Schedule); err != nil {
				t.Fatalf("instance %d: invalid schedule: %v", k, err)
			}
		}
	}
}

// duplicateSteps repeats every step of ins `extra`+1 times.
func duplicateSteps(t *testing.T, ins *model.MTSwitchInstance, times int) *model.MTSwitchInstance {
	t.Helper()
	m, n := ins.NumTasks(), ins.Steps()
	rows := make([][]bitset.Set, m)
	for j := 0; j < m; j++ {
		rows[j] = make([]bitset.Set, 0, n*times)
		for i := 0; i < n; i++ {
			for k := 0; k < times; k++ {
				rows[j] = append(rows[j], ins.Reqs[j][i].Clone())
			}
		}
	}
	tasks := make([]model.Task, m)
	copy(tasks, ins.Tasks)
	return mustMT(t, tasks, rows)
}

// duplicateColumns gives every switch column of every task one to
// three adjacent copies, so duplicate-column grouping has weights above
// 1 to price.
func duplicateColumns(t testing.TB, ins *model.MTSwitchInstance, r *rand.Rand) *model.MTSwitchInstance {
	t.Helper()
	m, n := ins.NumTasks(), ins.Steps()
	tasks := make([]model.Task, m)
	rows := make([][]bitset.Set, m)
	for j := 0; j < m; j++ {
		// first[c] is the first copy of column c; copies are adjacent.
		first := make([]int, ins.Tasks[j].Local+1)
		for c := 0; c < ins.Tasks[j].Local; c++ {
			first[c+1] = first[c] + 1 + r.Intn(3)
		}
		tasks[j] = ins.Tasks[j]
		tasks[j].Local = first[ins.Tasks[j].Local]
		rows[j] = make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			s := bitset.New(tasks[j].Local)
			ins.Reqs[j][i].ForEach(func(c int) {
				for k := first[c]; k < first[c+1]; k++ {
					s.Add(k)
				}
			})
			rows[j][i] = s
		}
	}
	return mustMT(t, tasks, rows)
}

// TestPrunedProjectionBoundAdmissible checks the pruned layer's
// remaining-cost bound against optimal schedules.  Each generated
// instance also runs as a step-duplicated and a column-duplicated twin,
// so run multiplicities and column weights enter the projection tables.
// Per instance and frontier upload mode, the pruned optimum must equal
// the exhaustive one, and at every step t of the axis the DP runs on,
// the cost the optimal schedule paid before t plus sufLB[t] must not
// exceed the optimum.
func TestPrunedProjectionBoundAdmissible(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(29))
	gens := []struct {
		name string
		gen  func(seed int64) (*model.MTSwitchInstance, error)
	}{
		{"phased", func(seed int64) (*model.MTSwitchInstance, error) {
			return workload.Phased(workload.Config{Tasks: 2, Steps: 48, Switches: 10, MeanPhase: 8, Seed: seed})
		}},
		{"dense", func(seed int64) (*model.MTSwitchInstance, error) {
			return workload.Dense(workload.Config{Tasks: 3, Steps: 24, Switches: 8, MeanPhase: 6, Seed: seed})
		}},
		{"blocked", func(seed int64) (*model.MTSwitchInstance, error) {
			return workload.Blocked(workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8, Seed: seed})
		}},
		{"streaming", func(seed int64) (*model.MTSwitchInstance, error) {
			st, err := workload.Streaming(workload.StreamConfig{Generator: "markov",
				Workload: workload.Config{Tasks: 2, Steps: 32, Switches: 8, MeanPhase: 6, Seed: seed}})
			if err != nil {
				return nil, err
			}
			return st.Instance, nil
		}},
	}
	for _, g := range gens {
		for seed := int64(1); seed <= 2; seed++ {
			base, err := g.gen(seed)
			if err != nil {
				t.Fatal(err)
			}
			twins := []*model.MTSwitchInstance{base, duplicateSteps(t, base, 2+r.Intn(2)), duplicateColumns(t, base, r)}
			for k, ins := range twins {
				withPG(r, ins)
				for oi, opt := range frontierOpts {
					name := fmt.Sprintf("%s seed %d twin %d opt %d", g.name, seed, k, oi)
					checkProjectionBound(t, ctx, ins, opt, name)
				}
			}
		}
	}
}

// checkProjectionBound runs one instance pruned and unpruned and checks
// the pruned engine's sufLB along the optimal schedule.
func checkProjectionBound(t *testing.T, ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, name string) {
	t.Helper()
	plain, err := SolveExact(ctx, ins, opt, solve.Options{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	en, err := NewEngine(ctx, ins, opt, solve.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	sol, err := en.Solution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != plain.Cost {
		t.Fatalf("%s: pruned cost %d, exhaustive %d", name, sol.Cost, plain.Cost)
	}
	hyper, reconf, err := ins.StepCosts(sol.Schedule, opt)
	if err != nil {
		t.Fatal(err)
	}
	paid, i := ins.W, 0
	for step := 0; step <= en.target.Steps(); step++ {
		for start := en.originalStep(step); i < start; i++ {
			paid += hyper[i] + reconf[i]
		}
		if lb := en.e.sufLB[step]; paid+lb > sol.Cost {
			t.Fatalf("%s: at step %d (original %d) the optimum paid %d and sufLB is %d, above the optimum %d",
				name, step, i, paid, lb, sol.Cost)
		}
	}
}

// denseStress is the workload/budget pair behind EXPERIMENTS.md E17: a
// block-structured dense instance whose unpruned peak frontier (~3700
// packed states) breaches a 128 KiB arena budget (~2000 states), while
// the pruned frontier (<1000 states) fits with room to spare.
func denseStress(t *testing.T) *model.MTSwitchInstance {
	t.Helper()
	ins, err := workload.Dense(workload.Config{Tasks: 4, Steps: 48, Switches: 24, Density: 0.5, MeanPhase: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

const denseStressBudget = 128 << 10

// TestBudgetDroppedReported checks the new degradation counter: a run
// forced into a beam by MaxFrontierBytes must report how many states
// the budget discarded.
func TestBudgetDroppedReported(t *testing.T) {
	sol, err := SolveExact(context.Background(), denseStress(t), parallel,
		solve.Options{DisablePruning: true, MaxFrontierBytes: denseStressBudget})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Degraded {
		t.Fatal("budget did not force degradation on the dense stress workload")
	}
	if sol.Stats.BudgetDropped <= 0 {
		t.Fatalf("Degraded run reports BudgetDropped = %d, want > 0", sol.Stats.BudgetDropped)
	}
}

// TestDenseBudgetNowExact pins the issue's acceptance scenario: a dense
// workload whose unpruned frontier breaches a byte budget (degrading to
// a beam) is solved exactly by the pruned engine inside the very same
// budget.
func TestDenseBudgetNowExact(t *testing.T) {
	ins := denseStress(t)
	const budget = denseStressBudget
	ctx := context.Background()
	plain, err := SolveExact(ctx, ins, parallel,
		solve.Options{DisablePruning: true, MaxFrontierBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Stats.Degraded {
		t.Fatalf("unpruned run not degraded under %d-byte budget; workload no longer stresses the budget", budget)
	}
	pruned, err := SolveExact(ctx, ins, parallel, solve.Options{MaxFrontierBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.Degraded || pruned.Stats.Truncated {
		t.Fatalf("pruned run still degraded (Degraded=%t Truncated=%t) under the same budget",
			pruned.Stats.Degraded, pruned.Stats.Truncated)
	}
	exact, err := SolveExact(ctx, ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Cost != exact.Cost {
		t.Fatalf("pruned budgeted cost %d != unbudgeted optimum %d", pruned.Cost, exact.Cost)
	}
	if plain.Cost < pruned.Cost {
		t.Fatalf("degraded beam cost %d beats pruned exact cost %d", plain.Cost, pruned.Cost)
	}
}

// FuzzPruningAgreement feeds arbitrary small instances through both
// engines and requires identical optimal costs — the soundness net for
// every interaction of preprocessing, dominance and bounds.
func FuzzPruningAgreement(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(4), uint8(0), uint8(0))
	f.Add(int64(7), uint8(3), uint8(4), uint8(5), uint8(1), uint8(1))
	f.Add(int64(99), uint8(1), uint8(2), uint8(6), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, maxM, maxL, maxN, mode, twin uint8) {
		m := 1 + int(maxM)%3
		l := 1 + int(maxL)%5
		n := 1 + int(maxN)%6
		r := rand.New(rand.NewSource(seed))
		ins := randomMT(r, m, l, n)
		// Step- and column-duplicated twins give the pruned engine
		// nontrivial run multiplicities and column weights.
		switch twin % 3 {
		case 1:
			ins = duplicateSteps(t, ins, 2+r.Intn(2))
		case 2:
			ins = duplicateColumns(t, ins, r)
		}
		withPG(r, ins)
		opt := frontierOpts[int(mode)%len(frontierOpts)]
		ctx := context.Background()
		plain, err := SolveExact(ctx, ins, opt, solve.Options{DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := SolveExact(ctx, ins, opt, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.Cost != plain.Cost {
			t.Fatalf("pruning changed the optimum: %d (pruned) vs %d (exhaustive), opt %+v",
				pruned.Cost, plain.Cost, opt)
		}
		if err := ins.Validate(pruned.Schedule); err != nil {
			t.Fatalf("invalid pruned schedule: %v", err)
		}
	})
}
