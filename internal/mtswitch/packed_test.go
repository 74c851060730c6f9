package mtswitch

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// agreementWorkers are the worker counts the parallel engine must be
// byte-identical across (the issue's Workers ∈ {1, 2, 8} matrix).
var agreementWorkers = []int{1, 2, 8}

// frontierOpts are the upload-mode combinations that exercise the
// frontier engine (fully task-sequential costs take the decomposed
// fast path instead and never reach it).
var frontierOpts = []model.CostOptions{
	{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel},
	{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskSequential},
	{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskParallel},
}

func sameSchedule(t *testing.T, a, b *model.MTSchedule) bool {
	t.Helper()
	if len(a.Hyper) != len(b.Hyper) {
		return false
	}
	for j := range a.Hyper {
		for i := range a.Hyper[j] {
			if a.Hyper[j][i] != b.Hyper[j][i] {
				return false
			}
			if !a.Hctx[j][i].Equal(b.Hctx[j][i]) {
				return false
			}
		}
	}
	return true
}

// TestPackedMatchesReference drives the packed engine against the
// retained pointer-and-map reference implementation: identical cost and
// identical schedule for every worker count, on the fixed demonstration
// instance and a batch of random ones, both exact and beam-truncated.
func TestPackedMatchesReference(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(7))
	instances := []*model.MTSwitchInstance{phased(t)}
	for k := 0; k < 12; k++ {
		instances = append(instances, randomMT(r, 3, 5, 6))
	}
	// DisablePruning keeps the strict frontier-for-frontier comparison
	// with the reference meaningful (the pruned layer expands fewer
	// states by design; prune_test.go covers its agreement separately).
	budgets := []solve.Options{
		{DisablePruning: true},               // exact within DefaultMaxStates
		{DisablePruning: true, MaxStates: 3}, // aggressive beam truncation
		{DisablePruning: true, MaxStates: 50, MaxCandidates: 2},
	}
	for ii, ins := range instances {
		for _, opt := range frontierOpts {
			for _, base := range budgets {
				ref, err := SolveExactReference(ctx, ins, opt, base)
				if err != nil {
					t.Fatalf("instance %d: reference: %v", ii, err)
				}
				for _, workers := range agreementWorkers {
					o := base
					o.Workers = workers
					got, err := SolveExact(ctx, ins, opt, o)
					if err != nil {
						t.Fatalf("instance %d workers %d: packed: %v", ii, workers, err)
					}
					if got.Cost != ref.Cost {
						t.Fatalf("instance %d opt %+v budget %+v workers %d: packed cost %d, reference %d",
							ii, opt, base, workers, got.Cost, ref.Cost)
					}
					if !sameSchedule(t, got.Schedule, ref.Schedule) {
						t.Fatalf("instance %d opt %+v budget %+v workers %d: packed schedule differs from reference",
							ii, opt, base, workers)
					}
					if got.Stats.Truncated != ref.Stats.Truncated {
						t.Fatalf("instance %d workers %d: truncated %t vs reference %t",
							ii, workers, got.Stats.Truncated, ref.Stats.Truncated)
					}
					// Factored expansion generates fewer successors than
					// the reference's per-source expansion, but exactly the
					// same distinct ones.
					if d, want := got.Stats.StatesExpanded-got.Stats.DedupHits, ref.Stats.StatesExpanded-ref.Stats.DedupHits; d != want {
						t.Fatalf("instance %d workers %d: %d distinct successors, reference %d", ii, workers, d, want)
					}
					if got.Stats.StatesExpanded > ref.Stats.StatesExpanded {
						t.Fatalf("instance %d workers %d: expanded %d states, more than the reference's %d",
							ii, workers, got.Stats.StatesExpanded, ref.Stats.StatesExpanded)
					}
					if err := ins.Validate(got.Schedule); err != nil {
						t.Fatalf("instance %d workers %d: invalid schedule: %v", ii, workers, err)
					}
				}
			}
		}
	}
}

// TestPackedWorkerCountsAgree pins the determinism claim directly:
// every worker count yields the same schedule under heavy truncation,
// where any order-dependence in dedup or the beam cut would show.
func TestPackedWorkerCountsAgree(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(99))
	for k := 0; k < 8; k++ {
		ins := randomMT(r, 4, 6, 8)
		for _, opt := range frontierOpts {
			base, err := SolveExact(ctx, ins, opt, solve.Options{Workers: 1, MaxStates: 5, DisablePruning: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range agreementWorkers[1:] {
				got, err := SolveExact(ctx, ins, opt, solve.Options{Workers: workers, MaxStates: 5, DisablePruning: true})
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != base.Cost || !sameSchedule(t, got.Schedule, base.Schedule) {
					t.Fatalf("instance %d workers %d diverges from workers 1", k, workers)
				}
			}
		}
	}
}

// TestPackedZeroUniverseTask covers the degenerate stride: a task with
// no local switches contributes zero words to the packed vector.
func TestPackedZeroUniverseTask(t *testing.T) {
	tasks := []model.Task{
		{Name: "empty", Local: 0, V: 1},
		{Name: "real", Local: 3, V: 3},
	}
	rows := [][]bitset.Set{
		reqs(0, nil, nil, nil),
		reqs(3, []int{0}, []int{1}, []int{0, 2}),
	}
	ins := mustMT(t, tasks, rows)
	for _, workers := range agreementWorkers {
		got, err := SolveExact(context.Background(), ins, parallel, solve.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		ref, err := SolveExactReference(context.Background(), ins, parallel, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != ref.Cost {
			t.Fatalf("workers %d: cost %d, reference %d", workers, got.Cost, ref.Cost)
		}
	}
}

// TestPackedStats checks the counters are populated and consistent with
// the reference: the same distinct successors (expanded − dedup hits)
// from no more expanded states, and the same peak frontier.
func TestPackedStats(t *testing.T) {
	ins := phased(t)
	sol, err := SolveExact(context.Background(), ins, parallel, solve.Options{Workers: 2, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.StatesExpanded <= 0 {
		t.Fatalf("StatesExpanded = %d, want > 0", st.StatesExpanded)
	}
	if st.PeakFrontier <= 0 {
		t.Fatalf("PeakFrontier = %d, want > 0", st.PeakFrontier)
	}
	if st.DedupHits < 0 || st.DedupHits >= st.StatesExpanded {
		t.Fatalf("DedupHits = %d out of range [0, %d)", st.DedupHits, st.StatesExpanded)
	}
	ref, err := SolveExactReference(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d, want := st.StatesExpanded-st.DedupHits, ref.Stats.StatesExpanded-ref.Stats.DedupHits; d != want {
		t.Fatalf("distinct successors = %d, reference %d", d, want)
	}
	if st.StatesExpanded > ref.Stats.StatesExpanded {
		t.Fatalf("StatesExpanded = %d, more than the reference's %d", st.StatesExpanded, ref.Stats.StatesExpanded)
	}
	if st.PeakFrontier != ref.Stats.PeakFrontier {
		t.Fatalf("PeakFrontier = %d, reference %d", st.PeakFrontier, ref.Stats.PeakFrontier)
	}
}

// TestStateTableCollision forces two distinct vectors onto one 64-bit
// hash and checks the table keeps them as separate entries via the
// full-vector compare, while true duplicates still merge cheapest-wins.
func TestStateTableCollision(t *testing.T) {
	lay := layout{m: 1, taskOff: []int{0}, taskWords: []int{1}, setWords: 1, hyperWords: 1}
	tbl := &stateTable{hashFn: func([]uint64) uint64 { return 0xdeadbeef }}
	tbl.configure(lay)

	a := []uint64{0b1010, 1} // set word + hyper word
	b := []uint64{0b0101, 1}
	if !tbl.insert(a, tbl.hashFn(a[:1]), 10, 0) {
		t.Fatal("first vector not new")
	}
	if !tbl.insert(b, tbl.hashFn(b[:1]), 20, 0) {
		t.Fatal("colliding distinct vector merged into the first entry")
	}
	if tbl.len() != 2 {
		t.Fatalf("table has %d entries, want 2", tbl.len())
	}

	// A true duplicate of a, cheaper: merges, updates cost and origin.
	a2 := []uint64{0b1010, 0}
	if tbl.insert(a2, tbl.hashFn(a2[:1]), 5, 1) {
		t.Fatal("duplicate vector treated as new")
	}
	if tbl.len() != 2 {
		t.Fatalf("table has %d entries after dup, want 2", tbl.len())
	}
	if tbl.costs[0] != 5 || tbl.prevs[0] != 1 {
		t.Fatalf("winner not recorded: cost=%d prev=%d", tbl.costs[0], tbl.prevs[0])
	}
	if tbl.entry(0)[1] != 0 {
		t.Fatal("winner's hyper words not overwritten")
	}

	// An equally-cheap duplicate arriving from a later origin loses.
	if tbl.insert(a, tbl.hashFn(a[:1]), 5, 2) {
		t.Fatal("duplicate vector treated as new")
	}
	if tbl.prevs[0] != 1 {
		t.Fatalf("tie broken toward later origin: prev=%d", tbl.prevs[0])
	}
}

// TestStateTableGrowKeepsEntries fills the table past its growth
// threshold under a constant hash — the worst case: one long probe
// chain that must survive the bucket rebuild.
func TestStateTableGrowKeepsEntries(t *testing.T) {
	lay := layout{m: 1, taskOff: []int{0}, taskWords: []int{2}, setWords: 2, hyperWords: 1}
	tbl := &stateTable{hashFn: func([]uint64) uint64 { return 7 }}
	tbl.configure(lay)
	const total = 200
	for i := 0; i < total; i++ {
		v := []uint64{uint64(i), uint64(i) << 32, 0}
		if !tbl.insert(v, tbl.hashFn(v[:2]), model.Cost(i), 0) {
			t.Fatalf("vector %d not new", i)
		}
	}
	if tbl.len() != total {
		t.Fatalf("table has %d entries, want %d", tbl.len(), total)
	}
	// Every vector must still be findable (insert reports a duplicate).
	for i := 0; i < total; i++ {
		v := []uint64{uint64(i), uint64(i) << 32, 0}
		if tbl.insert(v, tbl.hashFn(v[:2]), model.Cost(i), 0) {
			t.Fatalf("vector %d lost across growth", i)
		}
	}
}

// TestKeyTableOverflowStaysExact caps the factored expansion's key
// table at one entry, so nearly every install pattern is expanded by
// every source that reaches it, as in full expansion.  The frontiers
// must match an uncapped engine's step for step, with no degradation:
// a full key table costs work, never exactness.
func TestKeyTableOverflowStaysExact(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(17))
	instances := []*model.MTSwitchInstance{phased(t)}
	for k := 0; k < 8; k++ {
		instances = append(instances, withPG(r, randomMT(r, 4, 6, 10)))
	}
	o := solve.Options{DisablePruning: true}
	for ii, ins := range instances {
		for oi, opt := range frontierOpts {
			full, capped := &engine{}, &engine{}
			if err := full.beginSolve(ctx, ins, opt, o, nil); err != nil {
				t.Fatal(err)
			}
			if err := capped.beginSolve(ctx, ins, opt, o, nil); err != nil {
				t.Fatal(err)
			}
			capped.keys.limit = 1
			sw := full.lay.setWords
			for full.step < ins.Steps() {
				if err := full.stepOnce(ctx); err != nil {
					t.Fatal(err)
				}
				if err := capped.stepOnce(ctx); err != nil {
					t.Fatal(err)
				}
				fg, cg := full.gens[full.step-1], capped.gens[capped.step-1]
				if capped.count != full.count ||
					!slices.Equal(capped.slab[:capped.count*sw], full.slab[:full.count*sw]) ||
					!slices.Equal(capped.costs[:capped.count], full.costs[:full.count]) ||
					!slices.Equal(cg.prev, fg.prev) || !slices.Equal(cg.hyper, fg.hyper) {
					t.Fatalf("instance %d opt %d step %d: capped key table changed the frontier", ii, oi, full.step)
				}
			}
			cs, fs := capped.stats, full.stats
			if cs.Degraded || cs.Truncated || cs.BudgetDropped != 0 {
				t.Fatalf("instance %d opt %d: capped key table degraded the run: %+v", ii, oi, cs)
			}
			if cs.StatesExpanded-cs.DedupHits != fs.StatesExpanded-fs.DedupHits || cs.StatesExpanded < fs.StatesExpanded {
				t.Fatalf("instance %d opt %d: capped expanded %d (distinct %d), uncapped %d (distinct %d)", ii, oi,
					cs.StatesExpanded, cs.StatesExpanded-cs.DedupHits, fs.StatesExpanded, fs.StatesExpanded-fs.DedupHits)
			}
		}
	}
}

// TestExpansionPanicIsolated makes the successor table's hash panic
// mid-step: the step must fail with a *solve.PanicError carrying the
// panic value instead of unwinding through the caller.
func TestExpansionPanicIsolated(t *testing.T) {
	ctx := context.Background()
	e := &engine{}
	if err := e.beginSolve(ctx, phased(t), parallel, solve.Options{DisablePruning: true}, nil); err != nil {
		t.Fatal(err)
	}
	e.table.hashFn = func([]uint64) uint64 { panic("boom") }
	err := e.stepOnce(ctx)
	var pe *solve.PanicError
	if !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("stepOnce returned %v (%T), want *solve.PanicError boom", err, err)
	}
}
