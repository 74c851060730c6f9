package mtswitch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

func reqs(universe int, members ...[]int) []bitset.Set {
	out := make([]bitset.Set, len(members))
	for i, m := range members {
		out[i] = bitset.FromMembers(universe, m...)
	}
	return out
}

var parallel = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
var sequential = model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskSequential}

func mustMT(t testing.TB, tasks []model.Task, rows [][]bitset.Set) *model.MTSwitchInstance {
	t.Helper()
	ins, err := model.NewMTSwitchInstance(tasks, rows)
	if err != nil {
		t.Fatalf("NewMTSwitchInstance: %v", err)
	}
	return ins
}

// phased builds the canonical demonstration instance: two tasks whose
// requirement phases are deliberately misaligned.  Both tasks have
// v = 4, so under task-parallel hyperreconfiguration uploads some
// optimal schedule is aligned (alignedIsExact) and partial
// hyperreconfiguration gains nothing; phasedV(t, 2, 1) is the same
// trace with the v at which it does.
func phased(t testing.TB) *model.MTSwitchInstance { return phasedV(t, 4, 4) }

// phasedV is phased's trace with task A's v set to vA and B's to vB.
func phasedV(t testing.TB, vA, vB model.Cost) *model.MTSwitchInstance {
	tasks := []model.Task{
		{Name: "A", Local: 4, V: vA},
		{Name: "B", Local: 4, V: vB},
	}
	rows := [][]bitset.Set{
		// A changes phase at step 3.
		reqs(4, []int{0}, []int{0}, []int{0}, []int{1, 2}, []int{1, 2}, []int{1, 2}),
		// B changes phase at step 2 and 4.
		reqs(4, []int{3}, []int{3}, []int{0, 1}, []int{0, 1}, []int{2}, []int{2}),
	}
	return mustMT(t, tasks, rows)
}

func randomMT(r *rand.Rand, maxM, maxL, maxN int) *model.MTSwitchInstance {
	return randomMTOf(r, 1+r.Intn(maxM), maxL, maxN)
}

// frontierMT draws a random instance of 2 to maxM tasks whose v are not
// all equal, so that a pruned solve under either task-parallel hyper
// upload mode runs the frontier DP rather than SolveAligned.
func frontierMT(t testing.TB, r *rand.Rand, maxM, maxL, maxN int) *model.MTSwitchInstance {
	return unshareV(t, randomMTOf(r, 2+r.Intn(maxM-1), maxL, maxN))
}

// unshareV returns ins when its tasks' v are not all equal, and
// otherwise a copy whose last task's v is one higher, so that a pruned
// solve under a task-parallel hyper upload mode runs the frontier DP.
// A single task always shares its v.
func unshareV(t testing.TB, ins *model.MTSwitchInstance) *model.MTSwitchInstance {
	t.Helper()
	if !alignedIsExact(ins.Tasks, parallel) {
		return ins
	}
	tasks := append([]model.Task(nil), ins.Tasks...)
	tasks[len(tasks)-1].V++
	out := mustMT(t, tasks, ins.Reqs)
	out.PublicGlobal, out.W = ins.PublicGlobal, ins.W
	return out
}

// randomMTOf draws a random instance of m tasks.
func randomMTOf(r *rand.Rand, m, maxL, maxN int) *model.MTSwitchInstance {
	n := 1 + r.Intn(maxN)
	tasks := make([]model.Task, m)
	rows := make([][]bitset.Set, m)
	for j := 0; j < m; j++ {
		l := 1 + r.Intn(maxL)
		tasks[j] = model.Task{Name: string(rune('A' + j)), Local: l, V: model.Cost(1 + r.Intn(4))}
		rows[j] = make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			s := bitset.New(l)
			for b := 0; b < l; b++ {
				if r.Intn(3) == 0 {
					s.Add(b)
				}
			}
			rows[j][i] = s
		}
	}
	ins, err := model.NewMTSwitchInstance(tasks, rows)
	if err != nil {
		panic(err)
	}
	return ins
}

func TestSolveAlignedValidSchedule(t *testing.T) {
	ins := phased(t)
	sol, err := SolveAligned(context.Background(), ins, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Validate(sol.Schedule); err != nil {
		t.Fatalf("aligned schedule invalid: %v", err)
	}
	// All tasks hyperreconfigure together in aligned schedules.
	for i := 0; i < ins.Steps(); i++ {
		for j := 1; j < ins.NumTasks(); j++ {
			if sol.Schedule.Hyper[j][i] != sol.Schedule.Hyper[0][i] {
				t.Fatalf("aligned schedule diverges at step %d", i)
			}
		}
	}
}

func TestSolveExactBeatsOrMatchesAligned(t *testing.T) {
	ins := phased(t)
	al, err := SolveAligned(context.Background(), ins, parallel)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Truncated {
		t.Fatal("exact solver truncated on a tiny instance")
	}
	if ex.Cost > al.Cost {
		t.Fatalf("exact %d worse than aligned %d", ex.Cost, al.Cost)
	}
	if err := ins.Validate(ex.Schedule); err != nil {
		t.Fatalf("exact schedule invalid: %v", err)
	}
}

func TestSolveExactMatchesBruteForceFixed(t *testing.T) {
	ins := phased(t)
	// (n-1)*m = 10 ≤ 22: brute force feasible.
	bf, err := BruteForce(context.Background(), ins, parallel)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Cost != bf.Cost {
		t.Fatalf("exact %d != brute force %d", ex.Cost, bf.Cost)
	}
}

// TestQuickSolveExactMatchesBruteForceParallel: SolveExact must reach
// BruteForce's optimum on random instances, and each instance's copy
// whose tasks share one v, with a W and public-global term, must pass
// checkAlignedExact (the aligned path is exact under every cap).
func TestQuickSolveExactMatchesBruteForceParallel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomMT(r, 3, 4, 5) // (n-1)*m ≤ 12
		bf, err1 := BruteForce(context.Background(), ins, parallel)
		ex, err2 := SolveExact(context.Background(), ins, parallel, solve.Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		checkAlignedExact(t, withPG(r, shareV(t, ins)), fmt.Sprintf("seed %d shared v", seed))
		return ex.Cost == bf.Cost && !ex.Stats.Truncated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolveExactMatchesBruteForceSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomMT(r, 3, 4, 5)
		bf, err1 := BruteForce(context.Background(), ins, sequential)
		ex, err2 := SolveExact(context.Background(), ins, sequential, solve.Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return ex.Cost == bf.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMixedUploadModes(t *testing.T) {
	mixed := model.CostOptions{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskParallel}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomMT(r, 2, 4, 5)
		bf, err1 := BruteForce(context.Background(), ins, mixed)
		ex, err2 := SolveExact(context.Background(), ins, mixed, solve.Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return ex.Cost == bf.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrderingInvariants(t *testing.T) {
	// LowerBound ≤ exact ≤ aligned ≤ disabled + initial hyper cost.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomMT(r, 3, 5, 6)
		ex, err1 := SolveExact(context.Background(), ins, parallel, solve.Options{})
		al, err2 := SolveAligned(context.Background(), ins, parallel)
		if err1 != nil || err2 != nil {
			return false
		}
		lb := LowerBound(ins, parallel)
		return lb <= ex.Cost && ex.Cost <= al.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialBeatsAlignedOnMisalignedPhases: the defining advantage
// of partially hyperreconfigurable machines.  On phased's misaligned
// rows with v_A = 2 and v_B = 1, task B can hyperreconfigure alone for
// less than a joint hyperreconfiguration costs, so the exact optimum
// beats the best aligned schedule in every frontier upload mode.  With
// the v = 4 both tasks share, a hyperreconfiguration by either task
// costs the same as one by both under task-parallel hyper uploads, and
// exact must equal aligned there.
func TestPartialBeatsAlignedOnMisalignedPhases(t *testing.T) {
	ctx := context.Background()
	for oi, opt := range frontierOpts {
		ins := phasedV(t, 2, 1)
		al, err := SolveAligned(ctx, ins, opt)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := SolveExact(ctx, ins, opt, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Stats.Truncated || ex.Cost >= al.Cost {
			t.Fatalf("opt %d: v_A=2 v_B=1: exact %d (truncated %t) does not beat aligned %d", oi, ex.Cost, ex.Stats.Truncated, al.Cost)
		}
		if opt.HyperUpload != model.TaskParallel {
			continue
		}
		shared := phased(t)
		if al, err = SolveAligned(ctx, shared, opt); err != nil {
			t.Fatal(err)
		}
		if ex, err = SolveExact(ctx, shared, opt, solve.Options{DisablePruning: true}); err != nil {
			t.Fatal(err)
		}
		if ex.Cost != al.Cost {
			t.Fatalf("opt %d: shared v = 4: exact %d, aligned %d", oi, ex.Cost, al.Cost)
		}
	}
}

func TestSolveExactEmptyRequirements(t *testing.T) {
	// Steps with empty requirements still demand an initial
	// hyperreconfiguration but allow empty hypercontexts.
	tasks := []model.Task{{Name: "A", Local: 2, V: 1}}
	ins := mustMT(t, tasks, [][]bitset.Set{reqs(2, nil, nil)})
	sol, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Step 0: hyper 1 + reconf 0; step 1: keep + reconf 0.
	if sol.Cost != 1 {
		t.Fatalf("cost = %d, want 1", sol.Cost)
	}
}

func TestLowerBoundZeroSteps(t *testing.T) {
	if LowerBound(nil, parallel) != 0 {
		t.Fatal("nil instance lower bound should be 0")
	}
}

func TestBruteForceCap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ins := randomMT(r, 1, 2, 1)
	_ = ins
	big := func() *model.MTSwitchInstance {
		tasks := []model.Task{{Name: "A", Local: 1, V: 1}, {Name: "B", Local: 1, V: 1}}
		n := 13
		rows := make([][]bitset.Set, 2)
		for j := range rows {
			rows[j] = make([]bitset.Set, n)
			for i := range rows[j] {
				rows[j][i] = bitset.New(1)
			}
		}
		ins, err := model.NewMTSwitchInstance(tasks, rows)
		if err != nil {
			panic(err)
		}
		return ins
	}()
	if _, err := BruteForce(context.Background(), big, parallel); err == nil {
		t.Fatal("accepted oversized brute force")
	}
}

func TestSolveExactBeamStillValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// The frontier DP, not SolveAligned, must answer a capped solve.
	ins := unshareV(t, randomMT(r, 3, 6, 8))
	sol, err := SolveExact(context.Background(), ins, parallel, solve.Options{MaxStates: 2, MaxCandidates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Truncated {
		t.Fatal("beam run should report truncation")
	}
	if err := ins.Validate(sol.Schedule); err != nil {
		t.Fatalf("beam schedule invalid: %v", err)
	}
	ex, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost < ex.Cost {
		t.Fatalf("beam %d below exact optimum %d", sol.Cost, ex.Cost)
	}
}

func TestNilInstances(t *testing.T) {
	if _, err := SolveAligned(context.Background(), nil, parallel); err == nil {
		t.Fatal("SolveAligned accepted nil")
	}
	if _, err := SolveExact(context.Background(), nil, parallel, solve.Options{}); err == nil {
		t.Fatal("SolveExact accepted nil")
	}
	if _, err := BruteForce(context.Background(), nil, parallel); err == nil {
		t.Fatal("BruteForce accepted nil")
	}
}
