package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/workload"
)

// buildInstance makes a tiny hand-written instance: two tasks over
// four steps, task 0 using column 0 on steps 0–1 and column 1 on
// steps 2–3, task 1 using both of its columns everywhere.
func buildInstance(t *testing.T) *model.MTSwitchInstance {
	t.Helper()
	tasks := []model.Task{
		{Name: "A", Local: 2, V: 1},
		{Name: "B", Local: 2, V: 1},
	}
	reqs := [][]bitset.Set{
		{
			bitset.FromMembers(2, 0), bitset.FromMembers(2, 0),
			bitset.FromMembers(2, 1), bitset.FromMembers(2, 1),
		},
		{
			bitset.FromMembers(2, 0, 1), bitset.FromMembers(2, 0, 1),
			bitset.FromMembers(2, 0, 1), bitset.FromMembers(2, 0, 1),
		},
	}
	ins, err := model.NewMTSwitchInstance(tasks, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func TestCutProfile(t *testing.T) {
	// Boundary 1 cuts task 0's column 0 (+1) and both of task 1's
	// columns (+2); boundary 2 cuts only task 1's columns; boundary 3
	// cuts task 1's columns and task 0's column 1.
	want := []int64{0, 3, 2, 3}
	got := CutProfile(buildInstance(t))
	if len(got) != len(want) {
		t.Fatalf("profile = %v, want %v", got, want)
	}
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("profile[%d] = %d, want %d (full: %v)", s, got[s], want[s], got)
		}
	}
}

// cutProfileReference is CutProfile's per-column reference: it finds
// each column's first and last required step with one Contains per
// (column, step) and counts the column at every boundary between them.
func cutProfileReference(ins *model.MTSwitchInstance) []int64 {
	n := ins.Steps()
	w := make([]int64, n)
	for j, reqs := range ins.Reqs {
		for c := 0; c < ins.Tasks[j].Local; c++ {
			first, last := -1, -1
			for i := 0; i < n; i++ {
				if reqs[i].Contains(c) {
					if first < 0 {
						first = i
					}
					last = i
				}
			}
			for s := first + 1; s <= last; s++ {
				w[s]++
			}
		}
	}
	return w
}

// TestCutProfileMatchesPerColumnReference pins CutProfile to the
// per-column reference on every generator, with cut columns, wide
// (multi-word) universes, one-step traces and never-required columns.
func TestCutProfileMatchesPerColumnReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	gens := workload.Generators()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	var instances []*model.MTSwitchInstance
	for trial := 0; trial < 300; trial++ {
		cfg := workload.Config{
			Tasks:     1 + r.Intn(4),
			Steps:     1 + r.Intn(60),
			Switches:  1 + r.Intn(140),
			MeanPhase: 1 + r.Intn(8),
			CutWidth:  r.Intn(3),
			Seed:      1 + r.Int63n(1000),
		}
		ins, err := gens[names[trial%len(names)]](cfg)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, ins)
	}
	// Empty columns and an empty step, by hand.
	tasks := []model.Task{{Name: "A", Local: 70, V: 3}, {Name: "B", Local: 5, V: 1}}
	reqs := [][]bitset.Set{
		{bitset.FromMembers(70, 1, 66), bitset.New(70), bitset.FromMembers(70, 66, 69)},
		{bitset.New(5), bitset.New(5), bitset.FromMembers(5, 4)},
	}
	ins, err := model.NewMTSwitchInstance(tasks, reqs)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, ins)
	for k, ins := range instances {
		got, want := CutProfile(ins), cutProfileReference(ins)
		if !slices.Equal(got, want) {
			t.Fatalf("instance %d (%d×%d): profile %v, reference %v", k, ins.NumTasks(), ins.Steps(), got, want)
		}
	}
}

func TestPlanWindowsPrefersCheapBoundary(t *testing.T) {
	plan := PlanWindows(buildInstance(t), 2, 0)
	if len(plan.Boundaries) != 1 || plan.Boundaries[0] != 2 {
		t.Fatalf("boundaries = %v, want [2]", plan.Boundaries)
	}
	if plan.CutColumns != 2 {
		t.Fatalf("CutColumns = %d, want 2", plan.CutColumns)
	}
	wins := plan.Windows(4)
	if len(wins) != 2 || wins[0] != [2]int{0, 2} || wins[1] != [2]int{2, 4} {
		t.Fatalf("windows = %v", wins)
	}
}

func TestPlanWindowsCutCap(t *testing.T) {
	// Every boundary of this instance cuts at least 2 columns, so a
	// cap of 1 must merge all windows back into a monolithic plan.
	plan := PlanWindows(buildInstance(t), 2, 1)
	if len(plan.Boundaries) != 0 || plan.CutColumns != 0 {
		t.Fatalf("plan = %+v, want empty", plan)
	}
}

func TestPlanWindowsCutFreeBlocked(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 3, Steps: 24, Switches: 12, MeanPhase: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanWindows(ins, 3, 0)
	if len(plan.Boundaries) != 2 {
		t.Fatalf("boundaries = %v, want 2 of them", plan.Boundaries)
	}
	if plan.CutColumns != 0 {
		t.Fatalf("CutColumns = %d, want 0 (block-disjoint working sets)", plan.CutColumns)
	}
	for _, s := range plan.Boundaries {
		if s%4 != 0 {
			t.Fatalf("boundary %d is not on a block edge (block length 4): %v", s, plan.Boundaries)
		}
	}
}

func TestAutoPartitions(t *testing.T) {
	cases := []struct{ steps, want int }{
		{0, 1}, {63, 1}, {64, 2}, {96, 3}, {256, 8}, {100000, 64},
	}
	for _, c := range cases {
		if got := AutoPartitions(c.steps); got != c.want {
			t.Fatalf("AutoPartitions(%d) = %d, want %d", c.steps, got, c.want)
		}
	}
}

// TestAutoDispatch pins the dispatch rule on 2×288 traces, ten seeds
// each: blocked traces (exact-cold's shape) plan cut-free into windows
// of at least the minimum length and dispatch; phased, dense and markov
// traces plan with cuts and short windows and stay monolithic, and so
// do blocked traces with an always-active shared column (cuts only); a
// blocked trace whose plan meets the rule stays monolithic below
// AutoDispatchSteps; and a sparse phased trace whose plan is cut-free
// but has five one-step windows stays monolithic too (its stitched
// cost is 369 against the optimum 354).
func TestAutoDispatch(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func(workload.Config) (*model.MTSwitchInstance, error)
		cfg  workload.Config
		want bool
	}{
		{"blocked", workload.Blocked, workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8}, true},
		{"phased", workload.Phased, workload.Config{Tasks: 2, Steps: 288, Switches: 12, MeanPhase: 10}, false},
		{"dense", workload.Dense, workload.Config{Tasks: 2, Steps: 288, Switches: 16, MeanPhase: 10}, false},
		{"markov", workload.Markov, workload.Config{Tasks: 2, Steps: 288, Switches: 12, MeanPhase: 10}, false},
		{"blocked-cut", workload.Blocked, workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, CutWidth: 1}, false},
		{"blocked-short", workload.Blocked, workload.Config{Tasks: 2, Steps: AutoDispatchSteps - 1, Switches: 8, MeanPhase: 4}, false},
	} {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := c.cfg
			cfg.Seed = seed
			ins, err := c.gen(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := AutoDispatch(ins); got != c.want {
				plan := PlanWindows(ins, 0, 0)
				t.Fatalf("%s seed %d: AutoDispatch = %t, want %t (cut %d, windows %v)",
					c.name, seed, got, c.want, plan.CutColumns, plan.Windows(ins.Steps()))
			}
		}
	}
	sparse, err := workload.Phased(workload.Config{Tasks: 2, Steps: 288, Switches: 8, MeanPhase: 16, Density: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plan := PlanWindows(sparse, 0, 0); plan.CutColumns != 0 || AutoDispatch(sparse) {
		t.Fatalf("sparse phased seed 3: cut %d, windows %v, AutoDispatch %t; want a cut-free plan with short windows that does not dispatch",
			plan.CutColumns, plan.Windows(sparse.Steps()), AutoDispatch(sparse))
	}
}
