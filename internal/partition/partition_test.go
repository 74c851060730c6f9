package partition

import (
	"math"
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

// boundarySet is one candidate plan of the brute-force search.
type boundarySet struct {
	bounds []int
	cut    int64
}

// allBoundarySets lists every boundary set of an n-step profile whose
// windows are all at least minLen steps long, grouped by size.
func allBoundarySets(profile []int64, minLen int) [][]boundarySet {
	n := len(profile)
	bySize := make([][]boundarySet, n)
	for mask := 0; mask < 1<<(n-1); mask++ {
		var b boundarySet
		lo, ok := 0, true
		for s := 1; s <= n; s++ {
			if s < n && mask>>(s-1)&1 == 0 {
				continue
			}
			ok = ok && s-lo >= minLen
			lo = s
			if s < n {
				b.bounds = append(b.bounds, s)
				b.cut += profile[s]
			}
		}
		if ok {
			bySize[len(b.bounds)] = append(bySize[len(b.bounds)], b)
		}
	}
	return bySize
}

// leastCut is the least cut over sets, math.MaxInt64 if there are none.
func leastCut(sets []boundarySet) int64 {
	least := int64(math.MaxInt64)
	for _, b := range sets {
		least = min(least, b.cut)
	}
	return least
}

// bruteForcePlan is PlanWindows' specification applied to a list of
// same-size boundary sets for k windows over n steps: least cut, then
// least total distance to the targets i·n/k, then the smaller
// positions, compared from the last boundary.
func bruteForcePlan(sets []boundarySet, n, k int) []int {
	var best []int
	var bestCut, bestDist int64
	for _, b := range sets {
		var dist int64
		for i, s := range b.bounds {
			dist += int64(abs(s - (i+1)*n/k))
		}
		better := best == nil || b.cut < bestCut || b.cut == bestCut && dist < bestDist
		if !better && b.cut == bestCut && dist == bestDist {
			for i := len(b.bounds) - 1; i >= 0; i-- {
				if b.bounds[i] != best[i] {
					better = b.bounds[i] < best[i]
					break
				}
			}
		}
		if better {
			best, bestCut, bestDist = b.bounds, b.cut, dist
		}
	}
	return best
}

// randomInstance draws one to three tasks over n steps with universes
// of one to six columns and random requirement bits.
func randomInstance(t *testing.T, r *rand.Rand, n int) *model.MTSwitchInstance {
	t.Helper()
	m := 1 + r.Intn(3)
	tasks := make([]model.Task, m)
	reqs := make([][]bitset.Set, m)
	for j := range tasks {
		l := 1 + r.Intn(6)
		tasks[j] = model.Task{Name: string(rune('A' + j)), Local: l, V: 1}
		density := 1 + r.Intn(4)
		for i := 0; i < n; i++ {
			set := bitset.New(l)
			for c := 0; c < l; c++ {
				if r.Intn(8) < density {
					set.Add(c)
				}
			}
			reqs[j] = append(reqs[j], set)
		}
	}
	ins, err := model.NewMTSwitchInstance(tasks, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// TestPlanWindowsMatchesBruteForce pins the interval DP to an
// exhaustive search over every boundary set of small random instances
// (n ≤ 14, k ≤ 4), with and without a cut cap: the least cut, its
// tie-breaks and the window length rule.  Below 16 steps
// minWindowSteps is 1 for every k ≥ 2, so the DP is also run directly
// at window lengths up to 4 to pin the length rule where it binds.
func TestPlanWindowsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(13)
		ins := randomInstance(t, r, n)
		profile := CutProfile(ins)
		bySize := make(map[int][][]boundarySet)
		sets := func(minLen int) [][]boundarySet {
			if bySize[minLen] == nil {
				bySize[minLen] = allBoundarySets(profile, minLen)
			}
			return bySize[minLen]
		}
		for k := 1; k <= 4; k++ {
			kk := min(k, n)
			minLen := minWindowSteps(n, kk)
			for _, maxCut := range []int{0, 1 + r.Intn(6)} {
				plan := PlanWindows(ins, k, maxCut)
				var want []int
				if kk > 1 {
					size := kk - 1
					for maxCut > 0 && size > 0 && leastCut(sets(minLen)[size]) > int64(maxCut) {
						size--
					}
					windows := kk
					if size < kk-1 {
						windows = size + 1
					}
					want = bruteForcePlan(sets(minLen)[size], n, windows)
				}
				if !slices.Equal(plan.Boundaries, want) {
					t.Fatalf("trial %d n=%d k=%d maxCut=%d profile %v: boundaries %v, brute force %v",
						trial, n, k, maxCut, profile, plan.Boundaries, want)
				}
				var cut int64
				for i, s := range plan.Boundaries {
					if plan.Weights[i] != profile[s] {
						t.Fatalf("trial %d: weight %d at boundary %d, profile %d", trial, plan.Weights[i], s, profile[s])
					}
					cut += profile[s]
				}
				if plan.CutColumns != cut {
					t.Fatalf("trial %d: CutColumns %d, boundary weights sum to %d", trial, plan.CutColumns, cut)
				}
				for _, w := range plan.Windows(n) {
					if w[1]-w[0] < minLen {
						t.Fatalf("trial %d n=%d k=%d: window %v shorter than %d", trial, n, k, w, minLen)
					}
				}
			}
			for minLen := 1; kk > 1 && kk*minLen <= n && minLen <= 4; minLen++ {
				plan, least := leastCutPlan(profile, kk, minLen)
				if want := bruteForcePlan(sets(minLen)[kk-1], n, kk); !slices.Equal(plan.Boundaries, want) {
					t.Fatalf("trial %d n=%d k=%d minLen=%d profile %v: boundaries %v, brute force %v",
						trial, n, kk, minLen, profile, plan.Boundaries, want)
				}
				for j := 1; j < kk; j++ {
					if want := leastCut(sets(minLen)[j]); least[j] != want {
						t.Fatalf("trial %d n=%d minLen=%d: least cut of %d boundaries %d, brute force %d",
							trial, n, minLen, j, least[j], want)
					}
				}
			}
		}
	}
}

// BenchmarkPlanWindows times the automatic plan on exact-cold's
// blocked family and at the wire's step limit.
func BenchmarkPlanWindows(b *testing.B) {
	for _, c := range []struct {
		name string
		gen  func(workload.Config) (*model.MTSwitchInstance, error)
		cfg  workload.Config
	}{
		{"blocked-2x288", workload.Blocked, workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 1}},
		{"phased-2x65536", workload.Phased, workload.Config{Tasks: 2, Steps: 65536, Switches: 12, MeanPhase: 10, Seed: 1}},
	} {
		ins, err := c.gen(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PlanWindows(ins, 0, 0)
			}
		})
	}
}
