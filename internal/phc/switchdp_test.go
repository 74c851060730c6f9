package phc

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/model"
)

func reqs(universe int, members ...[]int) []bitset.Set {
	out := make([]bitset.Set, len(members))
	for i, m := range members {
		out[i] = bitset.FromMembers(universe, m...)
	}
	return out
}

func mustSwitch(t *testing.T, universe int, w model.Cost, rs []bitset.Set) *model.SwitchInstance {
	t.Helper()
	ins, err := model.NewSwitchInstance(universe, w, rs)
	if err != nil {
		t.Fatalf("NewSwitchInstance: %v", err)
	}
	return ins
}

func randomInstance(r *rand.Rand, maxUniverse, maxLen int) *model.SwitchInstance {
	universe := 1 + r.Intn(maxUniverse)
	n := 1 + r.Intn(maxLen)
	rs := make([]bitset.Set, n)
	for i := range rs {
		s := bitset.New(universe)
		for b := 0; b < universe; b++ {
			if r.Intn(3) == 0 {
				s.Add(b)
			}
		}
		rs[i] = s
	}
	ins, err := model.NewSwitchInstance(universe, model.Cost(1+r.Intn(6)), rs)
	if err != nil {
		panic(err)
	}
	return ins
}

func TestSolveSwitchEmpty(t *testing.T) {
	sol, err := SolveSwitch(context.Background(), mustSwitch(t, 4, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 || len(sol.Seg.Starts) != 0 {
		t.Fatalf("empty solution = %+v", sol)
	}
}

func TestSolveSwitchNil(t *testing.T) {
	if _, err := SolveSwitch(context.Background(), nil); err == nil {
		t.Fatal("accepted nil instance")
	}
}

func TestSolveSwitchKnownOptimum(t *testing.T) {
	// Two disjoint phases: steps 0-2 use switch 0, steps 3-5 use switch 1.
	// W=2: splitting costs 2+3 + 2+3 = 10; merging costs 2 + 2*6 = 14.
	ins := mustSwitch(t, 2, 2, reqs(2,
		[]int{0}, []int{0}, []int{0},
		[]int{1}, []int{1}, []int{1},
	))
	sol, err := SolveSwitch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 10 {
		t.Fatalf("cost = %d, want 10", sol.Cost)
	}
	if len(sol.Seg.Starts) != 2 || sol.Seg.Starts[1] != 3 {
		t.Fatalf("segmentation = %v, want [0 3]", sol.Seg.Starts)
	}
}

func TestSolveSwitchHighWMerges(t *testing.T) {
	// With a huge W the optimum is a single segment.
	ins := mustSwitch(t, 2, 1000, reqs(2, []int{0}, []int{1}, []int{0}))
	sol, err := SolveSwitch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seg.Starts) != 1 {
		t.Fatalf("expected single segment, got %v", sol.Seg.Starts)
	}
	if sol.Cost != 1000+2*3 {
		t.Fatalf("cost = %d, want 1006", sol.Cost)
	}
}

func TestSolveSwitchTinyWSplitsEverything(t *testing.T) {
	// W=1 and alternating disjoint singletons: split every step.
	ins := mustSwitch(t, 2, 1, reqs(2, []int{0}, []int{1}, []int{0}, []int{1}))
	sol, err := SolveSwitch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seg.Starts) != 4 {
		t.Fatalf("segmentation = %v, want every step", sol.Seg.Starts)
	}
	if sol.Cost != 4*(1+1) {
		t.Fatalf("cost = %d, want 8", sol.Cost)
	}
}

func TestQuickSolveSwitchMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomInstance(r, 6, 9)
		dp, err1 := SolveSwitch(context.Background(), ins)
		bf, err2 := BruteForceSwitch(context.Background(), ins)
		if err1 != nil || err2 != nil {
			return false
		}
		return dp.Cost == bf.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSolveSwitchBounds(t *testing.T) {
	// Optimal cost lies between the instance lower bound and both
	// baselines.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomInstance(r, 8, 20)
		sol, err := SolveSwitch(context.Background(), ins)
		if err != nil {
			return false
		}
		oneSeg, err := ins.Cost(model.Segmentation{Starts: []int{0}})
		if err != nil {
			return false
		}
		return sol.Cost >= ins.LowerBound() &&
			sol.Cost <= oneSeg &&
			sol.Cost <= ins.EveryStepCost()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGreedyValidAndAboveOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomInstance(r, 8, 20)
		g, err1 := Greedy(context.Background(), ins)
		dp, err2 := SolveSwitch(context.Background(), ins)
		if err1 != nil || err2 != nil {
			return false
		}
		// Greedy is feasible (cost computed by the model) and never
		// beats the exact optimum.
		return g.Cost >= dp.Cost
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFastDPMatchesPlainDP(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ins := randomInstance(r, 8, 30)
		plain, err1 := SolveSwitch(context.Background(), ins)
		fast, err2 := SolveSwitchFast(context.Background(), ins)
		if err1 != nil || err2 != nil {
			return false
		}
		return plain.Cost == fast.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestFastDPEdgeCases(t *testing.T) {
	// Empty instance.
	sol, err := SolveSwitchFast(context.Background(), mustSwitch(t, 3, 1, nil))
	if err != nil || sol.Cost != 0 {
		t.Fatalf("empty: %v %+v", err, sol)
	}
	if _, err := SolveSwitchFast(context.Background(), nil); err == nil {
		t.Fatal("accepted nil")
	}
	// All-empty requirements: support is empty, every start saturated.
	ins := mustSwitch(t, 3, 2, reqs(3, nil, nil, nil))
	fast, err := SolveSwitchFast(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := SolveSwitch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cost != plain.Cost || fast.Cost != 2 {
		t.Fatalf("all-empty: fast %d plain %d, want 2", fast.Cost, plain.Cost)
	}
	// A support switch that appears only late: no saturation early on.
	ins = mustSwitch(t, 2, 1, reqs(2, []int{0}, []int{0}, []int{0, 1}))
	fast, err = SolveSwitchFast(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = SolveSwitch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cost != plain.Cost {
		t.Fatalf("late support: fast %d plain %d", fast.Cost, plain.Cost)
	}
}

func TestFastDPLongLoopingTrace(t *testing.T) {
	// A long periodic requirement sequence: the regime the pointer
	// technique accelerates.  Verify exactness at a size where the
	// plain DP is still tractable.
	period := reqs(6, []int{0, 1}, []int{1, 2}, []int{3}, []int{4, 5}, []int{0})
	var rs []bitset.Set
	for len(rs) < 400 {
		rs = append(rs, period...)
	}
	ins := mustSwitch(t, 6, 7, rs[:400])
	plain, err := SolveSwitch(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := SolveSwitchFast(context.Background(), ins)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != fast.Cost {
		t.Fatalf("fast %d != plain %d", fast.Cost, plain.Cost)
	}
}

func TestFixedInterval(t *testing.T) {
	ins := mustSwitch(t, 2, 2, reqs(2, []int{0}, []int{0}, []int{1}, []int{1}))
	sol, err := FixedInterval(context.Background(), ins, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Seg.Starts) != 2 {
		t.Fatalf("segmentation = %v", sol.Seg.Starts)
	}
	// Segments [0,2) union {0}, [2,4) union {1}: 2+2 + 2+2 = 8.
	if sol.Cost != 8 {
		t.Fatalf("cost = %d, want 8", sol.Cost)
	}
	if _, err := FixedInterval(context.Background(), ins, 0); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestBruteForceSwitchCap(t *testing.T) {
	rs := make([]bitset.Set, 21)
	for i := range rs {
		rs[i] = bitset.New(1)
	}
	ins := mustSwitch(t, 1, 1, rs)
	if _, err := BruteForceSwitch(context.Background(), ins); err == nil {
		t.Fatal("accepted n>20")
	}
}

func TestGreedyEmptyAndNil(t *testing.T) {
	sol, err := Greedy(context.Background(), mustSwitch(t, 3, 1, nil))
	if err != nil || sol.Cost != 0 {
		t.Fatalf("empty greedy: %v %+v", err, sol)
	}
	if _, err := Greedy(context.Background(), nil); err == nil {
		t.Fatal("accepted nil instance")
	}
}

// TestSwitchPrefixTableWeightedSuffixes checks the weighted, multiplied
// table against the plain DP.  A reduced instance (column c weighs
// weights[c], step i stands for mult[i] steps) expands into an ordinary
// one by repeating columns and steps.  Run over the reduced rows
// reversed, Cost[k] must equal SolveSwitch on the expanded instance's
// suffix that the last k reduced steps stand for.
func TestSwitchPrefixTableWeightedSuffixes(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(37))
	for k := 0; k < 150; k++ {
		l := 1 + r.Intn(6)
		weights := make([]model.Cost, l)
		first := make([]int, l+1) // expanded columns of c: first[c]..first[c+1]-1
		for c := range weights {
			weights[c] = model.Cost(1 + r.Intn(3))
			first[c+1] = first[c] + int(weights[c])
		}
		var rows []bitset.Set
		var mult []model.Cost
		var expanded []bitset.Set
		for len(expanded) < 40 {
			s := bitset.New(l)
			big := bitset.New(first[l])
			for c := 0; c < l; c++ {
				if r.Intn(3) == 0 {
					s.Add(c)
					for b := first[c]; b < first[c+1]; b++ {
						big.Add(b)
					}
				}
			}
			times := min(1+r.Intn(3), 40-len(expanded))
			rows = append(rows, s)
			mult = append(mult, model.Cost(times))
			for i := 0; i < times; i++ {
				expanded = append(expanded, big)
			}
			if r.Intn(8) == 0 {
				break
			}
		}
		n := len(rows)
		w := model.Cost(1 + r.Intn(6))
		if r.Intn(4) == 0 {
			weights, mult = nil, nil // the unit form: every column and step counts once
			expanded = rows
			first = nil
		}
		rev := make([]bitset.Set, n)
		var revMult []model.Cost
		if mult != nil {
			revMult = make([]model.Cost, n)
		}
		for i := range rows {
			rev[n-1-i] = rows[i]
			if mult != nil {
				revMult[n-1-i] = mult[i]
			}
		}
		universe := l
		if first != nil {
			universe = first[l]
		}
		tab, err := SwitchPrefixTable(ctx, l, w, rev, weights, revMult)
		if err != nil {
			t.Fatal(err)
		}
		// Suffix of the last q reduced steps starts at expanded step at.
		at := len(expanded)
		for q := 0; q <= n; q++ {
			if q > 0 {
				at -= int(multAt(mult, n-q))
			}
			ins := mustSwitch(t, universe, w, expanded[at:])
			want, err := SolveSwitch(ctx, ins)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Cost[q] != want.Cost {
				t.Fatalf("instance %d: table entry %d = %d, SolveSwitch on the expanded suffix from step %d = %d",
					k, q, tab.Cost[q], at, want.Cost)
			}
		}
	}
}

func multAt(mult []model.Cost, i int) model.Cost {
	if mult == nil {
		return 1
	}
	return mult[i]
}
