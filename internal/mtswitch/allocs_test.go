//go:build !race

package mtswitch

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// TestBlockedExactAllocs gates the allocations of a one-shot exact
// solve of exact-cold's blocked 2×288 shape (seed 1) at half of the
// 7,444 allocations per solve that quadratic preparation made (E28).
// Task 2's v is raised by 1, so the frontier DP answers the solve;
// with the v both tasks share, the aligned path does, and
// TestBlockedAlignedAllocs gates that.  An allocation count does not
// depend on the host, so it gates exactly; it is measured without the
// race detector, which allocates on its own.
func TestBlockedExactAllocs(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkExactAllocs(t, "blocked 2×288 seed 1 v+1", unshareV(t, ins), 7444/2)
}

// TestBlockedAlignedAllocs gates the aligned path's allocations on
// blocked 2×288 seed 1 as generated, where both tasks share one v: at
// twice the 96 allocations per solve it measured when it came in.
func TestBlockedAlignedAllocs(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkExactAllocs(t, "blocked 2×288 seed 1", ins, 2*96)
}

// checkExactAllocs requires a one-shot exact solve of ins to prove its
// optimum in at most limit allocations.
func checkExactAllocs(t *testing.T, name string, ins *model.MTSwitchInstance, limit int) {
	t.Helper()
	ctx := context.Background()
	var sol *Solution
	var err error
	allocs := testing.AllocsPerRun(10, func() {
		if sol, err = SolveExact(ctx, ins, parallel, solve.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if sol.Stats.Truncated {
		t.Fatalf("%s: want a proven optimum", name)
	}
	t.Logf("%s: %.0f allocs per solve (limit %d)", name, allocs, limit)
	if allocs > float64(limit) {
		t.Fatalf("%s: %.0f allocs per solve, limit %d", name, allocs, limit)
	}
}
