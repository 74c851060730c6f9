//go:build !race

package mtswitch

import (
	"context"
	"testing"

	"repro/internal/solve"
	"repro/internal/workload"
)

// TestBlockedExactAllocs gates the allocations of a one-shot exact
// solve of exact-cold's blocked 2×288 shape (seed 1) at half of the
// 7,444 allocations per solve that quadratic preparation made (E28).
// An allocation count does not depend on the host, so it gates
// exactly; it is measured without the race detector, which allocates
// on its own.
func TestBlockedExactAllocs(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var sol *Solution
	allocs := testing.AllocsPerRun(10, func() {
		if sol, err = SolveExact(ctx, ins, parallel, solve.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if sol.Stats.Truncated {
		t.Fatal("blocked 2×288 seed 1: want a proven optimum")
	}
	const limit = 7444 / 2
	t.Logf("blocked 2×288 seed 1: %.0f allocs per solve (limit %d)", allocs, limit)
	if allocs > limit {
		t.Fatalf("blocked 2×288 seed 1: %.0f allocs per solve, limit %d", allocs, limit)
	}
}
