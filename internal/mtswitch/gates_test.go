package mtswitch

import (
	"context"
	"testing"
	"time"

	"repro/internal/solve"
	"repro/internal/workload"
)

// TestBlockedLongSolvesExactlyWithinDeadline pins that the pruned
// frontier DP stays cheap on a long blocked trace: blocked 4×1024 (the
// exact-cold blocked family's generator settings with twice the tasks
// and 3.6 times the steps), with its last task's v raised by 1 so that
// the frontier DP answers rather than SolveAligned (as generated, its
// tasks share one v), solves to a proven optimum inside a 2-s
// deadline.  It takes a few milliseconds with output-sized
// preparation and took about 45 ms with quadratic preparation (E28),
// and 3.8–4.3 s before the projection bounds (E23).
func TestBlockedLongSolvesExactlyWithinDeadline(t *testing.T) {
	shared, err := workload.Blocked(workload.Config{Tasks: 4, Steps: 1024, Switches: 72, MeanPhase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins := unshareV(t, shared)
	if !runsFrontierDP(t, ins, parallel, solve.Options{}) {
		t.Fatal("blocked 4×1024 v+1: the frontier DP did not run")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	sol, err := SolveExact(ctx, ins, parallel, solve.Options{})
	if err != nil {
		t.Fatalf("blocked 4×1024 v+1: %v after %v", err, time.Since(start))
	}
	if sol.Stats.Truncated {
		t.Fatalf("blocked 4×1024 v+1: truncated, want a proven optimum")
	}
	t.Logf("blocked 4×1024 v+1: cost %d in %v", sol.Cost, time.Since(start))
}
