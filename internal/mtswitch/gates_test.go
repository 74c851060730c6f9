package mtswitch

import (
	"context"
	"testing"
	"time"

	"repro/internal/solve"
	"repro/internal/workload"
)

// TestBlockedLongSolvesExactlyWithinDeadline pins that a monolithic
// exact solve of a long blocked trace stays cheap: blocked 4×1024 (the
// exact-cold blocked family's generator settings with twice the tasks
// and 3.6 times the steps) solves to a proven optimum inside a 2-s
// deadline.  It takes a few milliseconds with output-sized
// preparation and took about 45 ms with quadratic preparation (E28),
// and 3.8–4.3 s before the projection bounds (E23).
func TestBlockedLongSolvesExactlyWithinDeadline(t *testing.T) {
	ins, err := workload.Blocked(workload.Config{Tasks: 4, Steps: 1024, Switches: 72, MeanPhase: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	sol, err := SolveExact(ctx, ins, parallel, solve.Options{})
	if err != nil {
		t.Fatalf("blocked 4×1024: %v after %v", err, time.Since(start))
	}
	if sol.Stats.Truncated {
		t.Fatalf("blocked 4×1024: truncated, want a proven optimum")
	}
	t.Logf("blocked 4×1024: cost %d in %v", sol.Cost, time.Since(start))
}
