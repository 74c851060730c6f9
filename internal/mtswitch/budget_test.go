package mtswitch

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/solve"
)

// TestMaxFrontierBytesDegradesToBeam pins the memory-budget contract:
// on an instance whose exact frontier would blow past a tiny
// MaxFrontierBytes, the solver must return a valid schedule instead of
// erroring or ballooning — flagged Degraded (hence Truncated), with a
// cost that is a true upper bound on the unbudgeted optimum.
func TestMaxFrontierBytesDegradesToBeam(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ins := randomMT(r, 3, 8, 10)
	for ins.NumTasks() < 2 || ins.Steps() < 6 {
		ins = randomMT(r, 3, 8, 10)
	}

	exact, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Degraded {
		t.Fatal("unbudgeted solve reported Degraded")
	}

	for _, workers := range []int{1, 4} {
		o := solve.Options{Workers: workers, MaxFrontierBytes: 256}
		sol, err := SolveExact(context.Background(), ins, parallel, o)
		if err != nil {
			t.Fatalf("workers=%d: budgeted solve failed: %v", workers, err)
		}
		if !sol.Stats.Degraded {
			t.Fatalf("workers=%d: 256-byte budget did not degrade the solve", workers)
		}
		if !sol.Stats.Truncated {
			t.Fatalf("workers=%d: Degraded without Truncated", workers)
		}
		if err := ins.Validate(sol.Schedule); err != nil {
			t.Fatalf("workers=%d: degraded schedule invalid: %v", workers, err)
		}
		if sol.Cost < exact.Cost {
			t.Fatalf("workers=%d: degraded cost %d beats exact %d", workers, sol.Cost, exact.Cost)
		}
	}
}

// TestMaxFrontierBytesGenerousBudgetStaysExact pins that a budget big
// enough for the whole frontier changes nothing: same cost as the
// unbudgeted run and no degradation flag.  Task B's v is raised by 1
// so that the frontier DP, which the budget caps, answers.
func TestMaxFrontierBytesGenerousBudgetStaysExact(t *testing.T) {
	ins := unshareV(t, phased(t))
	exact, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveExact(context.Background(), ins, parallel, solve.Options{MaxFrontierBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Stats.Degraded || sol.Stats.Truncated {
		t.Fatalf("generous budget degraded the solve: %+v", sol.Stats)
	}
	if sol.Cost != exact.Cost {
		t.Fatalf("generous budget changed cost: %d vs %d", sol.Cost, exact.Cost)
	}
}

// TestMaxFrontierBytesRandomizedUpperBound sweeps random instances:
// whatever the budget forces, the result must stay a feasible schedule
// whose cost never undercuts the true optimum.  Instances of two or
// more tasks have their v unshared (unshareV), so the budget caps the
// frontier DP, not the aligned path.
func TestMaxFrontierBytesRandomizedUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ins := unshareV(t, randomMT(r, 3, 6, 8))
		exact, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{128, 1024, 16384} {
			sol, err := SolveExact(context.Background(), ins, parallel, solve.Options{MaxFrontierBytes: budget})
			if err != nil {
				t.Fatalf("trial %d budget %d: %v", trial, budget, err)
			}
			if err := ins.Validate(sol.Schedule); err != nil {
				t.Fatalf("trial %d budget %d: invalid schedule: %v", trial, budget, err)
			}
			if sol.Cost < exact.Cost {
				t.Fatalf("trial %d budget %d: cost %d beats exact %d", trial, budget, sol.Cost, exact.Cost)
			}
			if sol.Stats.Degraded && !sol.Stats.Truncated {
				t.Fatalf("trial %d budget %d: Degraded without Truncated", trial, budget)
			}
		}
	}
}
