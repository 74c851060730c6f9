package portfolio_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/mtswitch"
	"repro/internal/portfolio"
	"repro/internal/solve"
	_ "repro/internal/solve/solvers"
	"repro/internal/workload"
)

var (
	parallel = model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
	// raceModes are the upload-mode combinations the agreement matrix
	// covers; the mixed modes are where the incumbent exchange can
	// actually tighten the exact DP, so racing them exercises the
	// bound-adoption path for real.
	raceModes = []model.CostOptions{
		{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel},
		{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskSequential},
		{HyperUpload: model.TaskSequential, ReconfUpload: model.TaskParallel},
	}
)

// randomMT mirrors the generator the mtswitch agreement suite uses:
// m<=maxM tasks with individual local universes, requirement cells
// filled with probability 1/3.
func randomMT(r *rand.Rand, maxM, maxL, maxN int) *model.MTSwitchInstance {
	m := 1 + r.Intn(maxM)
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

// TestRaceMatchesReference is the portfolio property test: on
// instances small enough for the exact lane to finish, the race must
// return the reference optimum with the exactness flag set, across the
// worker matrix, with and without pruning, under every upload mode.
// The incumbent exchange is on throughout — published bounds must
// never change the cost.
func TestRaceMatchesReference(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))
	instances := make([]*model.MTSwitchInstance, 0, 10)
	for k := 0; k < 10; k++ {
		instances = append(instances, randomMT(r, 3, 5, 6))
	}
	for ii, ins := range instances {
		for _, mode := range raceModes {
			ref, err := mtswitch.SolveExactReference(ctx, ins, mode, solve.Options{})
			if err != nil {
				t.Fatalf("instance %d: reference: %v", ii, err)
			}
			for _, workers := range []int{1, 2, 8} {
				for _, noPrune := range []bool{false, true} {
					opts := solve.Options{Workers: workers, DisablePruning: noPrune}
					sol, err := portfolio.Race(ctx, solve.NewMT(ins, mode), opts, portfolio.Config{Exchange: true})
					if err != nil {
						t.Fatalf("instance %d workers %d noPrune %t: race: %v", ii, workers, noPrune, err)
					}
					if !sol.Exact {
						t.Fatalf("instance %d workers %d: race result not exact", ii, workers)
					}
					if sol.Cost != ref.Cost {
						t.Fatalf("instance %d workers %d noPrune %t: race cost %d, reference %d",
							ii, workers, noPrune, sol.Cost, ref.Cost)
					}
					if sol.MTSched == nil {
						t.Fatalf("instance %d: race returned no schedule", ii)
					}
					if err := ins.Validate(sol.MTSched); err != nil {
						t.Fatalf("instance %d workers %d: invalid schedule: %v", ii, workers, err)
					}
					if len(sol.Contenders) != 3 {
						t.Fatalf("instance %d: %d contenders reported, want 3", ii, len(sol.Contenders))
					}
					won := 0
					for _, c := range sol.Contenders {
						if c.Won {
							won++
							if c.Cost != sol.Cost {
								t.Fatalf("instance %d: winner cost %d != solution cost %d", ii, c.Cost, sol.Cost)
							}
						}
						if c.Direct {
							t.Fatalf("instance %d: tableless race reported a direct contender", ii)
						}
					}
					if won != 1 {
						t.Fatalf("instance %d: %d winners, want exactly 1", ii, won)
					}
				}
			}
		}
	}
}

// TestRaceCancelsCleanly pins the race teardown: after a race whose
// losers are cancelled mid-flight, no goroutine may linger.  The GA is
// given enough generations that it is guaranteed to still be running
// when the exact lane finishes and cancels it.
func TestRaceCancelsCleanly(t *testing.T) {
	ctx := context.Background()
	mt, err := workload.Phased(workload.Config{Tasks: 2, Steps: 24, Switches: 10, MeanPhase: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst := solve.NewMT(mt, parallel)

	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		sol, err := portfolio.Race(ctx, inst, solve.Options{Generations: 5000, Pop: 60}, portfolio.Config{Exchange: true})
		if err != nil {
			t.Fatalf("race %d: %v", i, err)
		}
		if !sol.Exact {
			t.Fatalf("race %d: expected the exact lane to win", i)
		}
		cancelled := 0
		for _, c := range sol.Contenders {
			if !c.Finished && c.Err == "" {
				cancelled++
			}
		}
		if cancelled == 0 {
			t.Fatalf("race %d: no lane was cancelled — the GA finished before the exact lane, weaken the workload", i)
		}
	}
	// The pool and engine teardown are synchronous, but give the
	// runtime a moment to retire exiting goroutines before declaring a
	// leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by cancelled races: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRaceExactLaneIsMonolithic pins the exact lane to the solver
// hyperd runs: on blocked 2×288 traces, which the partitioned solver
// splits without a cut, the race's exact lane is the monolithic DP,
// which proves the optimum and cancels the rest.
func TestRaceExactLaneIsMonolithic(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		mt, err := workload.Blocked(workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		inst := solve.NewMT(mt, parallel)
		want, err := solve.Run(ctx, "exact", inst, solve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := portfolio.Race(ctx, inst, solve.Options{}, portfolio.Config{Exchange: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !sol.Exact || sol.Cost != want.Cost {
			t.Fatalf("seed %d: race cost %d exact %t, want exact's proven %d", seed, sol.Cost, sol.Exact, want.Cost)
		}
		if len(sol.Contenders) == 0 || sol.Contenders[0].Solver != "exact" {
			t.Fatalf("seed %d: contenders %+v, want the monolithic exact lane first", seed, sol.Contenders)
		}
	}
}

// TestRaceCallerCancel distinguishes caller cancellation from race
// cancellation: a race whose outer context dies must report the
// context error, not a fabricated result.
func TestRaceCallerCancel(t *testing.T) {
	mt, err := workload.Phased(workload.Config{Tasks: 3, Steps: 32, Switches: 12, MeanPhase: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := portfolio.Race(ctx, solve.NewMT(mt, parallel), solve.Options{}, portfolio.Config{Exchange: true}); err == nil {
		t.Fatal("race under a cancelled context returned no error")
	}
}

// TestDirectDispatch warms a table until the prediction is confident
// and checks the race collapses to the predicted solver.
func TestDirectDispatch(t *testing.T) {
	ctx := context.Background()
	mt, err := workload.Phased(workload.Config{Tasks: 2, Steps: 16, Switches: 8, MeanPhase: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := solve.NewMT(mt, parallel)
	bucket := portfolio.Extract(mt).Bucket()

	table := portfolio.NewTable()
	cfg := portfolio.Config{Exchange: true, Table: table, MinSamples: 3, MinShare: 0.8}

	// Below MinSamples the portfolio must keep racing.
	table.Record(bucket, "beam")
	table.Record(bucket, "beam")
	sol, err := portfolio.Race(ctx, inst, solve.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Contenders) == 1 && sol.Contenders[0].Direct {
		t.Fatal("portfolio dispatched directly below MinSamples")
	}
	// That race recorded its own winner (the exact lane); drown it out
	// so "beam" holds the confident majority.
	for i := 0; i < 20; i++ {
		table.Record(bucket, "beam")
	}
	sol, err = portfolio.Race(ctx, inst, solve.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Contenders) != 1 || !sol.Contenders[0].Direct || sol.Contenders[0].Solver != "beam" {
		t.Fatalf("expected a direct beam dispatch, got %+v", sol.Contenders)
	}
	// Direct dispatches must not record: the beam win count is
	// unchanged, so a wrong habit cannot reinforce itself.
	if winner, share, samples := table.Predict(bucket); winner != "beam" {
		t.Fatalf("prediction drifted after direct dispatch: %s %.2f %d", winner, share, samples)
	} else if samples != 23 {
		t.Fatalf("direct dispatch recorded into the table: %d samples, want 23", samples)
	}
}

// TestRaceRejectsNonMT pins the input validation.
func TestRaceRejectsNonMT(t *testing.T) {
	if _, err := portfolio.Race(context.Background(), nil, solve.Options{}, portfolio.Defaults()); err == nil {
		t.Fatal("nil instance accepted")
	}
}
