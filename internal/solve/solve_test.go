package solve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/model"
)

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		want string // substring of the error, "" for valid
	}{
		{"zero", Options{}, ""},
		{"typical", Options{Timeout: time.Second, MaxStates: 3000, MaxCandidates: 4,
			Workers: 2, Seed: 7, Pop: 80, Generations: 300, MutRate: 0.01, CrossRate: 0.9,
			TournamentK: 3, Elites: 2, Crossover: CrossTaskRow, Iterations: 20000,
			InitialTemp: 10, Cooling: 0.999, IntervalK: 4}, ""},
		{"negative timeout", Options{Timeout: -time.Second}, "negative timeout"},
		{"negative beam cap", Options{MaxStates: -1}, "MaxStates"},
		{"negative candidate cap", Options{MaxCandidates: -3}, "MaxCandidates"},
		{"negative workers", Options{Workers: -2}, "worker"},
		{"negative population", Options{Pop: -80}, "population"},
		{"negative generations", Options{Generations: -1}, "generation"},
		{"mutation rate below 0", Options{MutRate: -0.1}, "mutation rate"},
		{"mutation rate above 1", Options{MutRate: 1.5}, "mutation rate"},
		{"crossover rate above 1", Options{CrossRate: 2}, "crossover rate"},
		{"negative tournament", Options{TournamentK: -1}, "tournament"},
		{"negative elites", Options{Elites: -1}, "elite"},
		{"unknown crossover", Options{Crossover: CrossoverKind(99)}, "crossover kind"},
		{"negative crossover kind", Options{Crossover: CrossoverKind(-1)}, "crossover kind"},
		{"negative iterations", Options{Iterations: -1}, "iteration"},
		{"negative temperature", Options{InitialTemp: -4}, "temperature"},
		{"cooling at 1", Options{Cooling: 1}, "cooling"},
		{"cooling above 1", Options{Cooling: 1.5}, "cooling"},
		{"negative cooling", Options{Cooling: -0.5}, "cooling"},
		{"negative interval", Options{IntervalK: -2}, "interval"},
		{"partitions at the bound", Options{Partitions: MaxPartitions}, ""},
		{"partitions above the bound", Options{Partitions: MaxPartitions + 1}, "partition count 1025 exceeds limit 1024"},
	}
	for _, tc := range cases {
		err := tc.o.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error containing %q, got nil", tc.name, tc.want)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	var le *LimitError
	if err := (Options{Partitions: MaxPartitions + 1}).Validate(); !errors.As(err, &le) || le.Limit != MaxPartitions {
		t.Errorf("partitions above the bound: error %v is not a *LimitError at %d", err, MaxPartitions)
	}
}

func TestCheckpoint(t *testing.T) {
	if err := Checkpoint(nil); err != nil {
		t.Fatalf("nil context cancelled: %v", err)
	}
	if err := Checkpoint(context.Background()); err != nil {
		t.Fatalf("background context cancelled: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Checkpoint(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context reported %v, want context.Canceled", err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		KindSwitch: "switch", KindGeneral: "general", KindDAG: "dag",
		KindMTSwitch: "mtswitch", KindMTDAG: "mtdag", Kind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestCrossoverKindString(t *testing.T) {
	want := map[CrossoverKind]string{
		CrossUniform: "uniform", CrossTwoPoint: "two-point", CrossTaskRow: "task-row",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("CrossoverKind(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if CrossoverKind(42).String() == "" {
		t.Error("unknown crossover kind should still render")
	}
}

func TestCapabilitiesSupports(t *testing.T) {
	c := Capabilities{Kinds: []Kind{KindSwitch, KindMTSwitch}}
	if !c.Supports(KindSwitch) || !c.Supports(KindMTSwitch) {
		t.Fatal("declared kinds not supported")
	}
	if c.Supports(KindDAG) || c.Supports(KindMTDAG) {
		t.Fatal("undeclared kind reported as supported")
	}
}

func TestStatsAdd(t *testing.T) {
	s := Stats{StatesExpanded: 1, DedupHits: 2, CandidatesPruned: 3, Evaluations: 4}
	s.Add(Stats{StatesExpanded: 10, DedupHits: 20, CandidatesPruned: 30, Evaluations: 40, Truncated: true})
	if s.StatesExpanded != 11 || s.DedupHits != 22 || s.CandidatesPruned != 33 || s.Evaluations != 44 {
		t.Fatalf("counters not accumulated: %+v", s)
	}
	if !s.Truncated {
		t.Fatal("truncation flag not sticky")
	}
}

// testInstance builds a minimal Switch instance for registry tests.
func testInstance(t *testing.T) *Instance {
	t.Helper()
	rs := []bitset.Set{bitset.FromMembers(2, 0), bitset.FromMembers(2, 1)}
	ins, err := model.NewSwitchInstance(2, 1, rs)
	if err != nil {
		t.Fatal(err)
	}
	return NewSwitch(ins)
}

func TestRegisterAndGet(t *testing.T) {
	s := NewSolver("solve-test-dummy", Capabilities{Kinds: []Kind{KindSwitch}},
		func(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
			return &Solution{Cost: 7, Exact: true}, nil
		})
	Register(s)
	got, err := Get("solve-test-dummy")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "solve-test-dummy" {
		t.Fatalf("Get returned %q", got.Name())
	}
	found := false
	for _, n := range Names() {
		if n == "solve-test-dummy" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered solver missing from Names()")
	}
	if _, err := Get("solve-test-no-such-solver"); err == nil {
		t.Fatal("Get accepted an unknown name")
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil solver", func() { Register(nil) })
	mustPanic("empty name", func() {
		Register(NewSolver("", Capabilities{}, nil))
	})
	Register(NewSolver("solve-test-dup", Capabilities{}, nil))
	mustPanic("duplicate", func() {
		Register(NewSolver("solve-test-dup", Capabilities{}, nil))
	})
}

func TestRunHousekeeping(t *testing.T) {
	Register(NewSolver("solve-test-run", Capabilities{Kinds: []Kind{KindSwitch}},
		func(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
			return &Solution{Cost: 3, Exact: true, Stats: Stats{StatesExpanded: 5}}, nil
		}))
	inst := testInstance(t)

	sol, err := Run(context.Background(), "solve-test-run", inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Kind != KindSwitch {
		t.Fatalf("Run did not stamp Kind: %v", sol.Kind)
	}
	if sol.Stats.WallTime <= 0 {
		t.Fatal("Run did not measure WallTime")
	}
	if sol.Stats.StatesExpanded != 5 {
		t.Fatal("Run clobbered solver stats")
	}

	if _, err := Run(context.Background(), "solve-test-no-such-solver", inst, Options{}); err == nil {
		t.Fatal("Run accepted an unknown solver")
	} else {
		var unknown *UnknownSolverError
		if !errors.As(err, &unknown) {
			t.Fatalf("unknown-solver error has type %T, want *UnknownSolverError", err)
		}
		if unknown.Name != "solve-test-no-such-solver" {
			t.Fatalf("UnknownSolverError.Name = %q", unknown.Name)
		}
		found := false
		for _, n := range unknown.Registered {
			found = found || n == "solve-test-run"
		}
		if !found {
			t.Fatalf("UnknownSolverError.Registered %v misses a registered solver", unknown.Registered)
		}
		if !strings.Contains(err.Error(), "solve-test-run") {
			t.Fatalf("error message does not list registered solvers: %v", err)
		}
	}
	if _, err := Run(context.Background(), "solve-test-run", nil, Options{}); err == nil {
		t.Fatal("Run accepted a nil instance")
	}
	if _, err := Run(context.Background(), "solve-test-run", inst, Options{Pop: -1}); err == nil {
		t.Fatal("Run accepted invalid options")
	}

	// Kind gating: the solver declares KindSwitch only.
	gi, err := model.NewGeneralInstance(1,
		[]model.Hypercontext{{Name: "h", Init: 1, PerStep: 1, Sat: bitset.Full(1)}}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), "solve-test-run", NewGeneral(gi), Options{}); err == nil {
		t.Fatal("Run dispatched an unsupported instance kind")
	}

	// A solver returning (nil, nil) is a protocol violation Run rejects.
	Register(NewSolver("solve-test-nil", Capabilities{Kinds: []Kind{KindSwitch}},
		func(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
			return nil, nil
		}))
	if _, err := Run(context.Background(), "solve-test-nil", inst, Options{}); err == nil {
		t.Fatal("Run accepted a nil solution")
	}
}

func TestRunPanicIsolation(t *testing.T) {
	// A solver panicking anywhere in its call tree must fail only its
	// own run: Run returns a typed *PanicError carrying the panic value
	// and a stack capture, and the calling goroutine survives.
	Register(NewSolver("solve-test-panicky", Capabilities{Kinds: []Kind{KindSwitch}},
		func(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
			panic("solver exploded")
		}))
	sol, err := Run(context.Background(), "solve-test-panicky", testInstance(t), Options{})
	if sol != nil {
		t.Fatalf("panicking solver returned a solution: %+v", sol)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "solver exploded" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "solve_test") {
		t.Fatalf("PanicError.Stack does not capture the panic site:\n%s", pe.Stack)
	}
	if strings.Contains(pe.Error(), string(pe.Stack)) && len(pe.Stack) > 0 {
		t.Fatal("Error() leaks the full stack into the message")
	}
	// The registry stays healthy: a later run on the same goroutine works.
	Register(NewSolver("solve-test-after-panic", Capabilities{Kinds: []Kind{KindSwitch}},
		func(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
			return &Solution{Cost: 1, Exact: true}, nil
		}))
	if _, err := Run(context.Background(), "solve-test-after-panic", testInstance(t), Options{}); err != nil {
		t.Fatalf("run after a panicked run failed: %v", err)
	}
}

func TestRunTimeout(t *testing.T) {
	// A solver that blocks until its context dies: Run's Options.Timeout
	// must cut it off.
	Register(NewSolver("solve-test-sleepy", Capabilities{Kinds: []Kind{KindSwitch}},
		func(ctx context.Context, inst *Instance, opts Options) (*Solution, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}))
	_, err := Run(context.Background(), "solve-test-sleepy", testInstance(t), Options{Timeout: 10 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timeout produced %v, want context.DeadlineExceeded", err)
	}
}
