package mtswitch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// countdownCtx is a context whose Done channel reads as closed from its
// k-th poll on (never when k ≤ 0).  With record set it also notes the
// function behind every poll, so a test can tell where each pass of a
// solve starts and ends.
type countdownCtx struct {
	context.Context
	k      int
	record bool

	mu      sync.Mutex
	polls   int
	callers []string
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func newCountdown(k int, record bool) *countdownCtx {
	return &countdownCtx{Context: context.Background(), k: k, record: record}
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.record {
		c.callers = append(c.callers, pollCaller())
	}
	if c.k > 0 && c.polls >= c.k {
		return closedDone
	}
	return nil
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.k > 0 && c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// pollCaller names the function that polled Done through
// solve.Checkpoint.
func pollCaller() string {
	pc := make([]uintptr, 16)
	n := runtime.Callers(3, pc) // skip Callers, pollCaller and Done
	frames := runtime.CallersFrames(pc[:n])
	for {
		f, more := frames.Next()
		if f.Function != "repro/internal/solve.Checkpoint" || !more {
			return f.Function
		}
	}
}

// pass is a run of consecutive polls made by one function.
type pass struct {
	fn          string
	first, last int // 0-based poll indices
}

// preparationPasses splits the polls a solve made before its first
// frontier expansion into passes.
func preparationPasses(callers []string) []pass {
	var out []pass
	for i, fn := range callers {
		if strings.HasSuffix(fn, ".expandFrontier") {
			break
		}
		if len(out) > 0 && out[len(out)-1].fn == fn {
			out[len(out)-1].last = i
			continue
		}
		out = append(out, pass{fn: fn, first: i, last: i})
	}
	return out
}

// TestSolveExactCancelledDuringPreparation cancels a pruned solve at
// about 50 points spread over the polls its preparation makes (the warm
// start, the projection tables and the candidate catalog), including
// each pass's first and last poll.  Every run must return
// context.Canceled, never a solution or a panic, and a solve after the
// sweep still finds the optimum.
func TestSolveExactCancelledDuringPreparation(t *testing.T) {
	ins, err := workload.Phased(workload.Config{Tasks: 2, Steps: 512, Switches: 12, MeanPhase: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := newCountdown(0, true)
	want, err := SolveExact(rec, ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	passes := preparationPasses(rec.callers)
	for _, fn := range []string{".SolveAligned", "phc.SwitchPrefixTable", ".buildCandidates"} {
		found := false
		for _, p := range passes {
			found = found || strings.HasSuffix(p.fn, fn)
		}
		if !found {
			t.Fatalf("no preparation pass polls from %s; passes: %+v", fn, passes)
		}
	}
	end := passes[len(passes)-1].last
	ks := map[int]bool{}
	for _, p := range passes {
		ks[p.first+1], ks[p.last+1] = true, true
	}
	for i := 0; i < 40; i++ {
		ks[1+i*end/39] = true
	}
	for k := range ks {
		sol, err := solveCountdown(ins, k)
		if sol != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d of %d: solution %v, error %v; want context.Canceled", k, end+1, sol != nil, err)
		}
	}
	got, err := SolveExact(context.Background(), ins, parallel, solve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("solve after the cancellations cost %d, want %d", got.Cost, want.Cost)
	}
}

// solveCountdown runs SolveExact under a context cancelled from its
// k-th poll, turning a panic into an error.
func solveCountdown(ins *model.MTSwitchInstance, k int) (sol *Solution, err error) {
	defer func() {
		if r := recover(); r != nil {
			sol, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return SolveExact(newCountdown(k, false), ins, parallel, solve.Options{})
}

// TestProjectionBuildPollsPerStep checks that building the projection
// tables of a long trace polls the context at least once per (task,
// reduced step).
func TestProjectionBuildPollsPerStep(t *testing.T) {
	ins, err := workload.Phased(workload.Config{Tasks: 2, Steps: 4096, Switches: 12, MeanPhase: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	target, px := ins, &pruneContext{}
	if red := preprocess(ins); red != nil {
		target, px.mult, px.weights = red.ins, red.mult, red.weights
	}
	e := &engine{}
	e.prepare(target, parallel, solve.Options{}, px)
	rec := newCountdown(0, true)
	if err := e.computeBounds(rec); err != nil {
		t.Fatal(err)
	}
	polls := 0
	for _, fn := range rec.callers {
		if strings.HasSuffix(fn, "phc.SwitchPrefixTable") {
			polls++
		}
	}
	if want := target.NumTasks() * target.Steps(); polls < want {
		t.Fatalf("projection build polled %d times over %d tasks × %d reduced steps, want at least %d",
			polls, target.NumTasks(), target.Steps(), want)
	}
}
