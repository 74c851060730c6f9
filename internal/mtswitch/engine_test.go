package mtswitch

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// prefixMT clones the first n steps of ins into a standalone instance
// (same tasks, PublicGlobal and W), the from-scratch baseline for the
// incremental property tests.
func prefixMT(t testing.TB, ins *model.MTSwitchInstance, n int) *model.MTSwitchInstance {
	t.Helper()
	rows := make([][]bitset.Set, ins.NumTasks())
	for j := range rows {
		rows[j] = make([]bitset.Set, n)
		for i := 0; i < n; i++ {
			rows[j][i] = ins.Reqs[j][i].Clone()
		}
	}
	out, err := model.NewMTSwitchInstance(ins.Tasks, rows)
	if err != nil {
		t.Fatal(err)
	}
	out.PublicGlobal = ins.PublicGlobal
	out.W = ins.W
	return out
}

// stepRows extracts steps [from,to) of ins in the step-major shape
// Extend/Amend take.
func stepRows(ins *model.MTSwitchInstance, from, to int) [][]bitset.Set {
	rows := make([][]bitset.Set, 0, to-from)
	for i := from; i < to; i++ {
		row := make([]bitset.Set, ins.NumTasks())
		for j := range row {
			row[j] = ins.Reqs[j][i].Clone()
		}
		rows = append(rows, row)
	}
	return rows
}

// engineConfigs enumerates the full property-test matrix of the issue:
// Workers {1,2,8} x pruning on and off.
func engineConfigs() []solve.Options {
	var out []solve.Options
	for _, disable := range []bool{false, true} {
		for _, workers := range agreementWorkers {
			out = append(out, solve.Options{Workers: workers, DisablePruning: disable})
		}
	}
	return out
}

// TestEngineExtendMatchesFromScratch is the issue's Extend property
// test: growing a trace batch by batch through Engine.Extend must give,
// after every batch, exactly the cost and schedule of a from-scratch
// solve of the grown prefix — across Workers {1,2,8}, pruning on and
// off, and every frontier upload mode.
func TestEngineExtendMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(61))
	instances := []*model.MTSwitchInstance{phased(t)}
	for k := 0; k < 8; k++ {
		instances = append(instances, withPG(r, randomMT(r, 3, 5, 8)))
	}
	for ii, full := range instances {
		n := full.Steps()
		if n < 2 {
			continue
		}
		// One batch plan per instance, shared by every configuration so
		// the comparisons line up.
		cuts := []int{1 + r.Intn(n-1)}
		for cuts[len(cuts)-1] < n {
			cuts = append(cuts, cuts[len(cuts)-1]+1+r.Intn(n-cuts[len(cuts)-1]))
		}
		for _, opt := range frontierOpts {
			for _, o := range engineConfigs() {
				eng, err := NewEngine(ctx, prefixMT(t, full, cuts[0]), opt, o, true)
				if err != nil {
					t.Fatal(err)
				}
				for c := 0; c < len(cuts); c++ {
					if c > 0 {
						if err := eng.Extend(ctx, stepRows(full, cuts[c-1], cuts[c])); err != nil {
							t.Fatalf("instance %d extend to %d: %v", ii, cuts[c], err)
						}
					}
					got, err := eng.Solution(ctx)
					if err != nil {
						t.Fatalf("instance %d o %+v len %d: %v", ii, o, cuts[c], err)
					}
					want, err := SolveExact(ctx, prefixMT(t, full, cuts[c]), opt, o)
					if err != nil {
						t.Fatal(err)
					}
					if got.Cost != want.Cost || !sameSchedule(t, got.Schedule, want.Schedule) {
						t.Fatalf("instance %d opt %+v o %+v: extended solve of %d steps cost %d, from-scratch %d (or schedules differ)",
							ii, opt, o, cuts[c], got.Cost, want.Cost)
					}
					if lrs := eng.LastResolveStart(); lrs < 0 || lrs > cuts[c] {
						t.Fatalf("instance %d: LastResolveStart %d outside [0,%d]", ii, lrs, cuts[c])
					}
				}
				eng.Close()
			}
		}
	}
}

// TestEngineAmendMatchesFromScratch: overwriting an interior window of
// an already-solved trace and re-solving must match a from-scratch
// solve of the amended trace, for every configuration.
func TestEngineAmendMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(67))
	for k := 0; k < 8; k++ {
		full := withPG(r, randomMT(r, 3, 5, 8))
		n := full.Steps()
		at := r.Intn(n)
		width := 1 + r.Intn(n-at)
		// Replacement rows, shared across configurations.
		repl := make([][]bitset.Set, width)
		for i := range repl {
			repl[i] = make([]bitset.Set, full.NumTasks())
			for j := range repl[i] {
				s := bitset.New(full.Tasks[j].Local)
				for b := 0; b < full.Tasks[j].Local; b++ {
					if r.Intn(3) == 0 {
						s.Add(b)
					}
				}
				repl[i][j] = s
			}
		}
		amended := prefixMT(t, full, n)
		for i := 0; i < width; i++ {
			for j := range amended.Reqs {
				amended.Reqs[j][at+i] = repl[i][j].Clone()
			}
		}
		for _, opt := range frontierOpts {
			for _, o := range engineConfigs() {
				eng, err := NewEngine(ctx, full, opt, o, true)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.Solution(ctx); err != nil {
					t.Fatal(err)
				}
				if err := eng.Amend(ctx, at, repl); err != nil {
					t.Fatalf("amend [%d,%d): %v", at, at+width, err)
				}
				got, err := eng.Solution(ctx)
				if err != nil {
					t.Fatal(err)
				}
				want, err := SolveExact(ctx, amended, opt, o)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost || !sameSchedule(t, got.Schedule, want.Schedule) {
					t.Fatalf("instance %d opt %+v o %+v amend [%d,%d): cost %d, from-scratch %d (or schedules differ)",
						k, opt, o, at, at+width, got.Cost, want.Cost)
				}
				eng.Close()
			}
		}
	}
}

// TestEngineRewindMatchesFromScratch: rewinding a completed solve to an
// arbitrary step and running it again must reproduce the original
// solution bit for bit (the issue's Rewind property test).
func TestEngineRewindMatchesFromScratch(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(71))
	for k := 0; k < 6; k++ {
		full := withPG(r, randomMT(r, 3, 5, 8))
		step := r.Intn(full.Steps() + 1)
		for _, opt := range frontierOpts {
			for _, o := range engineConfigs() {
				eng, err := NewEngine(ctx, full, opt, o, true)
				if err != nil {
					t.Fatal(err)
				}
				first, err := eng.Solution(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.Rewind(step); err != nil {
					t.Fatal(err)
				}
				again, err := eng.Solution(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if first.Cost != again.Cost || !sameSchedule(t, first.Schedule, again.Schedule) {
					t.Fatalf("instance %d opt %+v o %+v rewind %d: cost %d then %d (or schedules differ)",
						k, opt, o, step, first.Cost, again.Cost)
				}
				eng.Close()
			}
		}
	}
}

// TestEngineSuffixReuse pins the point of the refactor: appending a
// short suffix to a long solved trace must resume from a late frontier
// (not step 0) and expand far fewer states than the from-scratch solve
// did — with pruning off, and with pruning on over a 2×100 stream.
func TestEngineSuffixReuse(t *testing.T) {
	ctx := context.Background()
	stream, err := workload.Phased(workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		full *model.MTSwitchInstance
		o    solve.Options
	}{
		{phased(t), solve.Options{Workers: 1, DisablePruning: true}},
		{stream, solve.Options{Workers: 1}},
	} {
		n := c.full.Steps()
		eng, err := NewEngine(ctx, prefixMT(t, c.full, n-1), frontierOpts[0], c.o, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Solution(ctx); err != nil {
			t.Fatal(err)
		}
		fromScratch := eng.e.stats.StatesExpanded
		if err := eng.Extend(ctx, stepRows(c.full, n-1, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Solution(ctx); err != nil {
			t.Fatal(err)
		}
		if eng.LastResolveStart() == 0 {
			t.Fatalf("o %+v: appending one step re-solved from step 0; frontier reuse is broken", c.o)
		}
		if re := eng.ResolveExpanded(); re <= 0 || re >= fromScratch {
			t.Fatalf("o %+v: suffix re-solve expanded %d states, prefix solve expanded %d", c.o, re, fromScratch)
		}
		eng.Close()
	}
}

// TestEngineResumeRestoresStats: a resumed run reports the stats of a
// fresh solve, not those of the suffix it discarded.  Four rows that
// need every switch, then eight random ones that overflow a 3-state
// beam; amending the random rows into full ones resumes from step 4
// (pruning off) and must drop the truncation with them.
func TestEngineResumeRestoresStats(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(3))
	tasks := []model.Task{{Name: "A", Local: 6, V: 3}, {Name: "B", Local: 6, V: 3}}
	row := func(random bool) []bitset.Set {
		out := make([]bitset.Set, len(tasks))
		for j := range out {
			out[j] = bitset.Full(6)
			for b := 1; random && b < 6; b++ {
				if r.Intn(2) == 0 {
					out[j].Remove(b)
				}
			}
		}
		return out
	}
	var easy, trace [][]bitset.Set
	for i := 0; i < 4; i++ {
		trace = append(trace, row(false))
	}
	for i := 0; i < 8; i++ {
		trace = append(trace, row(true))
		easy = append(easy, row(false))
	}
	reqs := make([][]bitset.Set, len(tasks))
	for j := range reqs {
		for _, rw := range trace {
			reqs[j] = append(reqs[j], rw[j])
		}
	}
	ins, err := model.NewMTSwitchInstance(tasks, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{true, false} {
		o := solve.Options{Workers: 1, MaxStates: 3, DisablePruning: disable}
		eng, err := NewEngine(ctx, ins, frontierOpts[0], o, true)
		if err != nil {
			t.Fatal(err)
		}
		before, err := eng.Solution(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if disable && !before.Stats.Truncated {
			t.Fatal("the random rows did not truncate the beam")
		}
		if err := eng.Amend(ctx, 4, easy); err != nil {
			t.Fatal(err)
		}
		if disable && eng.LastResolveStart() != 4 {
			t.Fatalf("amend at 4 resumed from step %d", eng.LastResolveStart())
		}
		got, err := eng.Solution(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewEngine(ctx, eng.ins, frontierOpts[0], o, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solution(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Close()
		if got.Cost != want.Cost || got.Stats != want.Stats {
			t.Fatalf("pruning off %v: amended session cost %d stats %+v; fresh solve cost %d stats %+v",
				disable, got.Cost, got.Stats, want.Cost, want.Stats)
		}
		eng.Close()
	}
}

// TestEngineTightenedIncumbentRebuilds: a pruned run that adopted a
// tighter external incumbent mid-run decided its bound tests against
// two incumbents, so no margin describes it; the next trace change
// must rebuild from the root rather than resume.
func TestEngineTightenedIncumbentRebuilds(t *testing.T) {
	ctx := context.Background()
	o := solve.Options{Workers: 1}
	// Task-sequential hyper uploads and a dense trace whose warm start
	// misses the optimum, so publishing the optimum tightens the
	// incumbent.
	costs := frontierOpts[2]
	var full, prefix *model.MTSwitchInstance
	var opt *Solution
	for seed := int64(1); opt == nil; seed++ {
		if seed > 20 {
			t.Fatal("no trace whose warm start misses the optimum")
		}
		var err error
		full, err = workload.Dense(workload.Config{Tasks: 2, Steps: 40, Switches: 16, MeanPhase: 10, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		prefix = prefixMT(t, full, full.Steps()-1)
		warm, _, err := warmStart(ctx, prefix, costs)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveExact(ctx, prefix, costs, o)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost < warm {
			opt = sol
		}
	}
	n := full.Steps()
	eng, err := NewEngine(ctx, prefix, costs, o, true)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	board := solve.NewIncumbent()
	board.Publish(opt.Cost)
	if _, err := eng.Solution(solve.WithIncumbent(ctx, board)); err != nil {
		t.Fatal(err)
	}
	if eng.e.stats.IncumbentTightenings == 0 {
		t.Fatal("the published optimum did not tighten the warm-start incumbent")
	}
	if err := eng.Extend(ctx, stepRows(full, n-1, n)); err != nil {
		t.Fatal(err)
	}
	if eng.LastResolveStart() != 0 {
		t.Fatalf("resumed from step %d after a mid-run tightening", eng.LastResolveStart())
	}
	requireFreshFrames(t, eng, costs, o, "rebuilt after tightening")
}

// TestEngineOneShotRejectsIncrementalOps: a one-shot engine (the
// SolveExact path) must refuse Extend/Amend/Rewind rather than corrupt
// pooled state.
func TestEngineOneShotRejectsIncrementalOps(t *testing.T) {
	ctx := context.Background()
	ins := phased(t)
	eng, err := NewEngine(ctx, ins, frontierOpts[0], solve.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Extend(ctx, stepRows(ins, 0, 1)); err == nil {
		t.Fatal("one-shot Extend succeeded")
	}
	if err := eng.Amend(ctx, 0, stepRows(ins, 0, 1)); err == nil {
		t.Fatal("one-shot Amend succeeded")
	}
	if err := eng.Rewind(0); err == nil {
		t.Fatal("one-shot Rewind succeeded")
	}
}

// TestEngineAdvancePartial: stepping in dribs and drabs must land on
// the same solution as running to completion in one call.
func TestEngineAdvancePartial(t *testing.T) {
	ctx := context.Background()
	full := phased(t)
	for _, o := range engineConfigs() {
		eng, err := NewEngine(ctx, full, frontierOpts[0], o, true)
		if err != nil {
			t.Fatal(err)
		}
		for {
			done, err := eng.Advance(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		got, err := eng.Solution(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveExact(ctx, full, frontierOpts[0], o)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || !sameSchedule(t, got.Schedule, want.Schedule) {
			t.Fatalf("o %+v: stepped solve cost %d, one-shot %d (or schedules differ)", o, got.Cost, want.Cost)
		}
		eng.Close()
	}
}

// resumeOptions is the frame-identity matrix: pruning on and off, each
// unbounded and under a beam cap, a candidate cap and a byte budget.
func resumeOptions() []solve.Options {
	var out []solve.Options
	for _, disable := range []bool{false, true} {
		for _, o := range []solve.Options{{}, {MaxStates: 3}, {MaxCandidates: 2}, {MaxFrontierBytes: 2 << 10}} {
			o.Workers = 1
			o.DisablePruning = disable
			out = append(out, o)
		}
	}
	return out
}

// requireFreshFrames runs eng to completion and requires its frames,
// generations, cost, schedule and stats to equal those of a fresh
// incremental engine over the same trace.  A checkpoint-resumed
// engine's first frame has no margins on record, so they are skipped.
func requireFreshFrames(t *testing.T, eng *Engine, opt model.CostOptions, o solve.Options, what string) {
	t.Helper()
	ctx := context.Background()
	got, err := eng.Solution(ctx)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fresh, err := NewEngine(ctx, eng.ins, opt, o, true)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Solution(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || !sameSchedule(t, got.Schedule, want.Schedule) {
		t.Fatalf("%s: cost %d, fresh %d (or schedules differ)", what, got.Cost, want.Cost)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, fresh %+v", what, got.Stats, want.Stats)
	}
	if eng.frameBase+len(eng.frames) != len(fresh.frames) {
		t.Fatalf("%s: frames [%d,%d), fresh has %d", what, eng.frameBase, eng.frameBase+len(eng.frames), len(fresh.frames))
	}
	for i := range eng.frames {
		a, b := &eng.frames[i], &fresh.frames[eng.frameBase+i]
		if a.count != b.count || !slices.Equal(a.slab, b.slab) || !slices.Equal(a.costs, b.costs) {
			t.Fatalf("%s: frame %d frontier differs from a fresh solve's", what, eng.frameBase+i)
		}
		if eng.frameStats(a) != fresh.frameStats(b) {
			t.Fatalf("%s: frame %d stats %+v, fresh %+v", what, eng.frameBase+i, eng.frameStats(a), fresh.frameStats(b))
		}
		if (i > 0 || eng.frameBase == 0) && a.margins != b.margins {
			t.Fatalf("%s: frame %d margins %+v, fresh %+v", what, eng.frameBase+i, a.margins, b.margins)
		}
	}
	if len(eng.e.gens) != len(fresh.e.gens) {
		t.Fatalf("%s: %d generations, fresh %d", what, len(eng.e.gens), len(fresh.e.gens))
	}
	for i, g := range eng.e.gens {
		if !slices.Equal(g.prev, fresh.e.gens[i].prev) || !slices.Equal(g.hyper, fresh.e.gens[i].hyper) {
			t.Fatalf("%s: generation %d differs from a fresh solve's", what, i)
		}
	}
}

// traceOp is one session batch: an append (at < 0) or an amendment of
// the rows at at.
type traceOp struct {
	at   int
	rows [][]bitset.Set
}

// sessionOps splits a trace into an opening prefix and batches of
// about meanBatch appended rows; after a fraction amend of the batches
// follows an amendment that copies one or two rows from elsewhere in
// the trace so far (perfbench's stream-durable shape).
func sessionOps(r *rand.Rand, full *model.MTSwitchInstance, initial, meanBatch int, amend float64) []traceOp {
	var ops []traceOp
	for n := initial; n < full.Steps(); {
		size := min(1+r.Intn(2*meanBatch-1), full.Steps()-n)
		ops = append(ops, traceOp{at: -1, rows: stepRows(full, n, n+size)})
		n += size
		if r.Float64() < amend {
			w := min(1+r.Intn(2), n)
			at, from := r.Intn(n-w+1), r.Intn(n-w+1)
			ops = append(ops, traceOp{at: at, rows: stepRows(full, from, from+w)})
		}
	}
	return ops
}

// streamSession draws one of perfbench's stream-durable sessions: a
// 2×100 phased (12 switches) or dense (16 switches) trace opened with
// 20 rows, then batches of about 3 rows, 15% of them followed by a
// 1–2 row amendment.
func streamSession(tb testing.TB, r *rand.Rand, gen string, seed int64) (*model.MTSwitchInstance, []traceOp) {
	cfg := workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10, Seed: seed}
	if gen == "dense" {
		cfg.Switches = 16
	}
	full, err := workload.Generators()[gen](cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return full, sessionOps(r, full, 20, 3, 0.15)
}

// TestEngineResumeMatchesFreshFrames is the frame-identity property
// test of suffix reuse: after every Extend, Amend and Rewind, and
// across checkpoint resumes, an incremental engine's frames,
// generations, cost, schedule and stats equal a fresh engine's — with
// pruning on and off, for every frontier upload mode, unbounded and
// under each cap.  It also requires pruned sessions to actually resume
// past step 0.
func TestEngineResumeMatchesFreshFrames(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(83))
	type session struct {
		name    string
		full    *model.MTSwitchInstance
		initial int
		ops     []traceOp
	}
	var sessions []session
	for k := 0; k < 6; k++ {
		full := withPG(r, randomMT(r, 3, 5, 12))
		initial := 1 + r.Intn(full.Steps())
		sessions = append(sessions, session{fmt.Sprintf("random-%d", k), full, initial, sessionOps(r, full, initial, 2, 0.3)})
	}
	for _, gen := range []string{"phased", "dense"} {
		full, ops := streamSession(t, r, gen, 5)
		sessions = append(sessions, session{"stream-" + gen, full, 20, ops})
	}
	resumed := 0
	for _, s := range sessions {
		for oi, opt := range frontierOpts {
			for _, o := range resumeOptions() {
				what := fmt.Sprintf("%s opt %d o %+v", s.name, oi, o)
				eng, err := NewEngine(ctx, prefixMT(t, s.full, s.initial), opt, o, true)
				if err != nil {
					t.Fatal(err)
				}
				requireFreshFrames(t, eng, opt, o, what+" opening")
				for i, op := range s.ops {
					step := fmt.Sprintf("%s batch %d", what, i)
					if op.at < 0 {
						err = eng.Extend(ctx, op.rows)
					} else {
						err = eng.Amend(ctx, op.at, op.rows)
					}
					if err != nil {
						t.Fatalf("%s: %v", step, err)
					}
					requireFreshFrames(t, eng, opt, o, step)
					if eng.LastResolveStart() > 0 && !o.DisablePruning {
						resumed++
					}
					switch i % 7 {
					case 3:
						if err := eng.Rewind(r.Intn(eng.Steps() + 1)); err != nil {
							t.Fatal(err)
						}
						requireFreshFrames(t, eng, opt, o, step+" rewound")
					case 5:
						data, err := eng.Checkpoint(ctx)
						if err != nil {
							t.Fatal(err)
						}
						eng.Close()
						if eng, err = ResumeEngine(ctx, data, true); err != nil {
							t.Fatalf("%s: resume: %v", step, err)
						}
					}
				}
				eng.Close()
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no pruned batch resumed past step 0")
	}
}

// TestSizeBytesCoversRetainedHeap checks Engine.SizeBytes, the unit of
// the service's session memory budget, against the heap solved
// incremental engines actually retain: eight engines per shape, summed
// SizeBytes against the HeapAlloc delta after a collection, must cover
// at least 90% of it.
func TestSizeBytesCoversRetainedHeap(t *testing.T) {
	ctx := context.Background()
	shapes := []struct {
		name string
		gen  func(workload.Config) (*model.MTSwitchInstance, error)
		cfg  workload.Config
	}{
		{"phased-2x100", workload.Phased, workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10}},
		{"dense-2x100", workload.Dense, workload.Config{Tasks: 2, Steps: 100, Switches: 16, MeanPhase: 10}},
		{"blocked-2x2000", workload.Blocked, workload.Config{Tasks: 2, Steps: 2000, Switches: 72, MeanPhase: 8}},
	}
	for _, sh := range shapes {
		var instances [8]*model.MTSwitchInstance
		for k := range instances {
			cfg := sh.cfg
			cfg.Seed = int64(k + 1)
			ins, err := sh.gen(cfg)
			if err != nil {
				t.Fatal(err)
			}
			instances[k] = ins
		}
		var engines [8]*Engine
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		for k, ins := range instances {
			en, err := NewEngine(ctx, ins, parallel, solve.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := en.Solution(ctx); err != nil {
				t.Fatal(err)
			}
			engines[k] = en
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		var sized int64
		for _, en := range engines {
			sized += en.SizeBytes()
		}
		runtime.KeepAlive(&engines)
		heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		cover := float64(sized) / float64(heap)
		t.Logf("%s: SizeBytes %d, retained heap %d, coverage %.2f", sh.name, sized, heap, cover)
		if cover < 0.9 {
			t.Errorf("%s: SizeBytes covers %.0f%% of the %d bytes eight solved engines retain, want at least 90%%",
				sh.name, 100*cover, heap)
		}
	}
}
