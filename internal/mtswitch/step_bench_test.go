package mtswitch

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// stepShapes are the instance families of BenchmarkStepExpansion: the
// frontier-engine families of perfbench's exact-cold mix, the 2×100
// traces its stream-durable sessions re-solve, one large phased shape
// whose steps generate thousands of successors, and two blocked shapes
// with exact-cold's blocked generator settings, solved monolithically
// (hyperd sends 288 steps to exact-partitioned instead).
var stepShapes = []struct {
	name string
	gen  func(workload.Config) (*model.MTSwitchInstance, error)
	cfg  workload.Config
}{
	{"phased-small-2x32", workload.Phased, workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8}},
	{"phased-2x40", workload.Phased, workload.Config{Tasks: 2, Steps: 40, Switches: 12, MeanPhase: 10}},
	{"dense-3x40", workload.Dense, workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10}},
	{"stream-phased-2x100", workload.Phased, workload.Config{Tasks: 2, Steps: 100, Switches: 12, MeanPhase: 10}},
	{"stream-dense-2x100", workload.Dense, workload.Config{Tasks: 2, Steps: 100, Switches: 16, MeanPhase: 10}},
	{"phased-4x64", workload.Phased, workload.Config{Tasks: 4, Steps: 64, Switches: 12, MeanPhase: 8}},
	{"blocked-2x288", workload.Blocked, workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8}},
	{"blocked-3x512", workload.Blocked, workload.Config{Tasks: 3, Steps: 512, Switches: 72, MeanPhase: 8}},
}

// BenchmarkStepExpansion times exact solves (pruning on, the served
// default) of each shape over eight seeds.  succ/step is the
// successors generated per step.  The engine expands each step on the
// calling goroutine, so there is no worker-count variant.
//
//	go test ./internal/mtswitch -run '^$' -bench StepExpansion
func BenchmarkStepExpansion(b *testing.B) {
	ctx := context.Background()
	opt := model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
	for _, sh := range stepShapes {
		var instances []*model.MTSwitchInstance
		for seed := int64(1); seed <= 8; seed++ {
			cfg := sh.cfg
			cfg.Seed = seed
			ins, err := sh.gen(cfg)
			if err != nil {
				b.Fatal(err)
			}
			instances = append(instances, ins)
		}
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var expanded, steps int64
			for i := 0; i < b.N; i++ {
				ins := instances[i%len(instances)]
				sol, err := SolveExact(ctx, ins, opt, solve.Options{})
				if err != nil {
					b.Fatal(err)
				}
				expanded += sol.Stats.StatesExpanded
				steps += int64(ins.Steps())
			}
			b.ReportMetric(float64(expanded)/float64(steps), "succ/step")
		})
	}
}

// BenchmarkSessionStream streams perfbench's stream-durable session
// shapes (streamSession, four seeds each) through an incremental
// Engine, pruning on and off.  One iteration
// is one session; the opening solve is not timed.  ns/batch is the time
// to apply a batch and re-solve, resolved/batch the re-solved steps
// (Steps − LastResolveStart) and succ/batch the successors generated.
//
//	go test ./internal/mtswitch -run '^$' -bench SessionStream
func BenchmarkSessionStream(b *testing.B) {
	ctx := context.Background()
	opt := model.CostOptions{HyperUpload: model.TaskParallel, ReconfUpload: model.TaskParallel}
	type session struct {
		opening *model.MTSwitchInstance
		ops     []traceOp
	}
	r := rand.New(rand.NewSource(1))
	var sessions []session
	for seed := int64(1); seed <= 4; seed++ {
		for _, gen := range []string{"phased", "dense"} {
			full, ops := streamSession(b, r, gen, seed)
			sessions = append(sessions, session{prefixMT(b, full, 20), ops})
		}
	}
	for _, disable := range []bool{false, true} {
		name := "pruned"
		if disable {
			name = "unpruned"
		}
		b.Run(name, func(b *testing.B) {
			o := solve.Options{DisablePruning: disable}
			var batches, resolved, succ int64
			for i := 0; i < b.N; i++ {
				s := sessions[i%len(sessions)]
				b.StopTimer()
				eng, err := NewEngine(ctx, s.opening, opt, o, true)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.Solution(ctx); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, op := range s.ops {
					if op.at < 0 {
						err = eng.Extend(ctx, op.rows)
					} else {
						err = eng.Amend(ctx, op.at, op.rows)
					}
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eng.Solution(ctx); err != nil {
						b.Fatal(err)
					}
					batches++
					resolved += int64(eng.Steps() - eng.LastResolveStart())
					succ += eng.ResolveExpanded()
				}
				eng.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(batches), "ns/batch")
			b.ReportMetric(float64(resolved)/float64(batches), "resolved/batch")
			b.ReportMetric(float64(succ)/float64(batches), "succ/batch")
		})
	}
}
