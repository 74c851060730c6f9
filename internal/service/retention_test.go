//go:build !race

package service

import (
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/workload"
)

// TestFinishedJobsRetainTheirAnswerOnly bounds what finished jobs keep.
// After 256 distinct aligned solves, each submitted and polled once
// with the default cache, the live heap may grow by at most 1.5 times
// the mean rendered answer per job: the answer is all that a finished
// job, its cache line and its polls read, so the parsed instance, the
// solver's schedule and, with a data dir, the journaled request must
// go when the job finishes.  The race detector's shadow memory would
// blur the measurement, hence the build tag.
func TestFinishedJobsRetainTheirAnswerOnly(t *testing.T) {
	const jobs = 256
	families := []struct {
		name string
		gen  func(workload.Config) (*model.MTSwitchInstance, error)
		cfg  workload.Config
	}{
		{"phased-2x1024", workload.Phased, workload.Config{Tasks: 2, Steps: 1024, Switches: 12, MeanPhase: 10}},
		{"blocked-2x288", workload.Blocked, workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8}},
	}
	for _, dataDir := range []bool{false, true} {
		for _, fam := range families {
			name := fam.name
			if dataDir {
				name += "/data-dir"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{Workers: 1}
				if dataDir {
					cfg.DataDir, cfg.Fsync = t.TempDir(), durable.FsyncNever
				}
				s, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer shutdown(t, s)
				solveOne := func(seed int64) *WireSolution {
					c := fam.cfg
					c.Seed = seed
					mt, err := fam.gen(c)
					if err != nil {
						t.Fatal(err)
					}
					return doneResult(t, submitWait(t, s, &SolveRequest{Solver: "aligned", Instance: WireInstanceFrom(mt)}))
				}
				solveOne(jobs + 1) // the solver's and the server's one-time state

				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				answerBytes := 0
				for seed := int64(1); seed <= jobs; seed++ {
					answerBytes += len(solveOne(seed).raw)
				}
				runtime.GC()
				runtime.ReadMemStats(&after)
				perJob := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / jobs
				answer := float64(answerBytes) / jobs
				t.Logf("%.1f KiB retained per job, %.2f× its %.1f KiB answer", perJob/1024, perJob/answer, answer/1024)
				if perJob > 1.5*answer {
					t.Errorf("a finished job retains %.0f bytes, %.2f× its %.0f-byte answer (bound 1.5×)", perJob, perJob/answer, answer)
				}
			})
		}
	}
}

// TestCacheHitSubmitSkipsJournalMarshal pins that a data directory
// costs a literal repeat nothing: the request body is marshalled for
// the WAL only when the job is enqueued, so a submit the exact cache
// answers allocates no more with a data dir than without one, in
// allocations and in bytes.  Like the retention bound it is measured
// without the race detector, whose own allocations vary by run.
func TestCacheHitSubmitSkipsJournalMarshal(t *testing.T) {
	const runs = 20
	measure := func(dataDir string) (allocs, bytes float64) {
		s, err := Open(Config{Workers: 1, DataDir: dataDir})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(t, s)
		waitReady(t, s)
		req := blockedRequest(t, "aligned", 288)
		first, _, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, first)
		repeat := func() {
			j, _, err := s.Submit(req)
			if err != nil || !j.CacheHit {
				t.Fatalf("repeat submit: err %v, cache hit %t", err, j != nil && j.CacheHit)
			}
		}
		allocs = testing.AllocsPerRun(runs, repeat)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			repeat()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	plainAllocs, plainBytes := measure("")
	durAllocs, durBytes := measure(t.TempDir())
	t.Logf("per cache-hit submit: %.1f allocs %.0f B plain, %.1f allocs %.0f B with a data dir",
		plainAllocs, plainBytes, durAllocs, durBytes)
	if durAllocs > plainAllocs+1 || durBytes > plainBytes*1.1 {
		t.Fatalf("a cache-hit submit allocates %.1f times (%.0f B) with a data dir, %.1f (%.0f B) without",
			durAllocs, durBytes, plainAllocs, plainBytes)
	}
}
