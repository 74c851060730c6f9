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
