package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// discardResponse is a ResponseWriter that drops the body, so the
// write benchmarks time the rendering and not a buffer's growth.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// requestPathFamilies are the instance shapes of perfbench's
// exact-cold mix (cmd-independent copies of its family settings).
var requestPathFamilies = []struct {
	name   string
	gen    func(workload.Config) (*model.MTSwitchInstance, error)
	cfg    workload.Config
	upload string
}{
	{"phased-small", workload.Phased, workload.Config{Tasks: 2, Steps: 32, Switches: 12, MeanPhase: 8, Seed: 11}, ""},
	{"phased", workload.Phased, workload.Config{Tasks: 2, Steps: 40, Switches: 12, MeanPhase: 10, Seed: 12}, ""},
	{"dense", workload.Dense, workload.Config{Tasks: 3, Steps: 40, Switches: 16, MeanPhase: 10, Seed: 13}, ""},
	{"sequential", workload.Phased, workload.Config{Tasks: 3, Steps: 40, Switches: 12, MeanPhase: 10, Seed: 14}, "sequential"},
	{"blocked", workload.Blocked, workload.Config{Tasks: 2, Steps: 288, Switches: 72, MeanPhase: 8, Seed: 15}, ""},
}

// BenchmarkRequestPath times each piece of a solve request's path
// outside the solver, per family of the exact-cold mix: decoding the
// body, resolving it to an instance, the exact and canonical cache
// keys, rendering the answer and writing the job status.
func BenchmarkRequestPath(b *testing.B) {
	for _, fam := range requestPathFamilies {
		mt, err := fam.gen(fam.cfg)
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(&SolveRequest{Solver: "exact", Instance: WireInstanceFrom(mt), Upload: fam.upload})
		if err != nil {
			b.Fatal(err)
		}
		req, err := decodeSolveRequest(body)
		if err != nil {
			b.Fatal(err)
		}
		res, err := req.resolve()
		if err != nil {
			b.Fatal(err)
		}
		sol, err := solve.Run(context.Background(), "exact", res.inst, solve.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		ws, err := wireSolution(sol, res.mt)
		if err != nil {
			b.Fatal(err)
		}
		now := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
		st := &JobStatus{ID: "job-1", State: string(JobDone), Solver: "exact", Hash: "00ff",
			SubmittedAt: now, StartedAt: &now, FinishedAt: &now, Result: ws}

		b.Run(fam.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := decodeSolveRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fam.name+"/resolve", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := req.resolve(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fam.name+"/request_key", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := requestKey(res.inst, res.solver, res.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fam.name+"/canonical_key", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonicalMTKey(res.mt, res.inst.Cost, res.solver, res.opts)
			}
		})
		b.Run(fam.name+"/render", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := wireSolution(sol, res.mt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fam.name+"/write", func(b *testing.B) {
			b.ReportAllocs()
			w := &discardResponse{h: http.Header{}}
			for i := 0; i < b.N; i++ {
				writeJSON(w, http.StatusOK, st)
			}
		})
	}
}
