package partition

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// correctCouplingWholeSchedule is the whole-schedule form of
// correctCoupling, kept as its reference: every trial copies the mask,
// rebuilds the full canonical schedule and re-prices it with Cost.
func correctCouplingWholeSchedule(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions, hyper [][]bool, boundaries []int, cost model.Cost, sched *model.MTSchedule) (model.Cost, *model.MTSchedule, error) {
	m := ins.NumTasks()
	best, bestSched := cost, sched
	trial := make([][]bool, m)
	for j := range trial {
		trial[j] = make([]bool, len(hyper[j]))
	}
	for sweep := 0; sweep < 4; sweep++ {
		if err := solve.Checkpoint(ctx); err != nil {
			return 0, nil, err
		}
		improved := false
		for _, s := range boundaries {
			for variant := -1; variant < m; variant++ {
				if variant >= 0 && !hyper[variant][s] {
					continue
				}
				any := false
				for j := 0; j < m; j++ {
					copy(trial[j], hyper[j])
					if variant < 0 && trial[j][s] {
						trial[j][s] = false
						any = true
					}
				}
				if variant >= 0 {
					trial[variant][s] = false
					any = true
				}
				if !any {
					continue
				}
				cand, err := ins.CanonicalSchedule(trial)
				if err != nil {
					return 0, nil, fmt.Errorf("partition: correction: %w", err)
				}
				c, err := ins.Cost(cand, opt)
				if err != nil {
					return 0, nil, fmt.Errorf("partition: correction cost: %w", err)
				}
				if c < best {
					best, bestSched = c, cand
					for j := 0; j < m; j++ {
						copy(hyper[j], trial[j])
					}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, bestSched, nil
}

// TestCorrectCouplingMatchesWholeSchedule pins the segment-local trial
// pricing to the whole-schedule reference: random instances of every
// generator with random v_j and public-global terms, random install
// masks and boundaries, under all four upload-mode combinations.  The
// cost, the corrected mask and the schedule must be identical.
func TestCorrectCouplingMatchesWholeSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	gens := workload.Generators()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	modes := []model.UploadMode{model.TaskParallel, model.TaskSequential}
	ctx := context.Background()
	accepted := 0
	for trial := 0; trial < 600; trial++ {
		cfg := workload.Config{
			Tasks:     1 + r.Intn(4),
			Steps:     2 + r.Intn(48),
			Switches:  1 + r.Intn(80),
			MeanPhase: 1 + r.Intn(8),
			CutWidth:  r.Intn(3),
			Seed:      1 + r.Int63n(1000),
		}
		ins, err := gens[names[trial%len(names)]](cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := range ins.Tasks {
			ins.Tasks[j].V = model.Cost(1 + r.Intn(12))
		}
		if r.Intn(2) == 0 {
			ins.PublicGlobal = r.Intn(10)
		}
		n, m := ins.Steps(), ins.NumTasks()
		var boundaries []int
		for s := 1; s < n; s++ {
			if r.Intn(4) == 0 {
				boundaries = append(boundaries, s)
			}
		}
		mask := make([][]bool, m)
		for j := range mask {
			mask[j] = make([]bool, n)
			mask[j][0] = true
			for i := 1; i < n; i++ {
				mask[j][i] = r.Intn(6) == 0
			}
			for _, s := range boundaries {
				mask[j][s] = r.Intn(5) != 0
			}
		}
		for _, hm := range modes {
			for _, rm := range modes {
				opt := model.CostOptions{HyperUpload: hm, ReconfUpload: rm}
				sched, err := ins.CanonicalSchedule(mask)
				if err != nil {
					t.Fatal(err)
				}
				s0, err := ins.Cost(sched, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, want := cloneMask(mask), cloneMask(mask)
				gc, gs, err := correctCoupling(ctx, ins, opt, got, boundaries, s0, sched)
				if err != nil {
					t.Fatalf("trial %d %+v: %v", trial, opt, err)
				}
				wc, ws, err := correctCouplingWholeSchedule(ctx, ins, opt, want, boundaries, s0, sched)
				if err != nil {
					t.Fatal(err)
				}
				if gc != wc {
					t.Fatalf("trial %d %+v: cost %d, reference %d", trial, opt, gc, wc)
				}
				if gc < s0 {
					accepted++
				}
				for j := 0; j < m; j++ {
					if !slices.Equal(got[j], want[j]) || !slices.Equal(gs.Hyper[j], ws.Hyper[j]) {
						t.Fatalf("trial %d %+v: task %d mask differs from the reference", trial, opt, j)
					}
					for i := 0; i < n; i++ {
						if !gs.Hctx[j][i].Equal(ws.Hctx[j][i]) {
							t.Fatalf("trial %d %+v: task %d hypercontext %d differs from the reference", trial, opt, j, i)
						}
					}
				}
			}
		}
	}
	t.Logf("%d of 2400 runs accepted a correction", accepted)
	// The comparison must cover corrections, not only the unchanged path.
	if accepted < 100 {
		t.Fatalf("only %d of 2400 runs accepted a correction", accepted)
	}
}

func cloneMask(mask [][]bool) [][]bool {
	out := make([][]bool, len(mask))
	for j, row := range mask {
		out[j] = slices.Clone(row)
	}
	return out
}
