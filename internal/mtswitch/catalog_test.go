package mtswitch

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
	"repro/internal/workload"
)

// buildCandidatesQuadratic is the catalog build that buildCandidates
// replaced, kept as its oracle: for every (task, start) it grows the
// union over every horizon, O(n²) unions per task, and applies the
// frontier byte budget and the MaxCandidates trim in forward (task,
// step) order as it goes.
func (e *engine) buildCandidatesQuadratic(ctx context.Context, o solve.Options) error {
	m, n := e.lay.m, e.ins.Steps()
	var candWords int64
	e.cands = make([][]packedCands, m)
	for j := 0; j < m; j++ {
		tw := e.lay.taskWords[j]
		e.cands[j] = make([]packedCands, n)
		acc := bitset.New(e.ins.Tasks[j].Local)
		for i := 0; i < n; i++ {
			if err := solve.Checkpoint(ctx); err != nil {
				return err
			}
			acc.Clear()
			c := packedCands{}
			overBudget := e.budgetWords > 0 && candWords >= e.budgetWords
			var pruned int64
			last := -1
			wj := e.taskWeightsOf(j)
			for end := i; end < n; end++ {
				acc.UnionWith(e.ins.Reqs[j][end])
				if cnt := acc.Count(); cnt != last {
					if overBudget && c.k == 1 {
						copy(c.words, acc.Words())
						c.counts[0] = weightedCountWords(acc.Words(), wj)
						pruned++
					} else {
						c.words = append(c.words, acc.Words()...)
						c.counts = append(c.counts, weightedCountWords(acc.Words(), wj))
						c.k++
					}
					last = cnt
				}
			}
			if pruned > 0 {
				e.stats.CandidatesPruned += pruned
				e.stats.Truncated = true
				e.stats.Degraded = true
			}
			if o.MaxCandidates > 0 && c.k > o.MaxCandidates {
				e.stats.CandidatesPruned += int64(c.k - o.MaxCandidates)
				keep := o.MaxCandidates - 1
				copy(c.words[keep*tw:(keep+1)*tw], c.words[(c.k-1)*tw:c.k*tw])
				c.counts[keep] = c.counts[c.k-1]
				c.words = c.words[:(keep+1)*tw]
				c.counts = c.counts[:keep+1]
				c.k = keep + 1
			}
			candWords += int64(len(c.words))
			e.cands[j][i] = c
		}
	}
	return nil
}

// catalogOf prepares an engine on ins, reduced by preprocessing when
// reduce is set (so column weights price the candidates), and builds
// its catalog with buildCandidates or the quadratic oracle.
func catalogOf(t testing.TB, ins *model.MTSwitchInstance, o solve.Options, reduce, quadratic bool) ([][]packedCands, solve.Stats) {
	t.Helper()
	target, px := ins, (*pruneContext)(nil)
	if red := preprocess(ins); reduce && red != nil {
		target, px = red.ins, &pruneContext{mult: red.mult, weights: red.weights}
	}
	e := &engine{}
	e.prepare(target, parallel, o, px)
	build := e.buildCandidates
	if quadratic {
		build = e.buildCandidatesQuadratic
	}
	if err := build(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	return e.cands, e.stats
}

// checkCatalog requires buildCandidates to reproduce the oracle's
// catalog — every (task, step)'s words, counts and k — and its
// CandidatesPruned, Truncated and Degraded, on ins raw and reduced.
// It reports whether the budget degraded the catalog.
func checkCatalog(t testing.TB, name string, ins *model.MTSwitchInstance, o solve.Options) bool {
	t.Helper()
	degraded := false
	for _, reduce := range []bool{false, true} {
		got, gs := catalogOf(t, ins, o, reduce, false)
		want, ws := catalogOf(t, ins, o, reduce, true)
		for j := range want {
			for i := range want[j] {
				g, w := &got[j][i], &want[j][i]
				if g.k != w.k || !slices.Equal(g.words, w.words) || !slices.Equal(g.counts, w.counts) {
					t.Fatalf("%s reduce=%t %+v: task %d step %d: catalog k=%d words %v counts %v, oracle k=%d words %v counts %v",
						name, reduce, o, j, i, g.k, g.words, g.counts, w.k, w.words, w.counts)
				}
			}
		}
		if gs.CandidatesPruned != ws.CandidatesPruned || gs.Truncated != ws.Truncated || gs.Degraded != ws.Degraded {
			t.Fatalf("%s reduce=%t %+v: pruned %d truncated %t degraded %t, oracle %d %t %t",
				name, reduce, o, gs.CandidatesPruned, gs.Truncated, gs.Degraded,
				ws.CandidatesPruned, ws.Truncated, ws.Degraded)
		}
		degraded = degraded || ws.Degraded
	}
	return degraded
}

// catalogOptions are the trims the catalog agreement tests sweep:
// none, candidate caps, and frontier byte budgets small enough that
// the catalog exhausts them part way through its build.
var catalogOptions = []solve.Options{
	{},
	{MaxCandidates: 1},
	{MaxCandidates: 3},
	{MaxFrontierBytes: 64},
	{MaxFrontierBytes: 512},
	{MaxFrontierBytes: 2048},
	{MaxCandidates: 2, MaxFrontierBytes: 1024},
}

// TestCatalogMatchesQuadratic pins the output-sized catalog build to
// the quadratic oracle on instances of every generator, with and
// without candidate caps and byte budgets.  The budget cases must
// degrade some catalogs part way, so the forward-order trim is what
// they test.
func TestCatalogMatchesQuadratic(t *testing.T) {
	degraded := 0
	gens := workload.Generators()
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := workload.Config{Tasks: 2 + int(seed)%2, Steps: 24 + 12*int(seed), Switches: 6 + 6*int(seed), MeanPhase: 6, Seed: seed}
			ins, err := gens[name](cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range catalogOptions {
				if checkCatalog(t, fmt.Sprintf("%s seed %d", name, seed), ins, o) {
					degraded++
				}
			}
		}
	}
	r := rand.New(rand.NewSource(5))
	for k := 0; k < 40; k++ {
		ins := randomMT(r, 3, 70, 12)
		if k%3 == 1 {
			ins = duplicateColumns(t, ins, r)
		}
		for _, o := range catalogOptions {
			if checkCatalog(t, fmt.Sprintf("random %d", k), ins, o) {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no budget degraded a catalog: the forward-order trim went untested")
	}
}

// FuzzCatalogAgreement feeds arbitrary small instances, some with
// duplicated steps or columns (run multiplicities and column weights
// after preprocessing), through buildCandidates and the quadratic
// oracle under every trim of catalogOptions.
func FuzzCatalogAgreement(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(3), uint8(8), uint8(0), uint8(0))
	f.Add(int64(7), uint8(3), uint8(70), uint8(9), uint8(4), uint8(1))
	f.Add(int64(99), uint8(1), uint8(2), uint8(12), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, maxM, maxL, maxN, mode, twin uint8) {
		r := rand.New(rand.NewSource(seed))
		ins := randomMT(r, 1+int(maxM)%3, 1+int(maxL)%130, 1+int(maxN)%16)
		switch twin % 3 {
		case 1:
			ins = duplicateSteps(t, ins, 2+r.Intn(2))
		case 2:
			ins = duplicateColumns(t, ins, r)
		}
		checkCatalog(t, "fuzz", ins, catalogOptions[int(mode)%len(catalogOptions)])
	})
}

// alignedFullScan is SolveAligned's DP with every start priced: the
// oracle of its early stop.  It returns the optimal aligned cost (W
// included) and the mask of the argmin chain, ties to the latest
// start as in SolveAligned.
func alignedFullScan(ins *model.MTSwitchInstance, opt model.CostOptions) (model.Cost, [][]bool) {
	m, n := ins.NumTasks(), ins.Steps()
	var allHyper model.Cost
	for _, t := range ins.Tasks {
		allHyper = opt.HyperUpload.Combine(allHyper, t.V)
	}
	d := make([]model.Cost, n+1)
	parent := make([]int, n+1)
	for e := 1; e <= n; e++ {
		d[e] = infCost
		unions := make([]bitset.Set, m)
		for j := range unions {
			unions[j] = bitset.New(ins.Tasks[j].Local)
		}
		for s := e - 1; s >= 0; s-- {
			var reconf model.Cost
			if opt.ReconfUpload == model.TaskParallel {
				reconf = model.Cost(ins.PublicGlobal)
			}
			for j := 0; j < m; j++ {
				unions[j].UnionWith(ins.Reqs[j][s])
				reconf = opt.ReconfUpload.Combine(reconf, model.Cost(unions[j].Count()))
			}
			if opt.ReconfUpload == model.TaskSequential {
				reconf += model.Cost(ins.PublicGlobal)
			}
			if c := d[s] + allHyper + reconf*model.Cost(e-s); c < d[e] {
				d[e], parent[e] = c, s
			}
		}
	}
	mask := make([][]bool, m)
	for j := range mask {
		mask[j] = make([]bool, n)
		for e := n; e > 0; e = parent[e] {
			mask[j][parent[e]] = true
		}
	}
	return d[n] + ins.W, mask
}

// TestAlignedEarlyStopMatchesFullScan pins SolveAligned's early stop:
// on instances of every generator and random ones, under every upload
// mode, with public-global columns and W, its cost and mask equal the
// full scan's, and it prices no more starts than the full scan's
// n(n+1)/2.
func TestAlignedEarlyStopMatchesFullScan(t *testing.T) {
	ctx := context.Background()
	modes := append(slices.Clone(frontierOpts), sequential)
	var insts []*model.MTSwitchInstance
	for name, gen := range workload.Generators() {
		for seed := int64(1); seed <= 3; seed++ {
			ins, err := gen(workload.Config{Tasks: 2 + int(seed)%3, Steps: 30 * int(seed), Switches: 12, MeanPhase: 4 * int(seed), Seed: seed})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			insts = append(insts, ins)
		}
	}
	r := rand.New(rand.NewSource(11))
	for k := 0; k < 60; k++ {
		insts = append(insts, withPG(r, randomMT(r, 3, 6, 14)))
	}
	// Zero install costs make every start's cutoff test succeed at once.
	free := randomMT(r, 2, 5, 10)
	for j := range free.Tasks {
		free.Tasks[j].V = 0
	}
	insts = append(insts, free)
	for k, ins := range insts {
		for _, opt := range modes {
			sol, err := SolveAligned(ctx, ins, opt)
			if err != nil {
				t.Fatal(err)
			}
			cost, mask := alignedFullScan(ins, opt)
			if sol.Cost != cost || !slices.EqualFunc(sol.Schedule.Hyper, mask, slices.Equal[[]bool]) {
				t.Fatalf("instance %d %+v: aligned cost %d mask %v, full scan %d %v",
					k, opt, sol.Cost, sol.Schedule.Hyper, cost, mask)
			}
			n := int64(ins.Steps())
			if sol.Stats.StatesExpanded > n*(n+1)/2 {
				t.Fatalf("instance %d: priced %d starts, more than the full scan's %d", k, sol.Stats.StatesExpanded, n*(n+1)/2)
			}
		}
	}
}
