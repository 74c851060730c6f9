package phc

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
)

// prefixTableFullScan is SwitchPrefixTable with every start above the
// saturation point priced: the oracle of its early stop.  It keeps the
// saturated-region lookup and the tie rules (the lookup first, then
// only strictly smaller explicit starts), so its Parent is the one the
// early stop must reproduce.
func prefixTableFullScan(universe int, w model.Cost, reqs []bitset.Set, weights, mult []model.Cost) (cost []model.Cost, parent []int) {
	n := len(reqs)
	pre := make([]model.Cost, n+1)
	for i := 0; i < n; i++ {
		pre[i+1] = pre[i] + multAt(mult, i)
	}
	support := make([]uint64, bitset.WordsFor(universe))
	for _, r := range reqs {
		for i, x := range r.Words() {
			support[i] |= x
		}
	}
	sigma := unionGain(make([]uint64, len(support)), support, weights)
	members := bitset.FromWords(universe, support).Members()
	lastOcc := make([]int, universe)
	for i := range lastOcc {
		lastOcc[i] = -1
	}
	cost, parent = make([]model.Cost, n+1), make([]int, n+1)
	prefMin, prefArg := make([]model.Cost, n+1), make([]int, n+1)
	u := make([]uint64, len(support))
	for e := 1; e <= n; e++ {
		reqs[e-1].ForEach(func(x int) { lastOcc[x] = e - 1 })
		sat := 0
		if sigma > 0 {
			sat = n
			for _, x := range members {
				if lastOcc[x] < 0 {
					sat = -1
					break
				}
				sat = min(sat, lastOcc[x])
			}
		}
		best, bestS := infCost, 0
		if sat >= 0 && sat <= e-1 {
			if c := prefMin[sat] + w + sigma*pre[e]; c < best {
				best, bestS = c, prefArg[sat]
			}
		}
		clear(u)
		var size model.Cost
		for s := e - 1; s > sat && s >= 0; s-- {
			size += unionGain(u, reqs[s].Words(), weights)
			if c := cost[s] + w + size*(pre[e]-pre[s]); c < best {
				best, bestS = c, s
			}
		}
		cost[e], parent[e] = best, bestS
		if c := cost[e] - sigma*pre[e]; c < prefMin[e-1] {
			prefMin[e], prefArg[e] = c, e
		} else {
			prefMin[e], prefArg[e] = prefMin[e-1], prefArg[e-1]
		}
	}
	return cost, parent
}

// TestSwitchPrefixTableEarlyStopMatchesFullScan pins the early stop of
// SwitchPrefixTable's explicit scan: with and without column weights
// and step multiplicities, and with install costs from 0 up, its Cost
// and Parent equal the full scan's, and it prices no more starts.
func TestSwitchPrefixTableEarlyStopMatchesFullScan(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(53))
	for k := 0; k < 400; k++ {
		universe := 1 + r.Intn(70)
		n := 1 + r.Intn(60)
		density := 2 + r.Intn(8)
		reqs := make([]bitset.Set, n)
		for i := range reqs {
			s := bitset.New(universe)
			for b := 0; b < universe; b++ {
				if r.Intn(density) == 0 {
					s.Add(b)
				}
			}
			reqs[i] = s
		}
		var weights, mult []model.Cost
		if k%2 == 1 {
			weights = make([]model.Cost, universe)
			for c := range weights {
				weights[c] = model.Cost(1 + r.Intn(4))
			}
			mult = make([]model.Cost, n)
			for i := range mult {
				mult[i] = model.Cost(1 + r.Intn(3))
			}
		}
		w := model.Cost(r.Intn(12))
		tab, err := SwitchPrefixTable(ctx, universe, w, reqs, weights, mult)
		if err != nil {
			t.Fatal(err)
		}
		cost, parent := prefixTableFullScan(universe, w, reqs, weights, mult)
		if !slices.Equal(tab.Cost, cost) || !slices.Equal(tab.Parent, parent) {
			t.Fatalf("instance %d (w %d, weighted %t): Cost %v Parent %v, full scan %v %v",
				k, w, weights != nil, tab.Cost, tab.Parent, cost, parent)
		}
		if full := int64(n) * int64(n+1) / 2; tab.Stats.StatesExpanded > full {
			t.Fatalf("instance %d: priced %d starts, more than the full scan's %d", k, tab.Stats.StatesExpanded, full)
		}
	}
}
