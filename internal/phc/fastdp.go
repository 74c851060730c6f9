package phc

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/solve"
)

// SolveSwitchFast is the pointer-technique variant of SolveSwitch the
// paper alludes to ("the runtime can be further improved with pointer
// techniques"): the unit-weight case of SwitchPrefixTable, with the
// schedule read back from its parent pointers.  The result is always
// identical to SolveSwitch's cost (property-tested).
func SolveSwitchFast(ctx context.Context, ins *model.SwitchInstance) (*Solution, error) {
	if err := solve.Checkpoint(ctx); err != nil {
		return nil, err
	}
	if ins == nil {
		return nil, fmt.Errorf("phc: nil instance")
	}
	n := ins.Len()
	if n == 0 {
		return &Solution{Seg: model.Segmentation{}, Cost: 0}, nil
	}
	tab, err := SwitchPrefixTable(ctx, ins.Universe, ins.W, ins.Reqs, nil, nil)
	if err != nil {
		return nil, err
	}

	var starts []int
	for e := n; e > 0; e = tab.Parent[e] {
		starts = append(starts, tab.Parent[e])
	}
	for i, j := 0, len(starts)-1; i < j; i, j = i+1, j-1 {
		starts[i], starts[j] = starts[j], starts[i]
	}
	seg := model.Segmentation{Starts: starts}
	hs, err := ins.CanonicalHypercontexts(seg)
	if err != nil {
		return nil, err
	}
	check, err := ins.CostWithHypercontexts(seg, hs)
	if err != nil {
		return nil, err
	}
	if check != tab.Cost[n] {
		return nil, fmt.Errorf("phc: fast DP cost %d disagrees with model cost %d", tab.Cost[n], check)
	}
	return &Solution{Seg: seg, Hypercontexts: hs, Cost: tab.Cost[n], Stats: tab.Stats}, nil
}

// SwitchTable is the prefix table of the single-task Switch DP.
type SwitchTable struct {
	// Cost[e] is the optimal cost of steps 0..e-1, which hyperreconfigure
	// before step 0 (Cost[0] = 0).
	Cost []model.Cost
	// Parent[e] is the first step of the last segment of a schedule that
	// achieves Cost[e].
	Parent []int
	// Stats counts the starts the DP priced (StatesExpanded) and the
	// saturated starts the prefix minima stood in for (CandidatesPruned).
	Stats solve.Stats
}

// SwitchPrefixTable solves every prefix of a single-task Switch
// instance whose column c weighs weights[c] and whose step i stands for
// mult[i] identical steps (nil means 1 throughout, for either).  A
// segment [s,e) costs
//
//	w + Σ_{c ∈ U(s,e)} weights[c] · Σ_{s ≤ i < e} mult[i],
//
// which is what a run-length compressed, column-grouped instance
// charges for its original steps and columns.  Run over reversed rows,
// Cost[k] is the optimum of the last k steps with a forced
// hyperreconfiguration before the first of them: the single-task
// suffix optimum the MT-Switch engine's projection bound reads.
//
// The DP scans, for every segment end e, the starts s < e while
// growing the union U(s,e).  Two observations cut that work (the
// pointer technique):
//
//  1. As s decreases the union can change at most |X| times, and once
//     it saturates at the full requirement support it never changes
//     again: every start below the saturation point sees the same
//     weighted size σ*.  With P the prefix sums of mult, for those starts
//
//     min_s ( D[s] + w + σ*·(P[e]−P[s]) )  =  w + σ*·P[e] + min_s ( D[s] − σ*·P[s] ),
//
//     and min_s (D[s] − σ*·P[s]) over a prefix is maintained
//     incrementally in O(1) per step because σ* is a constant of the
//     instance.
//
//  2. The saturation point for end e is the smallest s such that every
//     support switch occurs in c_s..c_e — maintained with last-occurrence
//     pointers (hence the name): satPoint(e) = min over support switches
//     x of lastOcc_x(e), updated in O(|c_e|) as e advances.
//
// The explicit scan then only covers s from e-1 down to the saturation
// point, which is short whenever requirements revisit their support
// quickly (typical for looping computations).  Worst case the scan
// degenerates to the plain O(n²) DP.  The context is checked once per
// step.
func SwitchPrefixTable(ctx context.Context, universe int, w model.Cost, reqs []bitset.Set, weights, mult []model.Cost) (*SwitchTable, error) {
	n := len(reqs)
	// P[e] − P[s] is how many steps s..e-1 stand for.
	pre := make([]model.Cost, n+1)
	for i := 0; i < n; i++ {
		k := model.Cost(1)
		if mult != nil {
			k = mult[i]
		}
		pre[i+1] = pre[i] + k
	}

	// Support = union of all requirements; σ* = its weighted size.
	support := make([]uint64, bitset.WordsFor(universe))
	for _, r := range reqs {
		for i, x := range r.Words() {
			support[i] |= x
		}
	}
	sigma := unionGain(make([]uint64, len(support)), support, weights)
	supportMembers := bitset.FromWords(universe, support).Members()

	// lastOcc[x] = largest step index ≤ current e containing switch x
	// (-1 if none yet).  satPoint(e) = min over support switches of
	// lastOcc (or -1 while some support switch has not occurred yet —
	// then no start saturates).
	lastOcc := make([]int, universe)
	for i := range lastOcc {
		lastOcc[i] = -1
	}

	tab := &SwitchTable{Cost: make([]model.Cost, n+1), Parent: make([]int, n+1)}
	d, parent := tab.Cost, tab.Parent
	// prefMin[s] = min over s' ≤ s of d[s'] − σ*·P[s'], with argmin.
	prefMin := make([]model.Cost, n+1)
	prefArg := make([]int, n+1)

	u := make([]uint64, len(support))
	for e := 1; e <= n; e++ {
		if err := solve.Checkpoint(ctx); err != nil {
			return nil, err
		}
		// Advance the last-occurrence pointers with step e-1.
		reqs[e-1].ForEach(func(x int) { lastOcc[x] = e - 1 })
		sat := n // no saturated region by default
		if sigma > 0 {
			for _, x := range supportMembers {
				if lastOcc[x] < 0 {
					sat = -1 // not all support switches seen yet
					break
				}
				if lastOcc[x] < sat {
					sat = lastOcc[x]
				}
			}
		} else {
			sat = 0 // empty support: every start is "saturated" at σ*=0
		}

		best := infCost
		bestS := 0
		pe := pre[e]
		// Saturated region: s ≤ sat, all with weighted size σ*.
		if sat >= 0 && sat <= e-1 {
			tab.Stats.StatesExpanded++
			// The pointer technique collapses the saturated starts
			// into one prefix-minimum lookup.
			tab.Stats.CandidatesPruned += int64(sat)
			if c := prefMin[sat] + w + sigma*pe; c < best {
				best = c
				bestS = prefArg[sat]
			}
		}
		// Explicit scan above the saturation point.
		clear(u)
		var size model.Cost
		for s := e - 1; s > sat && s >= 0; s-- {
			size += unionGain(u, reqs[s].Words(), weights)
			c := d[s] + w + size*(pe-pre[s])
			tab.Stats.StatesExpanded++
			if c < best {
				best = c
				bestS = s
			}
		}
		d[e] = best
		parent[e] = bestS
		// Extend the prefix minima with index e.
		if cand := d[e] - sigma*pe; cand < prefMin[e-1] {
			prefMin[e] = cand
			prefArg[e] = e
		} else {
			prefMin[e] = prefMin[e-1]
			prefArg[e] = prefArg[e-1]
		}
	}
	return tab, nil
}

// unionGain ORs r into u and returns the weight of the columns that
// were new to u (each column weighs 1 when weights is nil).
func unionGain(u, r []uint64, weights []model.Cost) model.Cost {
	var g model.Cost
	for i, x := range r {
		add := x &^ u[i]
		if add == 0 {
			continue
		}
		u[i] |= add
		if weights == nil {
			g += model.Cost(bits.OnesCount64(add))
			continue
		}
		for ; add != 0; add &= add - 1 {
			g += weights[i*64+bits.TrailingZeros64(add)]
		}
	}
	return g
}
