package mtswitch

import (
	"context"
	"errors"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/phc"
)

// Pruned search layer for the packed frontier engine (DESIGN.md §9):
// an incumbent upper bound from cheap warm starts, admissible
// remaining-cost lower bounds cutting expansion branches, and a
// dominance filter removing frontier states another state renders
// redundant.  All three are deterministic — the bound depends only on
// per-step precomputed tables and the incumbent, and dominance runs as
// a single pass over the (cost, vector)-sorted frontier — so the
// frontier stays a function of the instance and options alone.

// pruneContext is what SolveExact hands the engine when the pruned
// layer is enabled: the incumbent cost and the preprocessing outcome.
type pruneContext struct {
	// incumbent is the cost of a known-valid schedule; expansion
	// branches whose admissible bound exceeds it are cut.
	incumbent model.Cost
	// mult are per-step multiplicities from run-length compression
	// (nil = every step counts once).
	mult []model.Cost
	// weights are per-task column weights from duplicate-column
	// grouping (nil rows = unweighted).
	weights [][]model.Cost
}

// errFrontierEmptied reports that bound pruning cut every successor of
// a step.  On an untruncated run this is impossible — the incumbent's
// own canonical path always survives the strict-inequality cutoff — so
// it signals that a beam/candidate cap dropped every state at least as
// good as the incumbent, and the incumbent itself is the answer.
var errFrontierEmptied = errors.New("mtswitch: pruned frontier emptied")

// warmStart computes a cheap feasible incumbent for bound pruning: the
// better of the aligned DP (which dominates the install-once and
// install-every-step patterns, both being aligned) and a per-task
// greedy mask.  Deterministic, and priced on the original instance so
// the incumbent is directly comparable with the DP totals.
func warmStart(ctx context.Context, ins *model.MTSwitchInstance, opt model.CostOptions) (model.Cost, [][]bool, error) {
	al, err := SolveAligned(ctx, ins, opt)
	if err != nil {
		return 0, nil, err
	}
	bestCost, bestMask := al.Cost, al.Schedule.Hyper

	mask := greedyMask(ins)
	sched, err := ins.CanonicalSchedule(mask)
	if err != nil {
		return 0, nil, err
	}
	cost, err := ins.Cost(sched, opt)
	if err != nil {
		return 0, nil, err
	}
	if cost < bestCost {
		bestCost, bestMask = cost, mask
	}
	return bestCost, bestMask, nil
}

// greedyMask opens a new segment for a task exactly when the incoming
// requirement no longer fits the requirements accumulated since the
// segment started — small contexts, unaligned breakpoints; the natural
// complement of the aligned warm start.
func greedyMask(ins *model.MTSwitchInstance) [][]bool {
	m, n := ins.NumTasks(), ins.Steps()
	mask := make([][]bool, m)
	for j := 0; j < m; j++ {
		row := make([]bool, n)
		row[0] = true
		union := ins.Reqs[j][0].Clone()
		for i := 1; i < n; i++ {
			if ins.Reqs[j][i].IsSubsetOf(union) {
				continue
			}
			row[i] = true
			union = ins.Reqs[j][i].Clone()
		}
		mask[j] = row
	}
	return mask
}

// weightedCountWords is the weighted popcount of a packed task context:
// each set bit contributes its column weight (1 when weights is nil).
func weightedCountWords(words []uint64, weights []model.Cost) model.Cost {
	if weights == nil {
		return model.Cost(popcountWords(words))
	}
	var c model.Cost
	for wi, w := range words {
		base := wi * 64
		for w != 0 {
			c += weights[base+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return c
}

// taskWeightsOf returns the engine's column weights for task j.
func (e *engine) taskWeightsOf(j int) []model.Cost {
	if e.weights == nil {
		return nil
	}
	return e.weights[j]
}

// multAt is the step multiplicity (1 when no steps collapsed).
func (e *engine) multAt(i int) model.Cost {
	if e.mult == nil {
		return 1
	}
	return e.mult[i]
}

// computeBounds precomputes the pruned layer's tables:
//
//   - sufUnion[j]: the suffix requirement unions U_j(i..n), used by the
//     dominance residue (bits outside the suffix union can never be
//     required again, so they are dead weight a state keeps only for
//     its popcount).
//   - tailReconf[j][i]: the reconf-upload fold of tasks j..m-1's
//     weighted requirement sizes at step i — an admissible bound on
//     the reconf contribution of the not-yet-branched tasks, since a
//     hypercontext can never be smaller than the requirement it
//     satisfies.
//   - sufLB[i]: an admissible bound on the total cost of steps i..n-1
//     from any state entering step i, the larger of the size bound and
//     the projection bound below.
//
// The size bound adds up per-step requirement sizes plus the
// public-global term, times the step multiplicity; hyper terms are
// bounded by zero.
//
// The projection bound is max_j (opt_j(i) − v_j), where opt_j(i) is
// task j's single-task Switch optimum over steps i..n-1 with W = v_j and
// a forced hyperreconfiguration at i.  Projecting a joint schedule onto
// task j gives such a schedule, and every joint per-step term (a max or
// a sum of nonnegative task terms) is at least its task-j term.  Only
// the first segment may run on the state's current hypercontext instead
// of an install at i.  That hypercontext is free, but no smaller than
// the requirement union it keeps covering, so the projection costs at
// least opt_j(i) minus the one v_j it did not pay.
//
// opt_j comes from phc.SwitchPrefixTable over task j's reversed rows,
// with the engine's column weights and step multiplicities, so the
// bound holds on the axis the DP runs on.  The context is checked once
// per (task, step) of that build.
func (e *engine) computeBounds(ctx context.Context) error {
	m, n := e.lay.m, e.ins.Steps()
	pub := model.Cost(e.ins.PublicGlobal)

	e.sufUnion = e.sufUnion[:0]
	for j := 0; j < m; j++ {
		tw := e.lay.taskWords[j]
		suf := make([]uint64, (n+1)*tw)
		for i := n - 1; i >= 0; i-- {
			dst := suf[i*tw : (i+1)*tw]
			copy(dst, suf[(i+1)*tw:(i+2)*tw])
			req := e.reqAt(j, i)
			for w := range dst {
				dst[w] |= req[w]
			}
		}
		e.sufUnion = append(e.sufUnion, suf)
	}

	for len(e.tailReconf) < m+1 {
		e.tailReconf = append(e.tailReconf, nil)
	}
	e.tailReconf = e.tailReconf[:m+1]
	for j := range e.tailReconf {
		e.tailReconf[j] = growCosts(e.tailReconf[j], n)
	}
	for i := 0; i < n; i++ {
		e.tailReconf[m][i] = 0
	}
	for j := m - 1; j >= 0; j-- {
		wj := e.taskWeightsOf(j)
		for i := 0; i < n; i++ {
			e.tailReconf[j][i] = e.opt.ReconfUpload.Combine(
				e.tailReconf[j+1][i], weightedCountWords(e.reqAt(j, i), wj))
		}
	}

	e.sufLB = growCosts(e.sufLB, n+1)
	e.sufLB[n] = 0
	for i := n - 1; i >= 0; i-- {
		step := e.tailReconf[0][i]
		if e.opt.ReconfUpload == model.TaskParallel {
			if pub > step {
				step = pub
			}
		} else {
			step += pub
		}
		e.sufLB[i] = e.sufLB[i+1] + step*e.multAt(i)
	}

	// The projection bound: reversed rows turn SwitchPrefixTable's
	// prefix optima into suffix optima, opt_j(i) = Cost[n−i].
	rev := make([]bitset.Set, n)
	var revMult []model.Cost
	if e.mult != nil {
		revMult = make([]model.Cost, n)
		for i, k := range e.mult {
			revMult[n-1-i] = k
		}
	}
	for j := 0; j < m; j++ {
		for i := range rev {
			rev[i] = e.ins.Reqs[j][n-1-i]
		}
		task := e.ins.Tasks[j]
		tab, err := phc.SwitchPrefixTable(ctx, task.Local, task.V, rev, e.taskWeightsOf(j), revMult)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			e.sufLB[i] = max(e.sufLB[i], tab.Cost[n-i]-task.V)
		}
	}
	return nil
}

func growCosts(s []model.Cost, n int) []model.Cost {
	if cap(s) < n {
		return make([]model.Cost, n)
	}
	return s[:n]
}

// domGroupCap bounds how many kept states one candidate is compared
// against inside a residue-hash group.  Capping keeps the filter
// O(frontier · cap) in the worst case; missed comparisons only forgo
// prunes, never soundness, and the cap is position-deterministic.
const domGroupCap = 64

// dominanceFilter compacts the sorted frontier order e.perm in place,
// dropping every state B for which an earlier-sorted state A (hence
// cost(A) ≤ cost(B)) exists with, for every task, an identical residue
// (context ∩ remaining suffix requirements) and a no-larger weighted
// context size.  A can mimic B's future schedule step for step: equal
// residues give identical keep-feasibility and identical install
// candidates, and the componentwise size bound keeps every keep at
// most as expensive, so A's best completion never exceeds B's and B is
// redundant.  The rule is transitive, so comparing only against kept
// states loses nothing.
//
// The filter runs between the deterministic (cost, vector) sort and
// the beam truncation: its outcome depends only on the sorted frontier
// and the precomputed suffix tables, and
// pruning before truncating means a beam keeps domGroupCap-diverse
// states instead of near-duplicates.
func (e *engine) dominanceFilter(t *stateTable) {
	m, sw := e.lay.m, e.lay.setWords
	next := e.step + 1

	if e.domGroups == nil {
		e.domGroups = make(map[uint64][]int32)
	} else {
		for k := range e.domGroups {
			delete(e.domGroups, k)
		}
	}
	e.domRes = e.domRes[:0]
	e.domCnt = e.domCnt[:0]
	e.domResBuf = growWords(e.domResBuf, sw)
	e.domCntBuf = growCosts(e.domCntBuf, m)
	res, cnt := e.domResBuf, e.domCntBuf

	out := 0
	var nk int32
	for _, p := range e.perm {
		st := t.entry(p)
		for j := 0; j < m; j++ {
			off, tw := e.lay.taskOff[j], e.lay.taskWords[j]
			suf := e.sufUnion[j][next*tw : (next+1)*tw]
			for w := 0; w < tw; w++ {
				res[off+w] = st[off+w] & suf[w]
			}
			cnt[j] = weightedCountWords(st[off:off+tw], e.taskWeightsOf(j))
		}
		h := bitset.HashWords(res)
		group := e.domGroups[h]
		lim := len(group)
		if lim > domGroupCap {
			lim = domGroupCap
		}
		dominated := false
		for _, k := range group[:lim] {
			if !wordsEqual(e.domRes[int(k)*sw:(int(k)+1)*sw], res) {
				continue
			}
			le := true
			base := int(k) * m
			for j := 0; j < m; j++ {
				if e.domCnt[base+j] > cnt[j] {
					le = false
					break
				}
			}
			if le {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		e.domRes = append(e.domRes, res...)
		e.domCnt = append(e.domCnt, cnt...)
		e.domGroups[h] = append(group, nk)
		nk++
		e.perm[out] = p
		out++
	}
	e.perm = e.perm[:out]
	e.domPeak = max(e.domPeak, len(e.domGroups))
}
