// Package partition decomposes large MT-Switch instances along the
// step axis: an exact interval DP chooses the window boundaries that
// cut the least shared switch-column activity, the windows are solved
// independently (and concurrently) by the exact engine, and the window
// schedules are stitched back together with a coupling-correction pass.
//
// The activity structure is one step interval per switch column: the
// column of task j is required somewhere on [first, last].  A window
// boundary before step s cuts the column iff first < s ≤ last — its
// hypercontext then has to be paid for on both sides of the boundary.
// (Grouping a task's columns with identical requirement patterns, as
// the exact engine's preprocess layer does, changes nothing here: a
// group's interval is each member's interval and its weight is its
// member count.)  Minimizing the cut minimizes the coupling the stitch
// has to correct for.
//
// The stitched schedule is always feasible, so its cost is an upper
// bound on the optimum; forcing an all-task install at each boundary
// of an optimal schedule raises its cost by at most the boundary's
// Δ(s) (the HyperUpload-combine of every task's v_j), so the optimum
// is certified to lie in [Cost − StitchBound, Cost] with
// StitchBound = Σ_s Δ(s) − (S0 − Cost), where S0 is the pre-correction
// stitched cost.  An empty column cut does NOT by itself make the
// stitch exact (a single task with requirement {A} then {B} has zero
// crossing columns, yet keeping one install beats splitting); on
// block-structured workloads with v_j equal to the per-block working
// set (workload.Blocked), boundary installs are exchange-argument
// optimal and the stitched cost equals the monolithic optimum —
// pinned by the property tests, not claimed by Solution.Exact.
package partition

import (
	"math"
	"math/bits"

	"repro/internal/model"
)

// CutProfile returns w[s] for every candidate boundary s ∈ [1, n−1]:
// the number of (task, column) pairs whose required steps lie on both
// sides of a window boundary before step s, first < s ≤ last.  Index 0
// is unused and zero.  Each column's first and last required step come
// from one walk over every step's set bits, and a difference array
// turns the intervals into the profile: O(requirement bits + columns +
// steps).
func CutProfile(ins *model.MTSwitchInstance) []int64 {
	n := ins.Steps()
	diff := make([]int64, n+1)
	var first, last []int
	for j, reqs := range ins.Reqs {
		l := ins.Tasks[j].Local
		if cap(first) < l {
			first, last = make([]int, l), make([]int, l)
		}
		first, last = first[:l], last[:l]
		for c := range first {
			first[c] = -1
		}
		for i, r := range reqs {
			for wi, w := range r.Words() {
				for ; w != 0; w &= w - 1 {
					c := wi*64 + bits.TrailingZeros64(w)
					if first[c] < 0 {
						first[c] = i
					}
					last[c] = i
				}
			}
		}
		for c, f := range first {
			if f >= 0 && last[c] > f {
				diff[f+1]++
				diff[last[c]+1]--
			}
		}
	}
	w := make([]int64, n)
	var acc int64
	for s := 1; s < n; s++ {
		acc += diff[s]
		w[s] = acc
	}
	return w
}

// Plan is a chosen step-axis decomposition: interior boundaries in
// increasing order (window w spans [Boundaries[w−1], Boundaries[w]),
// with 0 and n implied at the ends), the per-boundary cut weights,
// and their total.  CutColumns counts (column, boundary) incidences —
// a column spanning two boundaries counts twice, matching the
// per-boundary certified bound Σ_s Δ(s).
type Plan struct {
	Boundaries []int
	Weights    []int64
	CutColumns int64
}

// Windows expands the plan into [lo, hi) step windows of an n-step
// instance.
func (p *Plan) Windows(n int) [][2]int {
	out := make([][2]int, 0, len(p.Boundaries)+1)
	lo := 0
	for _, s := range p.Boundaries {
		out = append(out, [2]int{lo, s})
		lo = s
	}
	return append(out, [2]int{lo, n})
}

// autoStepThreshold is the instance size below which partitioning is
// not worth the stitch slack; autoWindowSteps is the target window
// length of an automatic plan.
const (
	autoStepThreshold = 64
	autoWindowSteps   = 32
	maxAutoPartitions = 64
)

// AutoPartitions picks the automatic window count for an n-step
// instance: 1 (monolithic) below autoStepThreshold steps, then one
// window per autoWindowSteps steps, capped at maxAutoPartitions.
func AutoPartitions(steps int) int {
	if steps < autoStepThreshold {
		return 1
	}
	k := (steps + autoWindowSteps - 1) / autoWindowSteps
	if k > maxAutoPartitions {
		k = maxAutoPartitions
	}
	return k
}

// PlanWindows returns the least-cut plan of k contiguous windows: the
// k−1 boundaries of least total CutProfile weight that keep every
// window at least minWindowSteps(n, k) steps long.  Among least-cut
// plans it takes the one whose boundaries lie closest in total to the
// balanced targets i·n/k, then the smaller positions, compared from
// the last boundary.  k = 0 selects AutoPartitions; maxCut > 0 returns
// the plan with the most windows, at most k, whose least cut fits
// under the same length.  An empty plan (no boundaries) means solve
// monolithically.
func PlanWindows(ins *model.MTSwitchInstance, k, maxCut int) *Plan {
	n := ins.Steps()
	if k == 0 {
		k = AutoPartitions(n)
	}
	if k > n {
		k = n
	}
	if k <= 1 || n < 2 {
		return &Plan{}
	}
	profile := CutProfile(ins)
	minLen := minWindowSteps(n, k)
	plan, least := leastCutPlan(profile, k, minLen)
	if maxCut > 0 && plan.CutColumns > int64(maxCut) {
		// least is non-decreasing: dropping a boundary keeps the length.
		j := k - 1
		for j > 0 && least[j] > int64(maxCut) {
			j--
		}
		if j == 0 {
			return &Plan{}
		}
		plan, _ = leastCutPlan(profile, j+1, minLen)
	}
	return plan
}

// leastCutPlan is PlanWindows' interval DP over an n-step profile.
// Layer j holds, for every position s, the best score (cut, then total
// distance to the targets) of j boundaries at least minLen apart whose
// last lies at or before s; layer j+1 places a boundary at s after
// layer j's best at s − minLen.  Each layer marks, one bit a position,
// where its prefix best strictly improves, and the plan is read back
// from the marks.  least[j] is the least cut of any j boundaries under
// the same length, for j < k.  O(k·n) time, O(n) words, k·n bits.
func leastCutPlan(profile []int64, k, minLen int) (*Plan, []int64) {
	type score struct{ cut, dist int64 }
	n := len(profile)
	hi := n - minLen // the last window keeps minLen steps
	prev, cur := make([]score, hi+1), make([]score, hi+1)
	marks := make([][]uint64, k)
	least := make([]int64, k)
	for j := 1; j < k; j++ {
		lo, target := j*minLen, j*n/k
		mark := make([]uint64, (hi-lo)/64+1)
		best := score{cut: math.MaxInt64}
		for s := lo; s <= hi; s++ {
			p := prev[s-minLen]
			f := score{p.cut + profile[s], p.dist + int64(abs(s-target))}
			if f.cut < best.cut || f.cut == best.cut && f.dist < best.dist {
				best = f
				mark[uint(s-lo)/64] |= 1 << (uint(s-lo) % 64)
			}
			cur[s] = best
		}
		marks[j], least[j] = mark, best.cut
		prev, cur = cur, prev
	}
	plan := &Plan{Boundaries: make([]int, k-1), Weights: make([]int64, k-1)}
	for j, s := k-1, hi; j >= 1; j, s = j-1, s-minLen {
		s = lastMark(marks[j], j*minLen, s)
		plan.Boundaries[j-1], plan.Weights[j-1] = s, profile[s]
		plan.CutColumns += profile[s]
	}
	return plan, least
}

// lastMark returns the largest position at most x whose bit is set in
// mark, a bitmap of positions from lo; position lo is always set.
func lastMark(mark []uint64, lo, x int) int {
	i := (x - lo) / 64
	w := mark[i] & (^uint64(0) >> (63 - (x-lo)%64))
	for w == 0 {
		i--
		w = mark[i]
	}
	return lo + i*64 + 63 - bits.LeadingZeros64(w)
}

// minWindowSteps is the shortest window PlanWindows keeps for k
// windows over n steps.
func minWindowSteps(n, k int) int {
	return max(1, n/(4*k))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
