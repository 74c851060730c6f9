// Package partition decomposes large MT-Switch instances along the
// step axis: a multilevel partitioner chooses window boundaries that
// cut as little shared switch-column activity as possible, the windows
// are solved independently (and concurrently) by the exact engine, and
// the window schedules are stitched back together with a
// coupling-correction pass.
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
	"math/bits"
	"sort"

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

// PlanWindows runs the multilevel partitioner: take the instance's
// CutProfile, coarsen by merging the adjacent step ranges joined by
// the heaviest boundaries (only the cheapest candidate boundaries
// survive to the coarse level), place k−1
// boundaries balanced over the coarse candidates, then refine each
// boundary at full resolution with greedy FM-style moves that lower
// the cut under a minimum-window-length balance constraint.
// k = 0 selects AutoPartitions; maxCut > 0 drops the heaviest
// boundaries (merging their windows) until the total weighted cut
// fits.  An empty plan (no boundaries) means solve monolithically.
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

	// Coarsening: treat every step as an atom and merge across the
	// heaviest boundaries until at most coarseTarget candidates remain
	// — equivalently, keep the coarseTarget cheapest boundaries.
	coarseTarget := 8 * k
	if coarseTarget < 32 {
		coarseTarget = 32
	}
	allowed := make([]int, 0, n-1)
	for s := 1; s < n; s++ {
		allowed = append(allowed, s)
	}
	if len(allowed) > coarseTarget {
		sort.Slice(allowed, func(a, b int) bool {
			if profile[allowed[a]] != profile[allowed[b]] {
				return profile[allowed[a]] < profile[allowed[b]]
			}
			return allowed[a] < allowed[b]
		})
		allowed = allowed[:coarseTarget]
		sort.Ints(allowed)
	}

	// Balanced initial split over the coarse candidates: for each
	// target position pick the nearest surviving boundary after the
	// previous choice.
	chosen := make([]int, 0, k-1)
	prev := 0
	for i := 1; i < k; i++ {
		target := i * n / k
		best := -1
		for _, s := range allowed {
			if s <= prev {
				continue
			}
			if best < 0 || abs(s-target) < abs(best-target) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		prev = best
	}

	// Refinement (uncoarsened): greedily move each boundary to the
	// cheapest position between its neighbors that keeps every window
	// at least minLen steps long, sweeping until a fixpoint.
	minLen := minWindowSteps(n, k)
	for pass := 0; pass < 4; pass++ {
		improved := false
		for i, b := range chosen {
			lo := minLen
			if i > 0 {
				lo = chosen[i-1] + minLen
			}
			hi := n - minLen
			if i < len(chosen)-1 {
				hi = chosen[i+1] - minLen
			}
			best, bestW := b, profile[b]
			for s := lo; s <= hi; s++ {
				if s < 1 || s > n-1 {
					continue
				}
				if profile[s] < bestW {
					best, bestW = s, profile[s]
				}
			}
			if best != b {
				chosen[i] = best
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	// Enforce the cut cap by merging across the heaviest boundaries.
	if maxCut > 0 {
		for len(chosen) > 0 {
			var total int64
			worst, worstW := -1, int64(-1)
			for i, s := range chosen {
				total += profile[s]
				if profile[s] > worstW {
					worst, worstW = i, profile[s]
				}
			}
			if total <= int64(maxCut) {
				break
			}
			chosen = append(chosen[:worst], chosen[worst+1:]...)
		}
	}

	plan := &Plan{Boundaries: chosen}
	for _, s := range chosen {
		plan.Weights = append(plan.Weights, profile[s])
		plan.CutColumns += profile[s]
	}
	return plan
}

// minWindowSteps is the window length PlanWindows's refinement keeps
// for k windows over n steps; its balanced initial split does not.
func minWindowSteps(n, k int) int {
	return max(1, n/(4*k))
}

// AutoDispatchSteps is the step count from which an exact MT-Switch
// solve may be sent to the partitioned solver.
const AutoDispatchSteps = 256

// AutoDispatch reports whether an exact solve of ins should run
// partitioned: ins has at least AutoDispatchSteps steps and its
// automatic plan, PlanWindows(ins, 0, 0), cuts no column and keeps
// every window at least minWindowSteps long.  Block-structured traces
// such as workload.Blocked meet it, and their stitched cost equals the
// monolithic optimum.  Off such shapes the plan cuts columns or breaks
// the length (a few one-step windows beside a huge one), and the
// stitched answer costs more than the monolithic optimum, which the
// exact engine proves in tens of milliseconds at these sizes.
func AutoDispatch(ins *model.MTSwitchInstance) bool {
	n := ins.Steps()
	if n < AutoDispatchSteps {
		return false
	}
	p := PlanWindows(ins, 0, 0)
	if p.CutColumns != 0 {
		return false
	}
	minLen := minWindowSteps(n, AutoPartitions(n))
	for _, w := range p.Windows(n) {
		if w[1]-w[0] < minLen {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
